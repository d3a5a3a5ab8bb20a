package overlay

import (
	"math/rand"
	"testing"

	"masq/internal/packet"
)

// randomPolicyOps drives a policy through a seeded churn of adds and
// removes drawn from a deliberately nasty distribution: a tiny address
// space (10.{0-3}.{0-3}.{0-3}) so CIDRs overlap constantly, prefix
// lengths from match-all to host routes, only four priority levels so
// equal-priority ID tie-breaks are exercised, and all three protocols.
func randomPolicyOps(rng *rand.Rand, pl *Policy, ids *[]int) {
	if len(*ids) > 0 && rng.Intn(3) == 0 {
		i := rng.Intn(len(*ids))
		if !pl.RemoveRule((*ids)[i]) {
			panic("tracked rule missing")
		}
		*ids = append((*ids)[:i], (*ids)[i+1:]...)
		return
	}
	octet := func() byte { return byte(rng.Intn(4)) }
	randCIDR := func() packet.CIDR {
		bits := []int{0, 8, 16, 24, 30, 32}[rng.Intn(6)]
		return packet.CIDR{IP: packet.NewIP(10, octet(), octet(), octet()), Bits: bits}
	}
	act := Deny
	if rng.Intn(2) == 0 {
		act = Allow
	}
	id := pl.AddRule(Rule{
		Priority: rng.Intn(4),
		Proto:    Proto(rng.Intn(3)),
		Src:      randCIDR(),
		Dst:      randCIDR(),
		Action:   act,
	})
	*ids = append(*ids, id)
}

// TestIndexedAllowsMatchesLinearOracle is the equivalence property test:
// at every churn step, for a mesh of probe flows and all protocols, the
// indexed verdict must equal the linear oracle's.
func TestIndexedAllowsMatchesLinearOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pl := NewPolicy()
	var ids []int
	protos := []Proto{ProtoAny, ProtoTCP, ProtoRDMA}
	check := func(step int) {
		for f := 0; f < 40; f++ {
			src := packet.NewIP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(4)))
			dst := packet.NewIP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(4)))
			for _, pr := range protos {
				got := pl.Allows(pr, src, dst)
				want, _ := pl.allowsLinearCost(pr, src, dst)
				if got != want {
					t.Fatalf("step %d: verdict diverged for proto %d %v->%v: indexed=%v linear=%v\nrules: %+v",
						step, pr, src, dst, got, want, pl.Rules())
				}
			}
		}
	}
	for step := 0; step < 600; step++ {
		randomPolicyOps(rng, pl, &ids)
		if step%10 == 0 {
			check(step)
		}
	}
	check(600)
	if inf := pl.IndexInfo(); inf.Rules != len(ids) {
		t.Fatalf("index tracks %d rules, chain has %d", inf.Rules, len(ids))
	}
}

// TestIndexEquivalenceAfterRebuild: incremental maintenance must converge
// to the same structure a from-scratch build produces.
func TestIndexEquivalenceAfterRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pl := NewPolicy()
	var ids []int
	for step := 0; step < 300; step++ {
		randomPolicyOps(rng, pl, &ids)
	}
	type probe struct {
		pr       Proto
		src, dst packet.IP
	}
	var probes []probe
	var before []bool
	for f := 0; f < 200; f++ {
		p := probe{
			pr:  Proto(rng.Intn(3)),
			src: packet.NewIP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(4))),
			dst: packet.NewIP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(4))),
		}
		probes = append(probes, p)
		before = append(before, pl.Allows(p.pr, p.src, p.dst))
	}
	pre := pl.IndexInfo()
	pl.idx.rebuild(pl.rules)
	post := pl.IndexInfo()
	if post.Rebuilds != pre.Rebuilds+1 {
		t.Fatalf("rebuilds %d -> %d", pre.Rebuilds, post.Rebuilds)
	}
	if post.Rules != pre.Rules || post.Pairs != pre.Pairs || post.Buckets != pre.Buckets {
		t.Fatalf("index shape changed across rebuild: %+v vs %+v", pre, post)
	}
	for i, p := range probes {
		if got := pl.Allows(p.pr, p.src, p.dst); got != before[i] {
			t.Fatalf("verdict changed across rebuild for %+v: %v -> %v", p, before[i], got)
		}
	}
}

// TestAddRuleChainOrderMatchesStableSort: the in-place priority insert
// must produce the same chain the historical append-and-stable-sort did.
func TestAddRuleChainOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pl := NewPolicy()
	prios := make([]int, 50)
	for i := range prios {
		prios[i] = rng.Intn(5)
		pl.AddRule(Rule{Priority: prios[i], Proto: ProtoAny, Src: packet.CIDR{}, Dst: packet.CIDR{}, Action: Allow})
	}
	rules := pl.Rules()
	for i := 1; i < len(rules); i++ {
		a, b := rules[i-1], rules[i]
		if a.Priority < b.Priority {
			t.Fatalf("chain not sorted by priority desc at %d: %d < %d", i, a.Priority, b.Priority)
		}
		if a.Priority == b.Priority && a.ID > b.ID {
			t.Fatalf("equal-priority rules out of insertion order at %d: ID %d before %d", i, a.ID, b.ID)
		}
	}
}

// TestAddRulesBulkMatchesSingleInserts: bulk loading must produce the
// same chain, verdicts, and a single version bump.
func TestAddRulesBulkMatchesSingleInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var batch []Rule
	for i := 0; i < 120; i++ {
		batch = append(batch, Rule{
			Priority: rng.Intn(4),
			Proto:    Proto(rng.Intn(3)),
			Src:      packet.CIDR{IP: packet.NewIP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), 0), Bits: []int{0, 16, 24}[rng.Intn(3)]},
			Dst:      packet.CIDR{IP: packet.NewIP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), 0), Bits: []int{0, 16, 24}[rng.Intn(3)]},
			Action:   Action(rng.Intn(2)),
		})
	}
	single, bulk := NewPolicy(), NewPolicy()
	for _, r := range batch {
		single.AddRule(r)
	}
	notifies := 0
	bulk.SubscribeRules(func(ch RuleChange) {
		notifies++
		if !ch.Full {
			t.Fatal("bulk load must notify with a Full change")
		}
	})
	bulk.AddRules(batch)
	if notifies != 1 || bulk.Version() != 1 {
		t.Fatalf("bulk load: %d notifies, version %d", notifies, bulk.Version())
	}
	sr, br := single.Rules(), bulk.Rules()
	if len(sr) != len(br) {
		t.Fatalf("chain lengths differ: %d vs %d", len(sr), len(br))
	}
	for i := range sr {
		if sr[i] != br[i] {
			t.Fatalf("chains diverge at %d: %+v vs %+v", i, sr[i], br[i])
		}
	}
	for f := 0; f < 100; f++ {
		src := packet.NewIP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(4)))
		dst := packet.NewIP(10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(4)))
		for _, pr := range []Proto{ProtoAny, ProtoTCP, ProtoRDMA} {
			if single.Allows(pr, src, dst) != bulk.Allows(pr, src, dst) {
				t.Fatalf("verdicts diverge for proto %d %v->%v", pr, src, dst)
			}
		}
	}
}

// TestAllowsCostUnitsAgreeOnCanonicalChain: the default allow-all chain
// must cost exactly one work unit in both engines — that single shared
// unit is what keeps default-mode cluster traces byte-identical when the
// index is toggled.
func TestAllowsCostUnitsAgreeOnCanonicalChain(t *testing.T) {
	for _, linear := range []bool{false, true} {
		pl := NewPolicy()
		pl.linear = linear
		pl.AddRule(Rule{Priority: 1, Proto: ProtoAny, Src: packet.CIDR{}, Dst: packet.CIDR{}, Action: Allow})
		ok, units := pl.AllowsCost(ProtoRDMA, packet.NewIP(10, 0, 0, 1), packet.NewIP(10, 0, 0, 2))
		if !ok || units != 1 {
			t.Fatalf("linear=%v: allow=%v units=%d, want allow with 1 unit", linear, ok, units)
		}
	}
}

// TestIndexedCostSublinear: at 4k single-priority /24 rules the indexed
// lookup must probe a tiny bounded number of buckets while the linear
// oracle scans the chain.
func TestIndexedCostSublinear(t *testing.T) {
	pl := NewPolicy()
	var batch []Rule
	for i := 0; i < 4096; i++ {
		batch = append(batch, Rule{
			Priority: 2,
			Proto:    ProtoRDMA,
			Src:      packet.CIDR{IP: packet.NewIP(10, byte(i/64), byte(i%64), 0), Bits: 24},
			Dst:      packet.CIDR{IP: packet.NewIP(10, byte(i%64), byte(i/64), 0), Bits: 24},
			Action:   Deny,
		})
	}
	batch = append(batch, Rule{Priority: 1, Proto: ProtoAny, Src: packet.CIDR{}, Dst: packet.CIDR{}, Action: Allow})
	pl.AddRules(batch)
	src, dst := packet.NewIP(172, 16, 0, 1), packet.NewIP(172, 16, 0, 2)
	ok, units := pl.AllowsCost(ProtoRDMA, src, dst)
	if !ok {
		t.Fatal("catch-all allow must match")
	}
	if units > 8 {
		t.Fatalf("indexed lookup probed %d buckets, want a small constant", units)
	}
	pl.linear = true
	okLin, unitsLin := pl.AllowsCost(ProtoRDMA, src, dst)
	if okLin != ok {
		t.Fatal("modes disagree")
	}
	if unitsLin != 4097 {
		t.Fatalf("linear scan did %d units, want 4097", unitsLin)
	}
}

// TestIndexSkipsImpossibleRules: a rule whose CIDR can never contain an
// address (Bits > 32) matches nothing in either engine.
func TestIndexSkipsImpossibleRules(t *testing.T) {
	pl := NewPolicy()
	pl.AddRule(Rule{Priority: 9, Proto: ProtoAny, Src: packet.CIDR{IP: packet.NewIP(10, 0, 0, 0), Bits: 33}, Dst: packet.CIDR{}, Action: Allow})
	src, dst := packet.NewIP(10, 0, 0, 1), packet.NewIP(10, 0, 0, 2)
	if lin, _ := pl.allowsLinearCost(ProtoAny, src, dst); lin || pl.Allows(ProtoAny, src, dst) {
		t.Fatal("impossible rule must not match")
	}
	if inf := pl.IndexInfo(); inf.Rules != 0 {
		t.Fatalf("impossible rule was indexed: %+v", inf)
	}
	if !pl.RemoveRule(1) {
		t.Fatal("rule must still be removable")
	}
}
