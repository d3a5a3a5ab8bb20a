package overlay

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"masq/internal/packet"
)

// opBytes is an input that policyModel.step decodes into policy
// operations. An exhausted input reads as zeros.
type opBytes []byte

func (b *opBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// rule decodes a rule from a deliberately nasty distribution: a tiny
// address space (10.{0-3}.{0-3}.{0-3}) so CIDRs overlap constantly, prefix
// lengths from match-all to host routes, only four priority levels so
// equal-priority ID tie-breaks are exercised, all three protocols, and
// rules that can never match (Proto 7, Bits 33), which the index skips.
func (b *opBytes) rule() Rule {
	c := b.next()
	proto := Proto(c >> 2 & 3)
	if proto == 3 {
		proto = 7
	}
	return Rule{Priority: c & 3, Proto: proto, Src: b.cidr(), Dst: b.cidr(), Action: Action(c >> 4 & 1)}
}

func (b *opBytes) cidr() packet.CIDR {
	a, m := b.next(), b.next()
	return packet.CIDR{
		IP:   packet.NewIP(10, byte(a&3), byte(a>>2&3), byte(a>>4&3)),
		Bits: []int{0, 8, 16, 24, 30, 32, 33}[m%7],
	}
}

// policyModel applies decoded operations to a Policy and mirrors them in a
// reference chain kept by sorted insert, which shares no code with the
// policy's sorted view.
type policyModel struct {
	t         *testing.T
	pl        *Policy
	ref       []Rule // priority desc, then ID asc
	nextID    int
	version   uint64
	want, got []RuleChange // notifications expected and seen
}

func newPolicyModel(t *testing.T) *policyModel {
	m := &policyModel{t: t, pl: NewPolicy(), nextID: 1}
	m.pl.SubscribeRules(func(ch RuleChange) { m.got = append(m.got, ch) })
	return m
}

// add mirrors a rule the policy numbered id and returns it numbered.
func (m *policyModel) add(r Rule, id int) Rule {
	if id != m.nextID {
		m.t.Fatalf("rule numbered %d, want %d", id, m.nextID)
	}
	r.ID = id
	m.nextID++
	// First slot whose priority is strictly lower: equal-priority rules all
	// have smaller IDs.
	i := sort.Search(len(m.ref), func(i int) bool { return m.ref[i].Priority < r.Priority })
	m.ref = slices.Insert(m.ref, i, r)
	return r
}

func (m *policyModel) changed(ch RuleChange) {
	m.version++
	m.want = append(m.want, ch)
}

// step decodes one operation from b and applies it to both sides: AddRule,
// an AddRules batch, RemoveRule of a live or a never-assigned ID, or a
// toggle of the linear scan.
func (m *policyModel) step(b *opBytes) {
	switch op := b.next() % 8; {
	case op < 3:
		r := b.rule()
		m.changed(RuleChange{Rule: m.add(r, m.pl.AddRule(r)), Added: true})
	case op == 3:
		batch := make([]Rule, 1+b.next()%8)
		for i := range batch {
			batch[i] = b.rule()
		}
		ids := m.pl.AddRules(batch)
		if len(ids) != len(batch) {
			m.t.Fatalf("AddRules returned %d IDs for %d rules", len(ids), len(batch))
		}
		for i, id := range ids {
			m.add(batch[i], id)
		}
		m.changed(RuleChange{Full: true})
	case op < 6 && len(m.ref) > 0:
		i := b.next() % len(m.ref)
		r := m.ref[i]
		if !m.pl.RemoveRule(r.ID) {
			m.t.Fatalf("live rule %d was not removed", r.ID)
		}
		m.ref = slices.Delete(m.ref, i, i+1)
		m.changed(RuleChange{Rule: r})
	case op < 7:
		// An ID the policy never assigned: zero, negative, or not yet reached.
		k := b.next()
		id := m.nextID + k>>1
		if k&1 == 1 {
			id = -(k >> 1)
		}
		if m.pl.RemoveRule(id) {
			m.t.Fatalf("never-assigned ID %d was removed", id)
		}
	default:
		m.pl.linear = !m.pl.linear
	}
}

// probeIPs is the probe mesh. Each address first differs from the one
// before it at a longer prefix: /32, /24 (and /30), /16, /8.
var probeIPs = []packet.IP{
	packet.NewIP(10, 0, 1, 2), packet.NewIP(10, 0, 1, 3), packet.NewIP(10, 0, 2, 3),
	packet.NewIP(10, 3, 2, 0), packet.NewIP(192, 0, 2, 1),
}

// probeProtos are the probe mesh's flow protocols: the three named ones
// and two that no constant names, which only ProtoAny rules match.
var probeProtos = []Proto{ProtoAny, ProtoTCP, ProtoRDMA, 7, -1}

// check compares the policy with the reference: the chain, the counters,
// the notifications, and, on every flow of the probe mesh, the indexed
// verdict with the linear scan's. AllowsCost must return what the engine
// its mode selects returns.
func (m *policyModel) check() {
	t, pl := m.t, m.pl
	if got := pl.Rules(); !slices.Equal(got, m.ref) {
		t.Fatalf("chain diverged:\n got %+v\nwant %+v", got, m.ref)
	}
	if pl.RuleCount() != len(m.ref) || pl.Version() != m.version {
		t.Fatalf("RuleCount %d, Version %d; want %d, %d", pl.RuleCount(), pl.Version(), len(m.ref), m.version)
	}
	if !slices.Equal(m.got, m.want) {
		t.Fatalf("notifications diverged:\n got %+v\nwant %+v", m.got, m.want)
	}
	indexed := 0
	for _, r := range m.ref {
		if indexable(r) {
			indexed++
		}
	}
	if inf := pl.IndexInfo(); inf.Rules != indexed {
		t.Fatalf("index holds %d rules, want %d", inf.Rules, indexed)
	}
	for _, src := range probeIPs {
		for _, dst := range probeIPs {
			for _, pr := range probeProtos {
				lin, linUnits := pl.allowsLinearCost(pr, src, dst)
				got, units := pl.AllowsCost(pr, src, dst)
				idx := got
				if pl.linear {
					if got != lin || units != linUnits {
						t.Fatalf("proto %d %v->%v: linear AllowsCost = %v, %d; scan = %v, %d", pr, src, dst, got, units, lin, linUnits)
					}
					r, found, _ := pl.idx.lookup(pr, src, dst)
					idx = found && r.Action == Allow
				}
				if idx != lin {
					t.Fatalf("proto %d %v->%v: indexed=%v linear=%v\nrules: %+v", pr, src, dst, idx, lin, m.ref)
				}
			}
		}
	}
}

// runPolicyOps decodes data into operations and checks after each one.
func runPolicyOps(t *testing.T, data []byte) {
	m := newPolicyModel(t)
	for b := opBytes(data); len(b) > 0; {
		m.step(&b)
		m.check()
	}
}

func randomOps(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// FuzzRuleIndex checks the policy against the reference chain and the
// indexed verdicts against the linear scan after every decoded operation.
// An input's first 256 bytes (about 40 operations) are decoded: the
// fuzzer minimises every input that adds coverage, which costs O(bytes²)
// runs, and a run's checks cost O(operations × rules).
func FuzzRuleIndex(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, 64))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runPolicyOps(t, data[:min(len(data), 256)])
	})
}

// TestIndexedAllowsMatchesLinearOracle runs about 650 seeded random
// operations through FuzzRuleIndex's checks.
func TestIndexedAllowsMatchesLinearOracle(t *testing.T) {
	runPolicyOps(t, randomOps(42, 4000))
}

// TestAddRuleChainOrderMatchesStableSort: the chain must be the insertion
// sequence stably sorted by descending priority.
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
// address (Bits > 32), or whose protocol is none of the named ones,
// matches nothing in either engine, not even a ProtoAny flow or a flow of
// an unnamed protocol.
func TestIndexSkipsImpossibleRules(t *testing.T) {
	pl := NewPolicy()
	pl.AddRule(Rule{Priority: 9, Proto: ProtoAny, Src: packet.CIDR{IP: packet.NewIP(10, 0, 0, 0), Bits: 33}, Dst: packet.CIDR{}, Action: Allow})
	pl.AddRule(Rule{Priority: 9, Proto: 7, Src: packet.CIDR{}, Dst: packet.CIDR{}, Action: Allow})
	src, dst := packet.NewIP(10, 0, 0, 1), packet.NewIP(10, 0, 0, 2)
	for _, pr := range probeProtos {
		if lin, _ := pl.allowsLinearCost(pr, src, dst); lin || pl.Allows(pr, src, dst) {
			t.Fatalf("proto %d: impossible rule must not match", pr)
		}
	}
	if inf := pl.IndexInfo(); inf.Rules != 0 {
		t.Fatalf("impossible rule was indexed: %+v", inf)
	}
	if !pl.RemoveRule(1) {
		t.Fatal("rule must still be removable")
	}
}
