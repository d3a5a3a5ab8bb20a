package bench

import (
	"fmt"

	"masq/internal/hyper"
	"masq/internal/masq"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
)

func init() {
	register("abl-rule-scale", "Ablation: indexed rule engine — valid_conn throughput and enforcement latency vs rule count, indexed vs linear", ablRuleScale)
}

// RuleScalePoint is one measured (rule count, engine) cell: policy
// evaluation throughput on the connection-setup path, the latency of
// enforcing one narrow revoke against a populated RCT, and a rule-churn
// storm. It feeds the abl-rule-scale table.
type RuleScalePoint struct {
	Rules           int
	Engine          string // "indexed" or "linear"
	ValidatesPerSec float64
	ValidateMicros  float64 // mean valid_conn latency (all cache misses)
	EnforceMicros   float64 // one narrow revoke → drain (16 resets)
	StormMicros     float64 // 8 revokes back-to-back (0 = cell skipped)
	StormResets     uint64
	Revalidated     uint64 // RCT entries re-evaluated across all enforcement
	IndexPairs      int    // distinct (src bits, dst bits) classes indexed
	IndexBuckets    int    // hash buckets behind them
}

// Rule-scale scenario layout. The synthetic bulk rules live in 10/8 and
// never match the measured traffic, so in linear mode every probe pays a
// full-chain scan (the catch-all sits at the lowest priority, scanned
// last) while the index answers in O(prefix-length pairs) probes.
const (
	ruleScaleVNI        = 100
	ruleScaleProbes     = 256 // valid_conn calls, all distinct ConnIDs
	ruleScaleVictims    = 16  // RCT entries inside the revoked rule's footprint
	ruleScaleBystanders = 48  // RCT entries the revoke must not touch
	ruleScaleStormRules = 8   // narrow allow rules revoked back-to-back
	ruleScaleStormConns = 8   // tracked entries per storm rule
)

// ruleScaleChain builds n synthetic ProtoRDMA rules inside 10/8 with mixed
// prefix lengths, priorities 2..1025, from a fixed LCG — deterministic and
// disjoint from the 172.16+/16 subnets the measured flows use.
func ruleScaleChain(n int) []overlay.Rule {
	seed := uint32(0x9e3779b9)
	next := func(m int) int {
		seed = seed*1664525 + 1013904223
		return int(seed>>8) % m
	}
	bits := []int{8, 16, 24, 32}
	rules := make([]overlay.Rule, 0, n)
	for i := 0; i < n; i++ {
		act := overlay.Deny
		if next(2) == 0 {
			act = overlay.Allow
		}
		rules = append(rules, overlay.Rule{
			Priority: 2 + next(1024),
			Proto:    overlay.ProtoRDMA,
			Src:      packet.CIDR{IP: packet.NewIP(10, byte(next(250)), byte(next(250)), byte(next(250))), Bits: bits[next(4)]},
			Dst:      packet.CIDR{IP: packet.NewIP(10, byte(next(250)), byte(next(250)), byte(next(250))), Bits: bits[next(4)]},
			Action:   act,
		})
	}
	return rules
}

// runRuleScale measures one (rule count, engine) cell on a single-host
// tracker driven directly (no controller in the loop — this isolates the
// rule engine). withStorm gates the churn-storm phase, which is skipped
// for the linear engine at 100k rules where it would burn real seconds
// re-scanning the whole chain per entry per revoke.
func runRuleScale(n int, linear, withStorm bool) RuleScalePoint {
	eng := simtime.NewEngine()
	fab := overlay.NewFabric()
	tenant := fab.AddTenant(ruleScaleVNI, "tenant")
	tenant.SetLinear(linear)
	host := hyper.NewHost(eng, hyper.HostConfig{
		Name: "h0", IP: packet.NewIP(172, 16, 0, 1), MAC: packet.MAC{2, 0, 0, 0, 0, 1},
		MemBytes: 32 << 30, RNIC: rnic.DefaultParams(),
		Fabric:      fab,
		ResolveHost: func(packet.IP) (packet.MAC, bool) { return packet.MAC{}, false },
	})
	ct := masq.NewRConntrack(host.Dev)

	// Load the whole policy before Watch: bulk chain, a catch-all for the
	// probe/bystander subnet (lowest priority → scanned last by the linear
	// engine), one narrow victim allow, and the storm allows.
	pol := tenant.Policy
	pol.AddRules(ruleScaleChain(n))
	probeNet := packet.CIDR{IP: packet.NewIP(172, 16, 0, 0), Bits: 16}
	pol.AddRule(overlay.Rule{Priority: 1, Proto: overlay.ProtoAny, Src: probeNet, Dst: probeNet, Action: overlay.Allow})
	victimNet := packet.CIDR{IP: packet.NewIP(172, 17, 0, 0), Bits: 16}
	victimRule := pol.AddRule(overlay.Rule{Priority: 500, Proto: overlay.ProtoRDMA, Src: victimNet, Dst: victimNet, Action: overlay.Allow})
	stormRules := make([]int, ruleScaleStormRules)
	for k := range stormRules {
		net := packet.CIDR{IP: packet.NewIP(172, byte(32+k), 0, 0), Bits: 16}
		stormRules[k] = pol.AddRule(overlay.Rule{Priority: 600, Proto: overlay.ProtoRDMA, Src: net, Dst: net, Action: overlay.Allow})
	}
	ct.Watch(tenant)

	// Populate the RCT: real QPs at RTS so enforcement's resets are real
	// modify_qp(ERR) work, exactly as in production teardown.
	dev := host.Dev
	track := func(p *simtime.Proc, fn *rnic.Func, pd *rnic.PD, cq *rnic.CQ, src, dst packet.IP) {
		qp := dev.CreateQP(p, fn, pd, cq, cq, rnic.RC, rnic.DefaultCaps())
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateInit})
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateRTR})
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateRTS})
		ct.Insert(p, masq.ConnID{VNI: ruleScaleVNI, SrcVIP: src, DstVIP: dst, QPN: qp.Num}, qp)
	}
	eng.Spawn("rule-scale-prep", func(p *simtime.Proc) {
		fn := dev.PF()
		pd := dev.AllocPD(p, fn)
		cq := dev.CreateCQ(p, fn, 16)
		for i := 0; i < ruleScaleVictims; i++ {
			track(p, fn, pd, cq, packet.NewIP(172, 17, 0, byte(1+i)), packet.NewIP(172, 17, 1, 1))
		}
		for i := 0; i < ruleScaleBystanders; i++ {
			track(p, fn, pd, cq, packet.NewIP(172, 16, 0, byte(1+i)), packet.NewIP(172, 16, 1, 1))
		}
		for k := 0; k < ruleScaleStormRules; k++ {
			for i := 0; i < ruleScaleStormConns; i++ {
				track(p, fn, pd, cq, packet.NewIP(172, byte(32+k), 0, byte(1+i)), packet.NewIP(172, byte(32+k), 1, 1))
			}
		}
	})
	eng.Run()

	res := RuleScalePoint{Rules: n, Engine: "indexed"}
	if linear {
		res.Engine = "linear"
	}

	// Phase 1: valid_conn throughput. Distinct QPNs keep every call a
	// verdict-cache miss, so each pays the full policy evaluation.
	var validated simtime.Duration
	eng.Spawn("rule-scale-validate", func(p *simtime.Proc) {
		t0 := p.Now()
		for i := 0; i < ruleScaleProbes; i++ {
			id := masq.ConnID{
				VNI:    ruleScaleVNI,
				SrcVIP: packet.NewIP(172, 16, 1, byte(1+i%250)),
				DstVIP: packet.NewIP(172, 16, 2, byte(1+i/250)),
				QPN:    uint32(50000 + i),
			}
			if err := ct.Validate(p, id); err != nil {
				panic(fmt.Sprintf("bench: rule-scale probe denied: %v", err))
			}
		}
		validated = p.Now().Sub(t0)
	})
	eng.Run()
	res.ValidateMicros = validated.Micros() / ruleScaleProbes
	if validated > 0 {
		res.ValidatesPerSec = ruleScaleProbes / (validated.Micros() / 1e6)
	}

	// Phase 2: one narrow revoke. Latency is rule removal → enforcement
	// drain; exactly the victims reset, the bystanders survive.
	t0 := eng.Now()
	eng.Spawn("rule-scale-revoke", func(p *simtime.Proc) {
		pol.RemoveRule(victimRule)
	})
	eng.Run()
	res.EnforceMicros = eng.Now().Sub(t0).Micros()
	if ct.Stats.Resets != ruleScaleVictims {
		panic(fmt.Sprintf("bench: rule-scale revoke reset %d conns, want %d", ct.Stats.Resets, ruleScaleVictims))
	}

	// Phase 3: churn storm — the storm allows revoked back-to-back, each
	// tearing down its tracked entries.
	if withStorm {
		before := ct.Stats.Resets
		t0 = eng.Now()
		eng.Spawn("rule-scale-storm", func(p *simtime.Proc) {
			for _, id := range stormRules {
				pol.RemoveRule(id)
			}
		})
		eng.Run()
		res.StormMicros = eng.Now().Sub(t0).Micros()
		res.StormResets = ct.Stats.Resets - before
	}

	res.Revalidated = ct.Stats.Revalidated
	inf := pol.IndexInfo()
	res.IndexPairs, res.IndexBuckets = inf.Pairs, inf.Buckets
	return res
}

// ablRuleScale sweeps the rule chain from 1k to 100k entries with the
// decision index on and off. The linear 100k storm cell is skipped (it
// would re-scan the full chain per tracked entry per revoke — the exact
// blowup the index removes); its dash is the result.
func ablRuleScale() *Table {
	t := &Table{
		ID:    "abl-rule-scale",
		Title: "Indexed rule engine: valid_conn and enforcement vs rule count (16 victims, 48 bystanders, 8×8 storm)",
		Columns: []string{"rules", "engine", "valid/sec", "valid (µs)",
			"revoke (µs)", "storm (µs)", "storm resets", "revalidated", "idx pairs", "idx buckets"},
	}
	for _, n := range []int{1000, 10000, 100000} {
		for _, linear := range []bool{false, true} {
			storm := !(linear && n >= 100000)
			r := runRuleScale(n, linear, storm)
			stormCell, resetCell := "-", "-"
			if storm {
				stormCell = fmt.Sprintf("%.2f", r.StormMicros)
				resetCell = fmt.Sprint(r.StormResets)
			}
			idxPairs, idxBuckets := fmt.Sprint(r.IndexPairs), fmt.Sprint(r.IndexBuckets)
			if linear {
				idxPairs, idxBuckets = "-", "-"
			}
			t.AddRow(n, r.Engine, fmt.Sprintf("%.0f", r.ValidatesPerSec),
				fmt.Sprintf("%.2f", r.ValidateMicros), fmt.Sprintf("%.2f", r.EnforceMicros),
				stormCell, resetCell, fmt.Sprint(r.Revalidated), idxPairs, idxBuckets)
		}
	}
	t.Note("synthetic rules live in 10/8; measured flows in 172.16+/16 match only the lowest-priority catch-all, so linear valid_conn scans the whole chain")
	t.Note("revoke latency = RemoveRule → enforcement drain; incremental enforcement re-validates only the 16 footprint entries, linear re-scans every tracked conn")
	t.Note("linear 100k storm cell skipped: 8 revokes × full-table scan × full-chain evaluation per entry")
	return t
}
