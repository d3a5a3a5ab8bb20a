package masq

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
)

// newTrackedQP creates a QP, walks it to RTS, and records the connection
// in the tracker.
func newTrackedQP(p *simtime.Proc, dev *rnic.Device, ct *RConntrack, id ConnID) *rnic.QP {
	fn := dev.PF()
	pd := dev.AllocPD(p, fn)
	cq := dev.CreateCQ(p, fn, 16)
	qp := dev.CreateQP(p, fn, pd, cq, cq, rnic.RC, rnic.DefaultCaps())
	dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateInit})
	dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateRTR})
	dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateRTS})
	id.QPN = qp.Num
	ct.Insert(p, id, qp)
	return qp
}

// TestIncrementalEnforcementScansOnlyFootprint: revoking a rule must
// re-validate only the RCT entries inside the rule's CIDR footprint, and
// reset exactly those no rule still allows.
func TestIncrementalEnforcementScansOnlyFootprint(t *testing.T) {
	b := newBed(t, ModeVF)
	tenant := b.fab.Tenant(100)
	subA, _ := packet.ParseCIDR("10.1.0.0/16")
	subB, _ := packet.ParseCIDR("10.2.0.0/16")
	ruleA := tenant.Policy.AddRule(overlay.Rule{Priority: 10, Proto: overlay.ProtoRDMA, Src: subA, Dst: subA, Action: overlay.Allow})
	tenant.Policy.AddRule(overlay.Rule{Priority: 10, Proto: overlay.ProtoRDMA, Src: subB, Dst: subB, Action: overlay.Allow})
	ct := b.be.CT
	ct.Watch(tenant)

	dev := b.host.Dev
	var inA, inB []*rnic.QP
	b.eng.Spawn("setup", func(p *simtime.Proc) {
		for i := 0; i < 3; i++ {
			inA = append(inA, newTrackedQP(p, dev, ct, ConnID{VNI: 100, SrcVIP: packet.NewIP(10, 1, 0, byte(1+i)), DstVIP: packet.NewIP(10, 1, 1, 1)}))
		}
		for i := 0; i < 2; i++ {
			inB = append(inB, newTrackedQP(p, dev, ct, ConnID{VNI: 100, SrcVIP: packet.NewIP(10, 2, 0, byte(1+i)), DstVIP: packet.NewIP(10, 2, 1, 1)}))
		}
		tenant.Policy.RemoveRule(ruleA)
	})
	b.eng.Run()

	for i, qp := range inA {
		if qp.State() != rnic.StateError {
			t.Errorf("footprint conn %d not reset (state %v)", i, qp.State())
		}
	}
	for i, qp := range inB {
		if qp.State() != rnic.StateRTS {
			t.Errorf("out-of-footprint conn %d was touched (state %v)", i, qp.State())
		}
	}
	if ct.Stats.Resets != 3 {
		t.Errorf("resets = %d, want 3", ct.Stats.Resets)
	}
	if ct.Stats.IncrScans != 1 || ct.Stats.FullScans != 0 {
		t.Errorf("scans: incr=%d full=%d, want exactly one incremental", ct.Stats.IncrScans, ct.Stats.FullScans)
	}
	if ct.Stats.Revalidated != 3 {
		t.Errorf("revalidated = %d, want only the 3 footprint entries", ct.Stats.Revalidated)
	}
}

// TestEnforcementSkipsNonRevokingChanges: changes that cannot flip an
// allowed connection to denied — adding an Allow, removing a Deny, or any
// TCP-only rule — must skip the RCT scan entirely.
func TestEnforcementSkipsNonRevokingChanges(t *testing.T) {
	b := newBed(t, ModeVF)
	tenant := b.fab.Tenant(100)
	b.allowAll(t, 100)
	ct := b.be.CT
	ct.Watch(tenant)
	dev := b.host.Dev
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	sub, _ := packet.ParseCIDR("10.9.0.0/16")
	var qp *rnic.QP
	var tcpDeny int
	b.eng.Spawn("setup", func(p *simtime.Proc) {
		qp = newTrackedQP(p, dev, ct, ConnID{VNI: 100, SrcVIP: packet.NewIP(10, 0, 0, 1), DstVIP: packet.NewIP(10, 0, 0, 2)})
		tenant.Policy.AddRule(overlay.Rule{Priority: 20, Proto: overlay.ProtoRDMA, Src: all, Dst: all, Action: overlay.Allow})
		tcpDeny = tenant.Policy.AddRule(overlay.Rule{Priority: 30, Proto: overlay.ProtoTCP, Src: sub, Dst: sub, Action: overlay.Deny})
		tenant.Policy.RemoveRule(tcpDeny)
	})
	b.eng.Run()
	if qp.State() != rnic.StateRTS {
		t.Fatalf("connection disturbed by non-revoking changes (state %v)", qp.State())
	}
	if ct.Stats.SkippedScans != 3 {
		t.Errorf("skipped = %d, want 3 (allow add, TCP deny add, deny remove)", ct.Stats.SkippedScans)
	}
	if ct.Stats.Revalidated != 0 || ct.Stats.IncrScans != 0 || ct.Stats.FullScans != 0 {
		t.Errorf("scans happened: incr=%d full=%d revalidated=%d",
			ct.Stats.IncrScans, ct.Stats.FullScans, ct.Stats.Revalidated)
	}
}

// TestVerdictCacheHitsAndInvalidation: repeat valid_conn on an unchanged
// policy must hit the verdict cache (and pay only verdictCacheCost); any
// rule change invalidates via the version key.
func TestVerdictCacheHitsAndInvalidation(t *testing.T) {
	b := newBed(t, ModeVF)
	tenant := b.fab.Tenant(100)
	b.allowAll(t, 100)
	ct := b.be.CT
	ct.Watch(tenant)
	id := ConnID{VNI: 100, SrcVIP: packet.NewIP(10, 0, 0, 1), DstVIP: packet.NewIP(10, 0, 0, 2), QPN: 7}
	sub, _ := packet.ParseCIDR("10.9.0.0/16")
	var missCost, hitCost simtime.Duration
	b.eng.Spawn("v", func(p *simtime.Proc) {
		t0 := p.Now()
		ct.Validate(p, id)
		t1 := p.Now()
		ct.Validate(p, id)
		t2 := p.Now()
		missCost, hitCost = t1.Sub(t0), t2.Sub(t1)
		// A rule change bumps the tenant version: next validate re-evaluates.
		tenant.Policy.AddRule(overlay.Rule{Priority: 50, Proto: overlay.ProtoRDMA, Src: sub, Dst: sub, Action: overlay.Deny})
		ct.Validate(p, id)
	})
	b.eng.Run()
	if ct.Stats.VerdictMisses != 2 || ct.Stats.VerdictHits != 1 {
		t.Fatalf("misses=%d hits=%d, want 2/1", ct.Stats.VerdictMisses, ct.Stats.VerdictHits)
	}
	if missCost != ValidConnCost {
		t.Errorf("miss cost = %v, want %v", missCost, ValidConnCost)
	}
	if hitCost != verdictCacheCost {
		t.Errorf("hit cost = %v, want %v", hitCost, verdictCacheCost)
	}
}

// enforceScenario drives an identical seeded churn of connections and rule
// changes through a tracker in either enforcement mode and fingerprints
// the outcome: which connections survive, which QPs died, reset count.
func enforceScenario(t *testing.T, linear bool) string {
	t.Helper()
	b := newBed(t, ModeVF)
	tenant := b.fab.Tenant(100)
	tenant.SetLinear(linear)
	ct := NewRConntrack(b.host.Dev)
	ct.Watch(tenant)

	rng := rand.New(rand.NewSource(99))
	pol := tenant.Policy
	var ruleIDs []int
	subnet := func(i int) packet.CIDR {
		return packet.CIDR{IP: packet.NewIP(10, byte(i), 0, 0), Bits: 16}
	}
	for i := 0; i < 4; i++ {
		ruleIDs = append(ruleIDs, pol.AddRule(overlay.Rule{
			Priority: 10, Proto: overlay.ProtoRDMA, Src: subnet(i), Dst: subnet(i), Action: overlay.Allow,
		}))
	}

	dev := b.host.Dev
	var qps []*rnic.QP
	b.eng.Spawn("churn", func(p *simtime.Proc) {
		for i := 0; i < 12; i++ {
			s := i % 4
			qps = append(qps, newTrackedQP(p, dev, ct, ConnID{
				VNI: 100, SrcVIP: packet.NewIP(10, byte(s), 1, byte(1+i)), DstVIP: packet.NewIP(10, byte(s), 2, 1),
			}))
		}
		for op := 0; op < 10; op++ {
			switch rng.Intn(3) {
			case 0: // revoke a surviving allow rule
				if len(ruleIDs) > 0 {
					i := rng.Intn(len(ruleIDs))
					pol.RemoveRule(ruleIDs[i])
					ruleIDs = append(ruleIDs[:i], ruleIDs[i+1:]...)
				}
			case 1: // deny one subnet outright
				s := subnet(rng.Intn(4))
				pol.AddRule(overlay.Rule{Priority: 90, Proto: overlay.ProtoRDMA, Src: s, Dst: s, Action: overlay.Deny})
			case 2: // re-allow a subnet (cannot revoke; skipped incrementally)
				s := subnet(rng.Intn(4))
				pol.AddRule(overlay.Rule{Priority: 5, Proto: overlay.ProtoRDMA, Src: s, Dst: s, Action: overlay.Allow})
			}
			p.Sleep(simtime.Us(rng.Float64() * 20))
		}
	})
	b.eng.Run()

	conns := ct.Conns()
	sort.Slice(conns, func(a, b int) bool { return connLess(conns[a], conns[b]) })
	out := fmt.Sprintf("resets=%d survivors=%v states=", ct.Stats.Resets, conns)
	for _, qp := range qps {
		out += fmt.Sprintf("%d", qp.State())
	}
	return out
}

// TestIncrementalMatchesFullEnforcement: under a seeded storm of inserts,
// revokes, denies, and re-allows, footprint-scoped enforcement must
// converge to exactly the same surviving connections, QP states, and
// reset count as the legacy full-table scan.
func TestIncrementalMatchesFullEnforcement(t *testing.T) {
	incr := enforceScenario(t, false)
	full := enforceScenario(t, true)
	if incr != full {
		t.Fatalf("enforcement outcomes diverge:\nincremental: %s\nfull:        %s", incr, full)
	}
}

// TestConnLessByteOrder: ConnIDs must order by raw address bytes, not by
// the lexicographic order of their dotted-quad strings, and comparison
// must not allocate (it runs inside every enforcement sort).
func TestConnLessByteOrder(t *testing.T) {
	a := ConnID{VNI: 1, QPN: 1, SrcVIP: packet.NewIP(10, 9, 0, 1), DstVIP: packet.NewIP(10, 0, 0, 1)}
	b := ConnID{VNI: 1, QPN: 1, SrcVIP: packet.NewIP(10, 10, 0, 1), DstVIP: packet.NewIP(10, 0, 0, 1)}
	// As strings "10.10..." < "10.9...", which is exactly the trap.
	if !connLess(a, b) || connLess(b, a) {
		t.Fatal("connLess must order by numeric octets")
	}
	if n := testing.AllocsPerRun(100, func() { connLess(a, b) }); n != 0 {
		t.Fatalf("connLess allocates %.1f objects per comparison", n)
	}
}

// TestRCTListsMatchTable drives a seeded mix of insert_conn (new and
// repeated IDs), single removals and delete_conn over a small ID space, so
// QPNs and endpoint pairs share entries, and after every step checks that
// each QPN's list and each pair's list hold exactly the table's entries for
// it, linked both ways.
func TestRCTListsMatchTable(t *testing.T) {
	eng := simtime.NewEngine()
	ct := NewRConntrack(nil)
	rng := rand.New(rand.NewSource(1))
	randID := func() ConnID {
		return ConnID{
			VNI:    uint32(100 + rng.Intn(2)),
			SrcVIP: packet.NewIP(10, 0, 0, byte(1+rng.Intn(3))),
			DstVIP: packet.NewIP(10, 0, 1, byte(1+rng.Intn(3))),
			QPN:    uint32(1 + rng.Intn(4)),
		}
	}
	check := func(step int) {
		byQPN := map[uint32]map[ConnID]bool{}
		byPair := map[uint32]map[vipPair]map[ConnID]bool{}
		for id := range ct.table {
			if byQPN[id.QPN] == nil {
				byQPN[id.QPN] = map[ConnID]bool{}
			}
			byQPN[id.QPN][id] = true
			if byPair[id.VNI] == nil {
				byPair[id.VNI] = map[vipPair]map[ConnID]bool{}
			}
			pp := vipPair{id.SrcVIP, id.DstVIP}
			if byPair[id.VNI][pp] == nil {
				byPair[id.VNI][pp] = map[ConnID]bool{}
			}
			byPair[id.VNI][pp][id] = true
		}
		if len(ct.byQPN) != len(byQPN) {
			t.Fatalf("step %d: %d QPN lists, want %d", step, len(ct.byQPN), len(byQPN))
		}
		for qpn, head := range ct.byQPN {
			n := 0
			for c := head; c != nil; c = c.qpNext {
				if !byQPN[qpn][c.id] || ct.table[c.id] != c {
					t.Fatalf("step %d: QPN %d lists %v, which the table does not hold", step, qpn, c.id)
				}
				n++
			}
			if n != len(byQPN[qpn]) {
				t.Fatalf("step %d: QPN %d lists %d entries, want %d", step, qpn, n, len(byQPN[qpn]))
			}
		}
		for vni, pairs := range ct.byPair {
			if len(pairs) != len(byPair[vni]) {
				t.Fatalf("step %d: VNI %d has %d pair lists, want %d", step, vni, len(pairs), len(byPair[vni]))
			}
			for pp, head := range pairs {
				n := 0
				var prev *trackedConn
				for c := head; c != nil; prev, c = c, c.pairNext {
					if c.pairPrev != prev || !byPair[vni][pp][c.id] || ct.table[c.id] != c {
						t.Fatalf("step %d: VNI %d pair %v lists %v out of place", step, vni, pp, c.id)
					}
					n++
				}
				if n != len(byPair[vni][pp]) {
					t.Fatalf("step %d: VNI %d pair %v lists %d entries, want %d", step, vni, pp, n, len(byPair[vni][pp]))
				}
			}
		}
	}
	eng.Spawn("backend", func(p *simtime.Proc) {
		for step := 0; step < 2000; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				ct.Insert(p, randID(), nil)
			case 2:
				ct.remove(randID())
			case 3:
				ct.Delete(p, uint32(1+rng.Intn(4)))
			}
			check(step)
		}
	})
	eng.Run()
}
