package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/simtime"
)

// ruleEngineFingerprint runs the canonical MasQ scenario — traced pair
// setup, an extra QP, then a deny-all rule change that forces enforcement
// to reset every connection — and renders everything observable about the
// run: the final virtual clock, the full cross-layer trace aggregate, and
// the RCT outcome counters. Mode-dependent scan counters (incremental vs
// full vs skipped) are deliberately excluded: they describe how the work
// was found, not what the simulation did.
func ruleEngineFingerprint(t *testing.T, linear bool) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Trace = true
	tb := New(cfg)
	tb.AddTenant(vni, "tenant").SetLinear(linear)
	tb.AllowAll(vni)
	cp := &ConnectedPair{TB: tb}
	var err error
	if cp.ClientNode, err = tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(192, 168, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if cp.ServerNode, err = tb.NewNode(ModeMasQ, 1, vni, packet.NewIP(192, 168, 1, 2)); err != nil {
		t.Fatal(err)
	}
	for _, port := range []uint16{7000, 7100} {
		if _, _, err := cp.ConnectExtraQP(DefaultEndpointOpts(), port); err != nil {
			t.Fatal(err)
		}
	}
	tb.Eng.Spawn("revoke", func(p *simtime.Proc) {
		all := packet.CIDR{}
		tb.Fab.Tenant(vni).Policy.AddRule(overlay.Rule{
			Priority: 90, Proto: overlay.ProtoAny, Src: all, Dst: all, Action: overlay.Deny,
		})
	})
	tb.Eng.Run()

	var sb strings.Builder
	fmt.Fprintf(&sb, "now=%d events=%d\n", tb.Eng.Now(), tb.Eng.Events())
	for _, row := range tb.Trace.Aggregate() {
		fmt.Fprintf(&sb, "agg %s %s %d %d %d\n", row.Actor, row.Verb, row.Layer, row.Count, row.Self)
	}
	for hi, be := range tb.Backends {
		if be == nil {
			continue
		}
		s := be.CT.Stats
		fmt.Fprintf(&sb, "host%d validated=%d denied=%d inserted=%d deleted=%d resets=%d hits=%d misses=%d revalidated=%d\n",
			hi, s.Validated, s.Denied, s.Inserted, s.Deleted, s.Resets, s.VerdictHits, s.VerdictMisses, s.Revalidated)
		conns := be.CT.Conns()
		sort.Slice(conns, func(a, b int) bool { return conns[a].String() < conns[b].String() })
		fmt.Fprintf(&sb, "host%d conns=%v\n", hi, conns)
	}
	return sb.String()
}

// TestRuleEngineTraceByteIdentical is the determinism guard for the
// indexed rule engine: the default-mode cluster trace — every span, every
// virtual timestamp, every RCT outcome — must be byte-identical with the
// decision index on and off. The index may only change how fast verdicts
// are found at scale, never what the simulation observes in the canonical
// single-rule scenarios.
func TestRuleEngineTraceByteIdentical(t *testing.T) {
	indexed := ruleEngineFingerprint(t, false)
	linear := ruleEngineFingerprint(t, true)
	if indexed != linear {
		t.Fatalf("cluster trace diverges between indexed and linear rule engines:\n--- indexed ---\n%s\n--- linear ---\n%s", indexed, linear)
	}
}
