package masq

// Controller-outage survival at the backend level: grace-mode renames,
// post-outage re-validation, and the lease-renewal audit that repairs
// dropped push notifications. The cluster-level TestCtrlCrashSoak runs the
// same machinery under live traffic; these tests pin the exact state
// transitions.

import (
	"testing"

	"masq/internal/controller"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// TestGraceConnSurvivesOutageAndStaysWatched establishes a connection
// while the controller is dark — served from the grace cache — and checks
// the full aftermath: once the controller restarts, the reconcile process
// re-validates the connection (mapping unchanged → it lives), and the
// RConntrack Watch subscription is still in force, so a later rule
// revocation resets the very same connection.
func TestGraceConnSurvivesOutageAndStaysWatched(t *testing.T) {
	b := newBed(t, ModeVF)
	tenant := b.fab.Tenant(100)
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	rule := tenant.Policy.AddRule(overlay.Rule{
		Priority: 1, Proto: overlay.ProtoAny, Src: all, Dst: all, Action: overlay.Allow,
	})
	b.be.P.PushDown = true
	b.be.P.GraceTTL = simtime.Ms(10)
	b.be.P.LeaseRenewEvery = simtime.Us(200)

	vm1, err := b.host.NewVM("vm1", 1<<30, 100, packet.NewIP(192, 168, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	fe1, err := b.be.NewFrontend(vm1, 100)
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := b.host.NewVM("vm2", 1<<30, 100, packet.NewIP(192, 168, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.be.NewFrontend(vm2, 100); err != nil {
		t.Fatal(err)
	}
	b.be.StartLeaseRenewal(simtime.Time(simtime.Ms(20)))

	// Outage window [1ms, 6ms): the failed lease renewal inside it is what
	// marks the controller down and arms grace mode.
	b.eng.At(simtime.Time(simtime.Ms(1)), b.ctrl.Crash)
	b.eng.At(simtime.Time(simtime.Ms(6)), b.ctrl.Restart)

	done := simtime.NewEvent[error](b.eng)
	var qp verbs.QP
	b.eng.Spawn("connect-in-the-dark", func(p *simtime.Proc) {
		p.Sleep(simtime.Ms(3)) // mid-outage, after a renewal has timed out
		if !b.be.CtrlDown() {
			t.Error("backend has not detected the outage")
		}
		dev, err := fe1.Open(p)
		if err != nil {
			done.Trigger(err)
			return
		}
		pd, _ := dev.AllocPD(p)
		cq, _ := dev.CreateCQ(p, 8)
		qp, _ = dev.CreateQP(p, pd, cq, cq, rnic.RC, rnic.QPCaps{MaxSendWR: 4, MaxRecvWR: 4})
		if err := qp.Modify(p, verbs.Attr{ToState: rnic.StateInit}); err != nil {
			done.Trigger(err)
			return
		}
		done.Trigger(qp.Modify(p, verbs.Attr{
			ToState: rnic.StateRTR,
			DGID:    packet.GIDFromIP(packet.NewIP(192, 168, 1, 2)),
			DQPN:    9,
		}))
	})
	b.eng.Run()
	if err := done.Value(); err != nil {
		t.Fatalf("RTR during the outage failed despite a fresh cache entry: %v", err)
	}
	if b.be.Stats.GraceRenames == 0 {
		t.Fatal("the rename was not served from the grace cache")
	}
	if b.be.Stats.GraceRevalidated != 1 || b.be.Stats.GraceResets != 0 {
		t.Fatalf("revalidated/resets = %d/%d, want 1/0",
			b.be.Stats.GraceRevalidated, b.be.Stats.GraceResets)
	}
	if b.be.Stats.EpochBumps != 1 || b.be.Epoch() != 2 {
		t.Fatalf("epoch bumps/epoch = %d/%d, want 1/2", b.be.Stats.EpochBumps, b.be.Epoch())
	}
	if got := qp.State(); got != rnic.StateRTR {
		t.Fatalf("re-validated connection is in state %v, want RTR", got)
	}
	if len(b.be.CT.Conns()) != 1 {
		t.Fatalf("RCT holds %d entries, want 1", len(b.be.CT.Conns()))
	}

	// The connection was established during the outage and re-validated
	// after it — but it must still be subject to the security policy: the
	// Watch subscription survives the whole episode.
	tenant.Policy.RemoveRule(rule)
	b.eng.Run()
	if got := qp.State(); got != rnic.StateError {
		t.Fatalf("rule revocation left the grace connection in state %v, want ERROR", got)
	}
	if b.be.CT.Stats.Resets != 1 || len(b.be.CT.Conns()) != 0 {
		t.Fatalf("resets=%d conns=%d, want 1/0", b.be.CT.Stats.Resets, len(b.be.CT.Conns()))
	}
}

// TestLeaseAuditRepairsDroppedNotification drops a push notification in
// flight and checks that the lease-renewal audit notices — the
// subscription's send sequence is ahead of everything delivered while the
// queue is empty — and schedules a resync that lands the lost mapping in
// the cache anyway.
func TestLeaseAuditRepairsDroppedNotification(t *testing.T) {
	b := newBed(t, ModeVF)
	b.allowAll(t, 100)
	b.be.P.PushDown = true
	b.be.P.LeaseRenewEvery = simtime.Us(500)

	vm1, err := b.host.NewVM("vm1", 1<<30, 100, packet.NewIP(192, 168, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.be.NewFrontend(vm1, 100); err != nil {
		t.Fatal(err)
	}
	b.be.StartLeaseRenewal(simtime.Time(simtime.Ms(10)))

	// A remote endpoint registers at 2ms, but the push announcing it is
	// lost in flight. Without the audit the backend would never hear of it.
	peer := controller.Key{VNI: 100, VGID: packet.GIDFromIP(packet.NewIP(192, 168, 1, 7))}
	mapping := controller.Mapping{PIP: packet.NewIP(172, 16, 0, 9), PMAC: packet.MAC{2, 0, 0, 0, 0, 9}}
	b.eng.At(simtime.Time(simtime.Ms(2)), func() {
		b.ctrl.P.NotifyDropProb = 1
		b.ctrl.Register(peer, mapping)
		b.ctrl.P.NotifyDropProb = 0
	})
	b.eng.Run()

	if b.ctrl.Stats.NotifyDropped != 1 {
		t.Fatalf("dropped notifications = %d, want 1", b.ctrl.Stats.NotifyDropped)
	}
	if b.be.Stats.NotifyGaps == 0 {
		t.Fatal("the lease audit never detected the lost push")
	}
	// One resync seeds the cache at frontend creation; the repair adds at
	// least one more.
	if b.be.Stats.Resyncs < 2 {
		t.Fatalf("resyncs = %d, want >= 2 (seed + repair)", b.be.Stats.Resyncs)
	}
	if got, ok := b.be.CacheSnapshot()[peer]; !ok || got != mapping {
		t.Fatalf("repaired cache entry = %+v, %v; want %+v", got, ok, mapping)
	}
}

// TestLeaseAuditIgnoresPushInDelivery: a push the delivery process has
// taken off the queue but not yet applied — it is still in its
// NotifyDelay — is late, not lost. Lease rounds that end in that window
// must not count a gap or trigger a resync.
func TestLeaseAuditIgnoresPushInDelivery(t *testing.T) {
	b := newBed(t, ModeVF)
	b.allowAll(t, 100)
	b.be.P.PushDown = true
	b.be.P.LeaseRenewEvery = simtime.Us(200)
	b.ctrl.P.NotifyDelay = simtime.Us(50)

	vm1, err := b.host.NewVM("vm1", 1<<30, 100, packet.NewIP(192, 168, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.be.NewFrontend(vm1, 100); err != nil {
		t.Fatal(err)
	}
	b.be.StartLeaseRenewal(simtime.Time(simtime.Ms(10)))

	// Twenty remote endpoints register, 130µs apart; every push is
	// delivered, 50µs after it is sent.
	want := make(map[controller.Key]controller.Mapping)
	for i := 0; i < 20; i++ {
		k := controller.Key{VNI: 100, VGID: packet.GIDFromIP(packet.NewIP(192, 168, 2, byte(i+1)))}
		m := controller.Mapping{PIP: packet.NewIP(172, 16, 1, byte(i+1)), PMAC: packet.MAC{2, 0, 0, 0, 1, byte(i + 1)}}
		want[k] = m
		at := simtime.Time(simtime.Ms(1) + simtime.Duration(i)*simtime.Us(130))
		b.eng.At(at, func() { b.ctrl.Register(k, m) })
	}
	b.eng.Run()

	if b.ctrl.Stats.NotifyDropped != 0 {
		t.Fatalf("dropped notifications = %d, want 0", b.ctrl.Stats.NotifyDropped)
	}
	if b.be.Stats.NotifyGaps != 0 {
		t.Fatalf("the lease audit counted %d gaps, but no push was lost", b.be.Stats.NotifyGaps)
	}
	if b.be.Stats.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1 (the push-down seed only)", b.be.Stats.Resyncs)
	}
	cache := b.be.CacheSnapshot()
	for k, m := range want {
		if got, ok := cache[k]; !ok || got != m {
			t.Fatalf("cache entry for %v = %+v, %v; want %+v", k.VGID, got, ok, m)
		}
	}
}
