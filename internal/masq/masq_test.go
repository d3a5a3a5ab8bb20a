package masq

import (
	"errors"
	"strings"
	"testing"

	"masq/internal/controller"
	"masq/internal/hyper"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// bed is a single-host fixture exercising the backend machinery directly.
// svc is the one-shard controller service the backend talks to; ctrl is
// its primary, for stats, fault plans and crashes.
type bed struct {
	eng  *simtime.Engine
	fab  *overlay.Fabric
	svc  *controller.Sharded
	ctrl *controller.Controller
	host *hyper.Host
	be   *Backend
}

func newBed(t *testing.T, mode Mode) *bed {
	t.Helper()
	eng := simtime.NewEngine()
	fab := overlay.NewFabric(eng, overlay.DefaultParams())
	fab.AddTenant(100, "acme")
	svc := controller.NewSharded([]*simtime.Engine{eng}, controller.DefaultParams(), 1)
	host := hyper.NewHost(eng, hyper.HostConfig{
		Name: "h0", IP: packet.NewIP(172, 16, 0, 1), MAC: packet.MAC{2, 0, 0, 0, 0, 1},
		MemBytes: 32 << 30, RNIC: rnic.DefaultParams(), Hyper: hyper.DefaultParams(),
		Fabric:      fab,
		ResolveHost: func(packet.IP) (packet.MAC, bool) { return packet.MAC{}, false },
	})
	return &bed{eng: eng, fab: fab, svc: svc, ctrl: svc.Primary(0), host: host,
		be: NewBackend(host, svc, fab, DefaultParams(), mode)}
}

func (b *bed) allowAll(t *testing.T, vni uint32) {
	t.Helper()
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	b.fab.Tenant(vni).Policy.AddRule(overlay.Rule{Priority: 1, Proto: overlay.ProtoAny, Src: all, Dst: all, Action: overlay.Allow})
}

func TestVBondRegistersOnCreation(t *testing.T) {
	b := newBed(t, ModeVF)
	vm, err := b.host.NewVM("vm0", 1<<30, 100, packet.NewIP(192, 168, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	vb := NewVBond(100, vm.VNIC, b.svc, b.be.physIdentity())
	if ip, _ := vb.GID().IP(); ip != packet.NewIP(192, 168, 1, 1) {
		t.Fatalf("vGID embeds %v", ip)
	}
	var m controller.Mapping
	var ok bool
	b.eng.Spawn("q", func(p *simtime.Proc) {
		m, ok, _ = b.ctrl.Lookup(p, controller.Key{VNI: 100, VGID: vb.GID()})
	})
	b.eng.Run()
	if !ok || m.PIP != b.host.IP {
		t.Fatalf("controller mapping = %+v, %v", m, ok)
	}
}

func TestVBondTracksIPChange(t *testing.T) {
	b := newBed(t, ModeVF)
	vm, _ := b.host.NewVM("vm0", 1<<30, 100, packet.NewIP(192, 168, 1, 1))
	vb := NewVBond(100, vm.VNIC, b.svc, b.be.physIdentity())
	oldGID := vb.GID()
	if err := vm.VNIC.SetIP(packet.NewIP(192, 168, 1, 42)); err != nil {
		t.Fatal(err)
	}
	if vb.GID() == oldGID {
		t.Fatal("vGID did not follow the IP change")
	}
	var oldOK, newOK bool
	b.eng.Spawn("q", func(p *simtime.Proc) {
		_, oldOK, _ = b.ctrl.Lookup(p, controller.Key{VNI: 100, VGID: oldGID})
		_, newOK, _ = b.ctrl.Lookup(p, controller.Key{VNI: 100, VGID: vb.GID()})
	})
	b.eng.Run()
	if oldOK {
		t.Error("stale vGID mapping lingers in the controller")
	}
	if !newOK {
		t.Error("new vGID not registered")
	}
}

func TestResolveGIDCachesAfterFirstQuery(t *testing.T) {
	b := newBed(t, ModeVF)
	vgid := packet.GIDFromIP(packet.NewIP(192, 168, 1, 2))
	b.ctrl.Register(controller.Key{VNI: 100, VGID: vgid}, controller.Mapping{PIP: packet.NewIP(172, 16, 0, 2)})
	var first, second simtime.Duration
	b.eng.Spawn("r", func(p *simtime.Proc) {
		s := p.Now()
		if _, _, err := b.be.resolveGID(p, 100, vgid); err != nil {
			t.Error(err)
		}
		first = p.Now().Sub(s)
		s = p.Now()
		if _, _, err := b.be.resolveGID(p, 100, vgid); err != nil {
			t.Error(err)
		}
		second = p.Now().Sub(s)
	})
	b.eng.Run()
	// Miss pays cache lookup + controller RTT; hit only the lookup.
	if first != simtime.Us(102) {
		t.Errorf("first resolve = %v, want 102µs", first)
	}
	if second != simtime.Us(2) {
		t.Errorf("cached resolve = %v, want 2µs", second)
	}
	if b.be.Stats.CacheMisses != 1 || b.be.Stats.CacheHits != 1 {
		t.Errorf("stats = %+v", b.be.Stats)
	}
}

func TestPushDownAvoidsFirstMiss(t *testing.T) {
	b := newBed(t, ModeVF)
	b.be.P.PushDown = true
	vgid := packet.GIDFromIP(packet.NewIP(192, 168, 1, 2))
	// Registration AFTER backend creation: push-down delivers it.
	b.ctrl.Register(controller.Key{VNI: 100, VGID: vgid}, controller.Mapping{PIP: packet.NewIP(172, 16, 0, 2)})
	var dur simtime.Duration
	b.eng.Spawn("r", func(p *simtime.Proc) {
		s := p.Now()
		if _, _, err := b.be.resolveGID(p, 100, vgid); err != nil {
			t.Error(err)
		}
		dur = p.Now().Sub(s)
	})
	b.eng.Run()
	if dur != simtime.Us(2) {
		t.Fatalf("push-down resolve = %v, want 2µs (no controller round trip)", dur)
	}
	if b.be.Stats.CacheMisses != 0 {
		t.Fatalf("misses = %d", b.be.Stats.CacheMisses)
	}
}

func TestCacheInvalidatedOnUnregister(t *testing.T) {
	b := newBed(t, ModeVF)
	vgid := packet.GIDFromIP(packet.NewIP(192, 168, 1, 2))
	k := controller.Key{VNI: 100, VGID: vgid}
	b.ctrl.Register(k, controller.Mapping{PIP: packet.NewIP(172, 16, 0, 2)})
	var err2 error
	b.eng.Spawn("r", func(p *simtime.Proc) {
		if _, _, err := b.be.resolveGID(p, 100, vgid); err != nil {
			t.Error(err)
			return
		}
		b.ctrl.Unregister(k) // e.g. VM destroyed
		_, _, err2 = b.be.resolveGID(p, 100, vgid)
	})
	b.eng.Run()
	if err2 == nil {
		t.Fatal("stale cache entry served after unregister")
	}
}

func TestCacheRefreshedOnRemap(t *testing.T) {
	b := newBed(t, ModeVF)
	vgid := packet.GIDFromIP(packet.NewIP(192, 168, 1, 2))
	k := controller.Key{VNI: 100, VGID: vgid}
	b.ctrl.Register(k, controller.Mapping{PIP: packet.NewIP(172, 16, 0, 2)})
	var m controller.Mapping
	b.eng.Spawn("r", func(p *simtime.Proc) {
		b.be.resolveGID(p, 100, vgid) // populate cache
		// Endpoint migrates to another host; controller pushes the update.
		b.ctrl.Register(k, controller.Mapping{PIP: packet.NewIP(172, 16, 0, 9)})
		m, _, _ = b.be.resolveGID(p, 100, vgid)
	})
	b.eng.Run()
	if m.PIP != packet.NewIP(172, 16, 0, 9) {
		t.Fatalf("cached mapping not refreshed: %+v", m)
	}
}

// TestPushDownSeedsPreexistingMappings: a backend created AFTER tenants
// registered their endpoints must still start with a full cache in
// push-down mode — the subscription only covers future registrations, so
// the cache is seeded from Controller.Dump at frontend creation.
func TestPushDownSeedsPreexistingMappings(t *testing.T) {
	b := newBed(t, ModeVF)
	b.allowAll(t, 100)
	vgid := packet.GIDFromIP(packet.NewIP(192, 168, 1, 2))
	k := controller.Key{VNI: 100, VGID: vgid}
	// Endpoint registered long before this host's backend exists.
	b.ctrl.Register(k, controller.Mapping{PIP: packet.NewIP(172, 16, 0, 2)})
	b.eng.Run() // drain notifications owed to the fixture backend

	p := DefaultParams()
	p.PushDown = true
	be2 := NewBackend(b.host, b.svc, b.fab, p, ModeVF)
	vm, err := b.host.NewVM("late-vm", 1<<30, 100, packet.NewIP(192, 168, 1, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be2.NewFrontend(vm, 100); err != nil {
		t.Fatal(err)
	}
	b.eng.Run() // push-down seeding is an async FetchDump now: let it land
	queriesBefore := b.ctrl.Stats.Queries
	var m controller.Mapping
	var rerr error
	b.eng.Spawn("r", func(p *simtime.Proc) {
		m, _, rerr = be2.resolveGID(p, 100, vgid)
	})
	b.eng.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if m.PIP != packet.NewIP(172, 16, 0, 2) {
		t.Fatalf("seeded mapping = %+v", m)
	}
	if be2.Stats.CacheMisses != 0 {
		t.Fatalf("cache misses = %d, want 0 (push-down must pre-populate)", be2.Stats.CacheMisses)
	}
	if b.ctrl.Stats.Queries != queriesBefore {
		t.Fatalf("resolution queried the controller (%d → %d queries)", queriesBefore, b.ctrl.Stats.Queries)
	}
}

// TestModifyQPRejectsMalformedRTR: an RC QP moved to RTR with a missing
// DQPN or a zero DGID must fail loudly instead of being programmed with no
// address vector.
func TestModifyQPRejectsMalformedRTR(t *testing.T) {
	b, fe := frontendBed(t)
	done := simtime.NewEvent[error](b.eng)
	var errNoQPN, errNoGID error
	b.eng.Spawn("rtr", func(p *simtime.Proc) {
		dev, _ := fe.Open(p)
		pd, _ := dev.AllocPD(p)
		cq, _ := dev.CreateCQ(p, 8)
		qp, _ := dev.CreateQP(p, pd, cq, cq, rnic.RC, rnic.QPCaps{MaxSendWR: 4, MaxRecvWR: 4})
		qp.Modify(p, verbs.Attr{ToState: rnic.StateInit})
		errNoQPN = qp.Modify(p, verbs.Attr{
			ToState: rnic.StateRTR,
			DGID:    packet.GIDFromIP(packet.NewIP(192, 168, 1, 2)),
			// DQPN omitted
		})
		errNoGID = qp.Modify(p, verbs.Attr{ToState: rnic.StateRTR, DQPN: 7 /* DGID omitted */})
		if qp.State() != rnic.StateInit {
			done.Trigger(errDesc("QP left INIT despite malformed RTR"))
			return
		}
		done.Trigger(nil)
	})
	b.eng.Run()
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
	if errNoQPN == nil || !strings.Contains(errNoQPN.Error(), "malformed") {
		t.Errorf("RTR without DQPN: err = %v, want malformed-address-vector error", errNoQPN)
	}
	if errNoGID == nil || !strings.Contains(errNoGID.Error(), "malformed") {
		t.Errorf("RTR without DGID: err = %v, want malformed-address-vector error", errNoGID)
	}
}

// TestUDRTRWithoutRemoteStillAllowed pins the UD semantics: datagram QPs
// name their destination per WQE, so RTR needs no address vector.
func TestUDRTRWithoutRemoteStillAllowed(t *testing.T) {
	b, fe := frontendBed(t)
	done := simtime.NewEvent[error](b.eng)
	b.eng.Spawn("ud", func(p *simtime.Proc) {
		dev, _ := fe.Open(p)
		pd, _ := dev.AllocPD(p)
		cq, _ := dev.CreateCQ(p, 8)
		qp, _ := dev.CreateQP(p, pd, cq, cq, rnic.UD, rnic.QPCaps{MaxSendWR: 4, MaxRecvWR: 4})
		qp.Modify(p, verbs.Attr{ToState: rnic.StateInit})
		done.Trigger(qp.Modify(p, verbs.Attr{ToState: rnic.StateRTR, QKey: 0x1234}))
	})
	b.eng.Run()
	if err := done.Value(); err != nil {
		t.Fatalf("UD RTR without remote rejected: %v", err)
	}
}

// TestResolveGIDRetriesThroughOutage: with the controller unavailable,
// resolveGID backs off and retries; once the window ends the lookup
// succeeds, so the caller never sees the outage.
func TestResolveGIDRetriesThroughOutage(t *testing.T) {
	b := newBed(t, ModeVF)
	vgid := packet.GIDFromIP(packet.NewIP(192, 168, 1, 2))
	k := controller.Key{VNI: 100, VGID: vgid}
	b.ctrl.Register(k, controller.Mapping{PIP: packet.NewIP(172, 16, 0, 2)})
	b.eng.Run()
	b.ctrl.SetFaultPlan(controller.FaultPlan{
		Unavailable: []controller.Window{{Start: 0, End: simtime.Time(simtime.Ms(1))}},
	})
	var m controller.Mapping
	var err error
	b.eng.Spawn("r", func(p *simtime.Proc) {
		m, _, err = b.be.resolveGID(p, 100, vgid)
	})
	b.eng.Run()
	if err != nil {
		t.Fatalf("resolve through outage failed: %v", err)
	}
	if m.PIP != packet.NewIP(172, 16, 0, 2) {
		t.Fatalf("mapping = %+v", m)
	}
	if b.be.Stats.QueryRetries == 0 {
		t.Fatal("no retries recorded — the outage was never hit")
	}
	if b.ctrl.Stats.Timeouts == 0 {
		t.Fatal("controller saw no timeouts")
	}
}

// TestResolveGIDFailsAfterRetryBudget: a controller that never answers
// exhausts the retry budget and surfaces ErrUnavailable.
func TestResolveGIDFailsAfterRetryBudget(t *testing.T) {
	b := newBed(t, ModeVF)
	vgid := packet.GIDFromIP(packet.NewIP(192, 168, 1, 2))
	b.ctrl.Register(controller.Key{VNI: 100, VGID: vgid}, controller.Mapping{PIP: packet.NewIP(172, 16, 0, 2)})
	b.eng.Run()
	b.ctrl.SetFaultPlan(controller.FaultPlan{
		Unavailable: []controller.Window{{Start: 0, End: simtime.Time(simtime.Second)}},
	})
	var err error
	b.eng.Spawn("r", func(p *simtime.Proc) {
		_, _, err = b.be.resolveGID(p, 100, vgid)
	})
	b.eng.Run()
	if !errors.Is(err, controller.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable after retry budget", err)
	}
	if b.be.Stats.QueryFailures != 1 {
		t.Fatalf("failures = %d", b.be.Stats.QueryFailures)
	}
	if b.be.Stats.QueryRetries != uint64(DefaultParams().QueryRetries-1) {
		t.Fatalf("retries = %d, want %d", b.be.Stats.QueryRetries, DefaultParams().QueryRetries-1)
	}
}

func TestRConntrackValidateDeny(t *testing.T) {
	b := newBed(t, ModeVF)
	// Tenant policy: only 10.0.1.0/24 → 10.0.2.0/24 RDMA allowed.
	src, _ := packet.ParseCIDR("10.0.1.0/24")
	dst, _ := packet.ParseCIDR("10.0.2.0/24")
	tenant := b.fab.Tenant(100)
	tenant.Policy.AddRule(overlay.Rule{Priority: 10, Proto: overlay.ProtoRDMA, Src: src, Dst: dst, Action: overlay.Allow})
	ct := b.be.CT
	ct.Watch(tenant)
	var okErr, denyErr error
	b.eng.Spawn("v", func(p *simtime.Proc) {
		okErr = ct.Validate(p, ConnID{VNI: 100, SrcVIP: packet.NewIP(10, 0, 1, 5), DstVIP: packet.NewIP(10, 0, 2, 5), QPN: 1})
		denyErr = ct.Validate(p, ConnID{VNI: 100, SrcVIP: packet.NewIP(10, 0, 3, 5), DstVIP: packet.NewIP(10, 0, 2, 5), QPN: 2})
	})
	b.eng.Run()
	if okErr != nil {
		t.Errorf("allowed flow denied: %v", okErr)
	}
	if denyErr == nil || !strings.Contains(denyErr.Error(), "denied") {
		t.Errorf("deny err = %v", denyErr)
	}
	if ct.Stats.Denied != 1 {
		t.Errorf("denied = %d", ct.Stats.Denied)
	}
}

func TestRConntrackRuleUpdateResetsViolatingQPs(t *testing.T) {
	b := newBed(t, ModeVF)
	tenant := b.fab.Tenant(100)
	pol := tenant.Policy
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	rule := pol.AddRule(overlay.Rule{Priority: 1, Proto: overlay.ProtoAny, Src: all, Dst: all, Action: overlay.Allow})
	ct := b.be.CT
	ct.Watch(tenant)

	dev := b.host.Dev
	var qp *rnic.QP
	b.eng.Spawn("setup", func(p *simtime.Proc) {
		fn := dev.PF()
		pd := dev.AllocPD(p, fn)
		cq := dev.CreateCQ(p, fn, 16)
		qp = dev.CreateQP(p, fn, pd, cq, cq, rnic.RC, rnic.DefaultCaps())
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateInit})
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateRTR})
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateRTS})
		id := ConnID{VNI: 100, SrcVIP: packet.NewIP(10, 0, 0, 1), DstVIP: packet.NewIP(10, 0, 0, 2), QPN: qp.Num}
		ct.Insert(p, id, qp)
		// Revoke: the enforcement process must reset the QP.
		pol.RemoveRule(rule)
	})
	b.eng.Run()
	if qp.State() != rnic.StateError {
		t.Fatalf("QP state = %v, want ERROR after rule revocation", qp.State())
	}
	if ct.Stats.Resets != 1 {
		t.Fatalf("resets = %d", ct.Stats.Resets)
	}
	if len(ct.Conns()) != 0 {
		t.Fatalf("RCT table still holds %v", ct.Conns())
	}
}

func TestRConntrackRuleUpdateSparesAllowedConns(t *testing.T) {
	b := newBed(t, ModeVF)
	tenant := b.fab.Tenant(100)
	pol := tenant.Policy
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	pol.AddRule(overlay.Rule{Priority: 1, Proto: overlay.ProtoAny, Src: all, Dst: all, Action: overlay.Allow})
	ct := b.be.CT
	ct.Watch(tenant)
	dev := b.host.Dev
	var qp *rnic.QP
	b.eng.Spawn("setup", func(p *simtime.Proc) {
		fn := dev.PF()
		pd := dev.AllocPD(p, fn)
		cq := dev.CreateCQ(p, fn, 16)
		qp = dev.CreateQP(p, fn, pd, cq, cq, rnic.RC, rnic.DefaultCaps())
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateInit})
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateRTR})
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateRTS})
		ct.Insert(p, ConnID{VNI: 100, SrcVIP: packet.NewIP(10, 0, 0, 1), DstVIP: packet.NewIP(10, 0, 0, 2), QPN: qp.Num}, qp)
		// Add an unrelated deny rule for a different subnet.
		sub, _ := packet.ParseCIDR("10.9.0.0/16")
		pol.AddRule(overlay.Rule{Priority: 50, Proto: overlay.ProtoRDMA, Src: sub, Dst: sub, Action: overlay.Deny})
	})
	b.eng.Run()
	if qp.State() != rnic.StateRTS {
		t.Fatalf("allowed connection was reset (state %v)", qp.State())
	}
	if ct.Stats.Resets != 0 {
		t.Fatalf("resets = %d, want 0", ct.Stats.Resets)
	}
}

// TestRuleEnforcementSkipsDestroyedQP: rulesChanged snapshots its victims
// synchronously but enforces in a spawned process; a QP destroyed (and its
// RCT entry deleted) in between must not be reset through the stale
// pointer.
func TestRuleEnforcementSkipsDestroyedQP(t *testing.T) {
	b := newBed(t, ModeVF)
	tenant := b.fab.Tenant(100)
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	rule := tenant.Policy.AddRule(overlay.Rule{Priority: 1, Proto: overlay.ProtoAny, Src: all, Dst: all, Action: overlay.Allow})
	params := DefaultParams()
	params.InsertRuleCost = simtime.Us(50) // enforcement acts well after the destroy
	ct := NewRConntrack(params, b.host.Dev)
	ct.Watch(tenant)

	dev := b.host.Dev
	var qp *rnic.QP
	b.eng.Spawn("race", func(p *simtime.Proc) {
		fn := dev.PF()
		pd := dev.AllocPD(p, fn)
		cq := dev.CreateCQ(p, fn, 16)
		qp = dev.CreateQP(p, fn, pd, cq, cq, rnic.RC, rnic.DefaultCaps())
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateInit})
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateRTR})
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateRTS})
		id := ConnID{VNI: 100, SrcVIP: packet.NewIP(10, 0, 0, 1), DstVIP: packet.NewIP(10, 0, 0, 2), QPN: qp.Num}
		ct.Insert(p, id, qp)
		// Revoke the rule (snapshot taken now, enforcement in 50µs)...
		tenant.Policy.RemoveRule(rule)
		// ...then destroy the QP before enforcement fires.
		ct.Delete(p, qp.Num)
		dev.DestroyQP(p, qp)
	})
	b.eng.Run()
	if qp.State() == rnic.StateError {
		t.Fatal("enforcement reset a destroyed QP through a stale pointer")
	}
	if ct.Stats.Resets != 0 {
		t.Fatalf("resets = %d, want 0", ct.Stats.Resets)
	}
}

// TestDeleteRemovesAllEntriesForQPN: destroy_qp must clear every RCT entry
// the QPN owns, not just the first match found.
func TestDeleteRemovesAllEntriesForQPN(t *testing.T) {
	b := newBed(t, ModeVF)
	ct := b.be.CT
	dev := b.host.Dev
	b.eng.Spawn("fill", func(p *simtime.Proc) {
		fn := dev.PF()
		pd := dev.AllocPD(p, fn)
		cq := dev.CreateCQ(p, fn, 16)
		qp := dev.CreateQP(p, fn, pd, cq, cq, rnic.RC, rnic.DefaultCaps())
		other := dev.CreateQP(p, fn, pd, cq, cq, rnic.RC, rnic.DefaultCaps())
		src := packet.NewIP(10, 0, 0, 1)
		// The same QP was connected to two peers over its lifetime (RESET
		// → RTR cycles), leaving two RCT entries; a third entry belongs to
		// a different QP and must survive.
		ct.Insert(p, ConnID{VNI: 100, SrcVIP: src, DstVIP: packet.NewIP(10, 0, 0, 2), QPN: qp.Num}, qp)
		ct.Insert(p, ConnID{VNI: 100, SrcVIP: src, DstVIP: packet.NewIP(10, 0, 0, 3), QPN: qp.Num}, qp)
		ct.Insert(p, ConnID{VNI: 100, SrcVIP: src, DstVIP: packet.NewIP(10, 0, 0, 4), QPN: other.Num}, other)
		ct.Delete(p, qp.Num)
	})
	b.eng.Run()
	conns := ct.Conns()
	if len(conns) != 1 {
		t.Fatalf("RCT table = %v, want only the other QP's entry", conns)
	}
	if conns[0].DstVIP != packet.NewIP(10, 0, 0, 4) {
		t.Fatalf("survivor = %v", conns[0])
	}
	if ct.Stats.Deleted != 2 {
		t.Fatalf("deleted = %d, want 2", ct.Stats.Deleted)
	}
}

func TestQoSGroupingTenantToVF(t *testing.T) {
	b := newBed(t, ModeVF)
	fn1, err := b.be.fnFor(100)
	if err != nil {
		t.Fatal(err)
	}
	fn1b, _ := b.be.fnFor(100)
	if fn1 != fn1b {
		t.Fatal("same tenant must map to the same VF (QP grouping)")
	}
	b.fab.AddTenant(200, "globex")
	fn2, err := b.be.fnFor(200)
	if err != nil {
		t.Fatal(err)
	}
	if fn2 == fn1 {
		t.Fatal("distinct tenants must get distinct VFs")
	}
	if !fn1.IsVF() || fn1.IOMMU {
		t.Fatal("MasQ VFs must not use the IOMMU")
	}
	if fn1.IP != b.host.IP {
		t.Fatal("MasQ VFs keep the host's physical addressing")
	}
	if err := b.be.SetTenantRateLimit(100, 10e9); err != nil {
		t.Fatal(err)
	}
	if fn1.RateLimit() != 10e9 {
		t.Fatalf("rate limit = %v", fn1.RateLimit())
	}
}

func TestPFModeUsesPhysicalFunction(t *testing.T) {
	b := newBed(t, ModePF)
	fn, err := b.be.fnFor(100)
	if err != nil {
		t.Fatal(err)
	}
	if fn.IsVF() {
		t.Fatal("PF mode must place queues on the physical function")
	}
}

func TestModeString(t *testing.T) {
	if ModeVF.String() != "masq-vf" || ModePF.String() != "masq-pf" {
		t.Fatal("Mode.String")
	}
}

func TestTable4Costs(t *testing.T) {
	p := DefaultParams()
	if p.ValidConnCost != simtime.Us(2.5) || p.InsertConnCost != simtime.Us(1.5) ||
		p.DeleteConnCost != simtime.Us(1.5) || p.InsertRuleCost != simtime.Us(1.5) {
		t.Fatal("Table 4 basic-op costs drifted from the paper")
	}
}

// frontendBed boots a VM with a MasQ frontend on the single-host fixture.
func frontendBed(t *testing.T) (*bed, *Frontend) {
	t.Helper()
	b := newBed(t, ModeVF)
	b.allowAll(t, 100)
	vm, err := b.host.NewVM("vm0", 1<<30, 100, packet.NewIP(192, 168, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	fe, err := b.be.NewFrontend(vm, 100)
	if err != nil {
		t.Fatal(err)
	}
	return b, fe
}

func TestFrontendResourceLifecycle(t *testing.T) {
	b, fe := frontendBed(t)
	done := simtime.NewEvent[error](b.eng)
	b.eng.Spawn("lifecycle", func(p *simtime.Proc) {
		fail := func(err error) { done.Trigger(err) }
		dev, err := fe.Open(p)
		if err != nil {
			fail(err)
			return
		}
		pd, err := dev.AllocPD(p)
		if err != nil {
			fail(err)
			return
		}
		vm := fe.sess.vm
		va, _ := vm.GVA.Alloc(8192)
		mr, err := dev.RegMR(p, pd, va, 8192, rnic.AccessLocalWrite)
		if err != nil {
			fail(err)
			return
		}
		cq, err := dev.CreateCQ(p, 32)
		if err != nil {
			fail(err)
			return
		}
		qp, err := dev.CreateQP(p, pd, cq, cq, rnic.RC, rnic.QPCaps{MaxSendWR: 8, MaxRecvWR: 8})
		if err != nil {
			fail(err)
			return
		}
		// Guest memory is pinned while the MR lives.
		if !vm.GVA.Pinned() {
			fail(errDesc("MR registration did not pin guest memory"))
			return
		}
		// Tear everything down through the paravirtual path.
		if err := qp.Destroy(p); err != nil {
			fail(err)
			return
		}
		if err := mr.Dereg(p); err != nil {
			fail(err)
			return
		}
		if vm.GVA.Pinned() || vm.GPA.Pinned() {
			fail(errDesc("dereg left guest pages pinned"))
			return
		}
		if err := cq.Destroy(p); err != nil {
			fail(err)
			return
		}
		if err := dev.Close(p); err != nil {
			fail(err)
			return
		}
		done.Trigger(nil)
	})
	b.eng.Run()
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
}

type errDesc string

func (e errDesc) Error() string { return string(e) }

func TestFrontendRTRFailsWithoutMapping(t *testing.T) {
	b, fe := frontendBed(t)
	done := simtime.NewEvent[error](b.eng)
	b.eng.Spawn("rtr", func(p *simtime.Proc) {
		dev, _ := fe.Open(p)
		pd, _ := dev.AllocPD(p)
		cq, _ := dev.CreateCQ(p, 8)
		qp, _ := dev.CreateQP(p, pd, cq, cq, rnic.RC, rnic.QPCaps{MaxSendWR: 4, MaxRecvWR: 4})
		qp.Modify(p, verbs.Attr{ToState: rnic.StateInit})
		// Peer vGID that no vBond ever registered.
		err := qp.Modify(p, verbs.Attr{
			ToState: rnic.StateRTR,
			DGID:    packet.GIDFromIP(packet.NewIP(203, 0, 113, 9)),
			DQPN:    42,
		})
		done.Trigger(err)
	})
	b.eng.Run()
	if done.Value() == nil {
		t.Fatal("RTR to an unknown vGID succeeded")
	}
}

func TestFrontendNameAndVBond(t *testing.T) {
	_, fe := frontendBed(t)
	if fe.Name() != "masq-vf" {
		t.Fatalf("name = %q", fe.Name())
	}
	if fe.VBond() == nil || fe.VBond().VNI() != 100 {
		t.Fatal("VBond accessor")
	}
	if fe.VBond().MAC().IsZero() {
		t.Fatal("vBond must know the virtual MAC")
	}
}

func TestFrontendRequiresVNIC(t *testing.T) {
	b := newBed(t, ModeVF)
	vm := &hyper.VM{Name: "no-nic"}
	if _, err := b.be.NewFrontend(vm, 100); err == nil {
		t.Fatal("frontend without a vNIC accepted (nothing to bond)")
	}
}

func TestFrontendUnknownTenantRejected(t *testing.T) {
	b := newBed(t, ModeVF)
	vm, _ := b.host.NewVM("vm0", 1<<30, 100, packet.NewIP(192, 168, 1, 1))
	if _, err := b.be.NewFrontend(vm, 999); err == nil {
		t.Fatal("unknown tenant accepted")
	}
}
