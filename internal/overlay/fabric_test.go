package overlay

import (
	"testing"

	"masq/internal/packet"
	"masq/internal/simnet"
	"masq/internal/simtime"
)

func twoSwitchFabric(t *testing.T) (*simtime.Engine, *Fabric, *VSwitch, *VSwitch) {
	t.Helper()
	eng := simtime.NewEngine()
	fab := NewFabric()
	pa := simnet.NewPort(eng, "a")
	pb := simnet.NewPort(eng, "b")
	simnet.Connect(eng, pa, pb, simnet.Gbps(40), simtime.Us(0.1))
	resolve := func(ip packet.IP) (packet.MAC, bool) {
		switch ip {
		case packet.NewIP(172, 16, 0, 1):
			return packet.MAC{2, 0, 0, 0, 0, 1}, true
		case packet.NewIP(172, 16, 0, 2):
			return packet.MAC{2, 0, 0, 0, 0, 2}, true
		}
		return packet.MAC{}, false
	}
	swa := fab.NewVSwitch(eng, packet.NewIP(172, 16, 0, 1), packet.MAC{2, 0, 0, 0, 0, 1}, pa, resolve)
	swb := fab.NewVSwitch(eng, packet.NewIP(172, 16, 0, 2), packet.MAC{2, 0, 0, 0, 0, 2}, pb, resolve)
	return eng, fab, swa, swb
}

func TestAttachVMValidation(t *testing.T) {
	_, fab, swa, _ := twoSwitchFabric(t)
	if _, err := swa.AttachVM(999, packet.NewIP(10, 0, 0, 1)); err == nil {
		t.Fatal("unknown tenant accepted")
	}
	fab.AddTenant(1, "t")
	if _, err := swa.AttachVM(1, packet.NewIP(10, 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := swa.AttachVM(1, packet.NewIP(10, 0, 0, 1)); err == nil {
		t.Fatal("duplicate VIP accepted")
	}
}

func TestLookupReflectsAttachment(t *testing.T) {
	_, fab, swa, _ := twoSwitchFabric(t)
	fab.AddTenant(1, "t")
	vp, err := swa.AttachVM(1, packet.NewIP(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	ep := fab.Lookup(1, packet.NewIP(10, 0, 0, 1))
	if ep == nil || ep.HostIP != packet.NewIP(172, 16, 0, 1) || ep.VMAC != vp.EP.VMAC {
		t.Fatalf("lookup = %+v", ep)
	}
	if fab.Lookup(2, packet.NewIP(10, 0, 0, 1)) != nil {
		t.Fatal("lookup crossed tenants")
	}
	if fab.Tenant(1) == nil || fab.Tenant(7) != nil {
		t.Fatal("Tenant lookup")
	}
}

func TestMoveEndpointRehomes(t *testing.T) {
	_, fab, swa, swb := twoSwitchFabric(t)
	fab.AddTenant(1, "t")
	vp, _ := swa.AttachVM(1, packet.NewIP(10, 0, 0, 1))
	mac := vp.EP.VMAC
	if err := fab.MoveEndpoint(vp, swb); err != nil {
		t.Fatal(err)
	}
	ep := fab.Lookup(1, packet.NewIP(10, 0, 0, 1))
	if ep.HostIP != packet.NewIP(172, 16, 0, 2) {
		t.Fatalf("endpoint host = %v", ep.HostIP)
	}
	if ep.VMAC != mac {
		t.Fatal("virtual MAC changed across migration")
	}
	// Moving to the same switch is a no-op; moving a detached port fails.
	if err := fab.MoveEndpoint(vp, swb); err != nil {
		t.Fatal(err)
	}
	if err := fab.MoveEndpoint(&VMPort{EP: vp.EP, sw: swa}, swb); err == nil {
		t.Fatal("move of unattached port accepted")
	}
}

func TestEgressDropsCountedPerPort(t *testing.T) {
	eng, fab, swa, _ := twoSwitchFabric(t)
	fab.AddTenant(1, "t") // no rules: default deny
	vp, _ := swa.AttachVM(1, packet.NewIP(10, 0, 0, 1))
	frame := packet.Serialize(
		&packet.Ethernet{Dst: packet.MAC{2, 9, 9, 9, 9, 9}, Src: vp.EP.VMAC, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: packet.NewIP(10, 0, 0, 1), Dst: packet.NewIP(10, 0, 0, 2)},
		packet.Payload([]byte("blocked")),
	)
	vp.Send(simnet.Frame(frame))
	eng.Run()
	if vp.dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (default deny)", vp.dropped)
	}
	// Garbage frames also count as drops, not crashes.
	vp.Send(simnet.Frame([]byte{1, 2, 3}))
	eng.Run()
	if vp.dropped != 2 {
		t.Fatalf("dropped = %d, want 2", vp.dropped)
	}
}

func TestSetIPDuplicateRejected(t *testing.T) {
	_, fab, swa, _ := twoSwitchFabric(t)
	fab.AddTenant(1, "t")
	vp1, _ := swa.AttachVM(1, packet.NewIP(10, 0, 0, 1))
	swa.AttachVM(1, packet.NewIP(10, 0, 0, 2))
	if err := vp1.SetIP(packet.NewIP(10, 0, 0, 2)); err == nil {
		t.Fatal("duplicate IP accepted by SetIP")
	}
	if err := vp1.SetIP(packet.NewIP(10, 0, 0, 1)); err != nil {
		t.Fatal("no-op SetIP must succeed")
	}
}

func TestTenantTwoLevelAllows(t *testing.T) {
	_, fab, _, _ := twoSwitchFabric(t)
	tt := fab.AddTenant(1, "t")
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	tt.Policy.AddRule(Rule{Priority: 1, Proto: ProtoAny, Src: all, Dst: all, Action: Allow})
	src, dst := packet.NewIP(1, 1, 1, 1), packet.NewIP(2, 2, 2, 2)
	if !tt.Allows(ProtoRDMA, src, dst) {
		t.Fatal("SG-only stack should allow")
	}
	v1 := tt.RuleVersion()
	fw := tt.EnableFWaaS()
	if tt.Allows(ProtoRDMA, src, dst) {
		t.Fatal("empty firewall chain must default-deny")
	}
	fw.AddRule(Rule{Priority: 1, Proto: ProtoRDMA, Src: all, Dst: all, Action: Allow})
	if !tt.Allows(ProtoRDMA, src, dst) {
		t.Fatal("both levels allow; flow should pass")
	}
	if tt.RuleVersion() == v1 {
		t.Fatal("firewall change must bump the combined version")
	}
	if tt.RuleCount() != 2 {
		t.Fatalf("combined rule count = %d", tt.RuleCount())
	}
	if tt.EnableFWaaS() != fw {
		t.Fatal("EnableFWaaS must be idempotent")
	}
}
