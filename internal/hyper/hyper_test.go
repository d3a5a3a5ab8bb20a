package hyper

import (
	"bytes"
	"errors"
	"testing"

	"masq/internal/mem"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
)

func newHost(t *testing.T, eng *simtime.Engine, memBytes uint64) *Host {
	t.Helper()
	fab := overlay.NewFabric()
	fab.AddTenant(100, "t")
	h := NewHost(eng, HostConfig{
		Name: "h0", IP: packet.NewIP(172, 16, 0, 1), MAC: packet.MAC{2, 0, 0, 0, 0, 1},
		MemBytes: memBytes, RNIC: rnic.DefaultParams(),
		Fabric:      fab,
		ResolveHost: func(packet.IP) (packet.MAC, bool) { return packet.MAC{}, false },
	})
	return h
}

func TestVMMemoryAccounting(t *testing.T) {
	eng := simtime.NewEngine()
	h := newHost(t, eng, 2<<30)
	vm, err := h.NewVM("vm0", 1<<30, 100, packet.NewIP(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(1<<30) + vmMemOverhead
	if h.Phys.Reserved() != want {
		t.Fatalf("reserved = %d, want %d", h.Phys.Reserved(), want)
	}
	if h.VMs() != 1 {
		t.Fatalf("VMs = %d", h.VMs())
	}
	vm.Shutdown()
	if h.Phys.Reserved() != 0 || h.VMs() != 0 {
		t.Fatalf("shutdown did not release: reserved=%d vms=%d", h.Phys.Reserved(), h.VMs())
	}
}

func TestVMBootFailsWhenHostFull(t *testing.T) {
	eng := simtime.NewEngine()
	h := newHost(t, eng, 1<<30)
	if _, err := h.NewVM("big", 2<<30, 100, packet.NewIP(10, 0, 0, 1)); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("err = %v, want out of memory", err)
	}
}

func TestTable5Capacity(t *testing.T) {
	eng := simtime.NewEngine()
	h := newHost(t, eng, 96<<30)
	n := 0
	for {
		_, err := h.NewVM("vm", 512<<20, 100, packet.NewIP(10, byte(n>>8), byte(n), 1))
		if err != nil {
			break
		}
		n++
	}
	if n < 150 || n > 170 {
		t.Fatalf("max 512MB VMs on a 96GB host = %d, want ≈160 (Table 5)", n)
	}
}

func TestGuestMemoryIsolatedAndLayered(t *testing.T) {
	eng := simtime.NewEngine()
	h := newHost(t, eng, 8<<30)
	vm1, err := h.NewVM("vm1", 1<<30, 100, packet.NewIP(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := h.NewVM("vm2", 1<<30, 100, packet.NewIP(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	va1, _ := vm1.GVA.Alloc(4096)
	va2, _ := vm2.GVA.Alloc(4096)
	vm1.GVA.Write(va1, []byte("vm1 data"))
	vm2.GVA.Write(va2, []byte("vm2 data"))
	b := make([]byte, 8)
	vm1.GVA.Read(va1, b)
	if !bytes.Equal(b, []byte("vm1 data")) {
		t.Fatalf("vm1 read %q", b)
	}
	// The same GVA in vm2 must hold vm2's bytes (separate page tables).
	vm2.GVA.Read(va2, b)
	if !bytes.Equal(b, []byte("vm2 data")) {
		t.Fatalf("vm2 read %q", b)
	}
	// The pinning walk reaches distinct physical pages.
	e1, err := vm1.GVA.PinToPhys(va1, 8)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := vm2.GVA.PinToPhys(va2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if e1[0].Addr == e2[0].Addr {
		t.Fatal("two VMs share a physical page")
	}
	got := make([]byte, 8)
	h.Phys.Read(e1[0].Addr, got)
	if !bytes.Equal(got, []byte("vm1 data")) {
		t.Fatalf("phys read %q", got)
	}
}

func TestVMComputeSlowdown(t *testing.T) {
	eng := simtime.NewEngine()
	h := newHost(t, eng, 8<<30)
	vm, _ := h.NewVM("vm", 1<<30, 100, packet.NewIP(10, 0, 0, 1))
	c, err := h.NewContainer("ctr", 100, packet.NewIP(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	var vmT, ctrT simtime.Duration
	eng.Spawn("vm", func(p *simtime.Proc) {
		s := p.Now()
		vm.Compute(p, simtime.Ms(100))
		vmT = p.Now().Sub(s)
	})
	eng.Spawn("ctr", func(p *simtime.Proc) {
		s := p.Now()
		c.Compute(p, simtime.Ms(100))
		ctrT = p.Now().Sub(s)
	})
	eng.Run()
	if ctrT != simtime.Ms(100) {
		t.Fatalf("container compute = %v", ctrT)
	}
	if vmT <= ctrT {
		t.Fatalf("VM compute (%v) must be slower than container (%v)", vmT, ctrT)
	}
}

func TestContainerUsesHostAddressSpace(t *testing.T) {
	eng := simtime.NewEngine()
	h := newHost(t, eng, 8<<30)
	c, err := h.NewContainer("ctr", 100, packet.NewIP(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if c.GVA != h.HVA {
		t.Fatal("container memory must be host userspace (no nested translation)")
	}
	if before := h.Phys.Reserved(); before != 0 {
		t.Fatalf("container reserved %d bytes", before)
	}
}
