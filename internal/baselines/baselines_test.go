// Package baselines_test exercises the three comparison providers directly
// at the verbs API, independent of the cluster fixture.
package baselines_test

import (
	"errors"
	"testing"

	"masq/internal/baselines/freeflow"
	"masq/internal/baselines/hostrdma"
	"masq/internal/baselines/sriov"
	"masq/internal/hyper"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simnet"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

type bed struct {
	eng    *simtime.Engine
	fab    *overlay.Fabric
	h0, h1 *hyper.Host
}

func newBed(t *testing.T) *bed {
	t.Helper()
	eng := simtime.NewEngine()
	fab := overlay.NewFabric()
	fab.AddTenant(1, "t")
	mk := func(name string, ip packet.IP, mac packet.MAC) *hyper.Host {
		return hyper.NewHost(eng, hyper.HostConfig{
			Name: name, IP: ip, MAC: mac, MemBytes: 32 << 30,
			RNIC:   rnic.DefaultParams(),
			Fabric: fab,
			ResolveHost: func(dst packet.IP) (packet.MAC, bool) {
				switch dst {
				case packet.NewIP(172, 16, 0, 1):
					return packet.MAC{2, 0, 0, 0, 0, 1}, true
				case packet.NewIP(172, 16, 0, 2):
					return packet.MAC{2, 0, 0, 0, 0, 2}, true
				}
				return packet.MAC{}, false
			},
		})
	}
	h0 := mk("h0", packet.NewIP(172, 16, 0, 1), packet.MAC{2, 0, 0, 0, 0, 1})
	h1 := mk("h1", packet.NewIP(172, 16, 0, 2), packet.MAC{2, 0, 0, 0, 0, 2})
	simnet.Connect(eng, h0.Port, h1.Port, simnet.Gbps(40), simtime.Us(0.1))
	return &bed{eng: eng, fab: fab, h0: h0, h1: h1}
}

func (b *bed) resolve(gid packet.GID) (packet.IP, packet.MAC, bool) {
	ip, ok := gid.IP()
	if !ok {
		return packet.IP{}, packet.MAC{}, false
	}
	switch ip {
	case packet.NewIP(172, 16, 0, 1):
		return ip, packet.MAC{2, 0, 0, 0, 0, 1}, true
	case packet.NewIP(172, 16, 0, 2):
		return ip, packet.MAC{2, 0, 0, 0, 0, 2}, true
	}
	return packet.IP{}, packet.MAC{}, false
}

// exercise opens the device, runs a full setup + connect + transfer across
// the given pair of providers, and verifies the payload.
func exercise(t *testing.T, eng *simtime.Engine, provC, provS verbs.Provider, memC, memS interface {
	Alloc(int) (uint64, error)
	Write(uint64, []byte) error
	Read(uint64, []byte) error
}) {
	t.Helper()
	done := simtime.NewEvent[error](eng)
	eng.Spawn("exercise", func(p *simtime.Proc) {
		fail := func(err error) { done.Trigger(err) }
		devC, err := provC.Open(p)
		if err != nil {
			fail(err)
			return
		}
		devS, err := provS.Open(p)
		if err != nil {
			fail(err)
			return
		}
		setup := func(dev verbs.Device, m interface {
			Alloc(int) (uint64, error)
			Write(uint64, []byte) error
			Read(uint64, []byte) error
		}) (verbs.PD, verbs.MR, verbs.CQ, verbs.QP, uint64, error) {
			pd, err := dev.AllocPD(p)
			if err != nil {
				return nil, nil, nil, nil, 0, err
			}
			va, err := m.Alloc(8192)
			if err != nil {
				return nil, nil, nil, nil, 0, err
			}
			mr, err := dev.RegMR(p, pd, va, 8192, verbs.AccessLocalWrite|verbs.AccessRemoteWrite)
			if err != nil {
				return nil, nil, nil, nil, 0, err
			}
			cq, err := dev.CreateCQ(p, 64)
			if err != nil {
				return nil, nil, nil, nil, 0, err
			}
			qp, err := dev.CreateQP(p, pd, cq, cq, verbs.RC, verbs.QPCaps{MaxSendWR: 16, MaxRecvWR: 16})
			if err != nil {
				return nil, nil, nil, nil, 0, err
			}
			return pd, mr, cq, qp, va, nil
		}
		_, mrC, cqC, qpC, vaC, err := setup(devC, memC)
		if err != nil {
			fail(err)
			return
		}
		_, mrS, cqS, qpS, vaS, err := setup(devS, memS)
		if err != nil {
			fail(err)
			return
		}
		gidC, err := devC.QueryGID(p)
		if err != nil {
			fail(err)
			return
		}
		gidS, err := devS.QueryGID(p)
		if err != nil {
			fail(err)
			return
		}
		walk := func(qp verbs.QP, peerGID packet.GID, peerQPN uint32) error {
			if err := qp.Modify(p, verbs.Attr{ToState: verbs.StateInit}); err != nil {
				return err
			}
			if err := qp.Modify(p, verbs.Attr{ToState: verbs.StateRTR, DGID: peerGID, DQPN: peerQPN}); err != nil {
				return err
			}
			return qp.Modify(p, verbs.Attr{ToState: verbs.StateRTS})
		}
		if err := walk(qpC, gidS, qpS.Num()); err != nil {
			fail(err)
			return
		}
		if err := walk(qpS, gidC, qpC.Num()); err != nil {
			fail(err)
			return
		}
		qpS.PostRecv(p, verbs.RecvWR{WRID: 1, Addr: vaS, LKey: mrS.LKey(), Len: 8192})
		memC.Write(vaC, []byte("baseline payload"))
		qpC.PostSend(p, verbs.SendWR{WRID: 2, Op: verbs.WRSend, LocalAddr: vaC, LKey: mrC.LKey(), Len: 16})
		if wc := cqC.Wait(p); wc.Status != verbs.WCSuccess {
			fail(errors.New("send failed: " + wc.Status.String()))
			return
		}
		wc := cqS.Wait(p)
		if wc.Status != verbs.WCSuccess || !wc.Recv {
			fail(errors.New("recv failed: " + wc.Status.String()))
			return
		}
		got := make([]byte, 16)
		memS.Read(vaS, got)
		if string(got) != "baseline payload" {
			fail(errors.New("payload corrupted: " + string(got)))
			return
		}
		// Exercise teardown too.
		if err := mrC.Dereg(p); err != nil {
			fail(err)
			return
		}
		if err := qpC.Destroy(p); err != nil {
			fail(err)
			return
		}
		if err := cqC.Destroy(p); err != nil {
			fail(err)
			return
		}
		if err := devC.Close(p); err != nil {
			fail(err)
			return
		}
		done.Trigger(nil)
	})
	eng.Run()
	if !done.Triggered() {
		t.Fatalf("exercise stalled: %v", eng.PendingProcs())
	}
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
}

func TestHostRDMAProvider(t *testing.T) {
	b := newBed(t)
	provC := hostrdma.New(hostrdma.Config{Dev: b.h0.Dev, Fn: b.h0.Dev.PF(), Mem: b.h0.HVA, Resolve: b.resolve})
	provS := hostrdma.New(hostrdma.Config{Dev: b.h1.Dev, Fn: b.h1.Dev.PF(), Mem: b.h1.HVA, Resolve: b.resolve})
	if provC.Name() != "host-rdma" {
		t.Fatalf("name = %q", provC.Name())
	}
	exercise(t, b.eng, provC, provS, b.h0.HVA, b.h1.HVA)
}

func TestSRIOVProvider(t *testing.T) {
	b := newBed(t)
	vm0, err := b.h0.NewVM("vm0", 1<<30, 1, packet.NewIP(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	vm1, err := b.h1.NewVM("vm1", 1<<30, 1, packet.NewIP(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(gid packet.GID) (packet.IP, packet.MAC, bool) {
		ip, ok := gid.IP()
		if !ok {
			return packet.IP{}, packet.MAC{}, false
		}
		switch ip {
		case packet.NewIP(172, 18, 0, 1):
			return ip, packet.MAC{2, 9, 0, 0, 0, 1}, true
		case packet.NewIP(172, 18, 0, 2):
			return ip, packet.MAC{2, 9, 0, 0, 0, 2}, true
		}
		return packet.IP{}, packet.MAC{}, false
	}
	provC, vfC, err := sriov.NewProvider(b.h0, vm0, packet.NewIP(172, 18, 0, 1), packet.MAC{2, 9, 0, 0, 0, 1}, resolve)
	if err != nil {
		t.Fatal(err)
	}
	provS, vfS, err := sriov.NewProvider(b.h1, vm1, packet.NewIP(172, 18, 0, 2), packet.MAC{2, 9, 0, 0, 0, 2}, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if !vfC.IsVF() || !vfC.IOMMU || !vfS.IOMMU {
		t.Fatal("sriov VFs must be IOMMU-protected virtual functions")
	}
	if provC.Name() != "sr-iov" {
		t.Fatalf("name = %q", provC.Name())
	}
	exercise(t, b.eng, provC, provS, vm0.GVA, vm1.GVA)
}

func TestFreeFlowProvider(t *testing.T) {
	b := newBed(t)
	c0, err := b.h0.NewContainer("c0", 1, packet.NewIP(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := b.h1.NewContainer("c1", 1, packet.NewIP(10, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	r0 := freeflow.NewRouter(b.h0)
	r1 := freeflow.NewRouter(b.h1)
	resolve := func(gid packet.GID) (packet.IP, packet.MAC, bool) {
		ip, ok := gid.IP()
		if !ok {
			return packet.IP{}, packet.MAC{}, false
		}
		ep := b.fab.Lookup(1, ip)
		if ep == nil {
			return packet.IP{}, packet.MAC{}, false
		}
		return ep.HostIP, ep.HostMAC, true
	}
	provC := freeflow.NewProvider(r0, c0, resolve)
	provS := freeflow.NewProvider(r1, c1, resolve)
	if provC.Name() != "freeflow" {
		t.Fatalf("name = %q", provC.Name())
	}
	exercise(t, b.eng, provC, provS, c0.GVA, c1.GVA)
	if r0.Stats.Forwards == 0 || r1.Stats.Relays == 0 {
		t.Fatalf("FFR not on the data path: fwd=%d relays=%d", r0.Stats.Forwards, r1.Stats.Relays)
	}
}

func TestSRIOVExhaustsVFs(t *testing.T) {
	b := newBed(t)
	for i := 0; i < 8; i++ {
		vm, err := b.h0.NewVM("vm", 256<<20, 1, packet.NewIP(10, 0, 1, byte(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sriov.NewProvider(b.h0, vm, packet.NewIP(172, 18, 1, byte(i+1)), packet.MAC{2, 9, 1, 0, 0, byte(i)}, nil); err != nil {
			t.Fatalf("VF %d: %v", i, err)
		}
	}
	vm, err := b.h0.NewVM("vm9", 256<<20, 1, packet.NewIP(10, 0, 1, 99))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sriov.NewProvider(b.h0, vm, packet.NewIP(172, 18, 1, 99), packet.MAC{2, 9, 1, 0, 0, 99}, nil); !errors.Is(err, rnic.ErrNoResources) {
		t.Fatalf("9th VF err = %v", err)
	}
}
