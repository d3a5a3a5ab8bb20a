package oob_test

import (
	"errors"
	"testing"

	"masq/internal/oob"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/simnet"
	"masq/internal/simtime"
)

// testbed wires two hosts with vswitches over a direct underlay link and
// runs each host's demultiplexer (VXLAN frames → vswitch ingress).
type testbed struct {
	eng *simtime.Engine
	fab *overlay.Fabric
	swA *overlay.VSwitch
	swB *overlay.VSwitch
}

var (
	hostAIP  = packet.NewIP(172, 16, 0, 1)
	hostBIP  = packet.NewIP(172, 16, 0, 2)
	hostAMAC = packet.MAC{2, 0, 0, 0, 0, 0xa}
	hostBMAC = packet.MAC{2, 0, 0, 0, 0, 0xb}
)

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	eng := simtime.NewEngine()
	fab := overlay.NewFabric()
	portA := simnet.NewPort(eng, "hostA")
	portB := simnet.NewPort(eng, "hostB")
	simnet.Connect(eng, portA, portB, simnet.Gbps(40), simtime.Us(0.1))
	resolve := func(ip packet.IP) (packet.MAC, bool) {
		switch ip {
		case hostAIP:
			return hostAMAC, true
		case hostBIP:
			return hostBMAC, true
		}
		return packet.MAC{}, false
	}
	swA := fab.NewVSwitch(eng, hostAIP, hostAMAC, portA, resolve)
	swB := fab.NewVSwitch(eng, hostBIP, hostBMAC, portB, resolve)
	demux := func(name string, port *simnet.Port, sw *overlay.VSwitch) {
		eng.Spawn(name, func(p *simtime.Proc) {
			for {
				f := port.RX.Get(p)
				pkt, err := packet.Decode(f)
				if err != nil {
					continue
				}
				if u := pkt.UDP(); u != nil && u.DstPort == packet.PortVXLAN {
					sw.Ingress.Put(pkt)
				}
			}
		})
	}
	demux("demuxA", portA, swA)
	demux("demuxB", portB, swB)
	return &testbed{eng: eng, fab: fab, swA: swA, swB: swB}
}

func (tb *testbed) stack(t *testing.T, sw *overlay.VSwitch, vni uint32, vip packet.IP) *oob.Stack {
	t.Helper()
	vp, err := sw.AttachVM(vni, vip)
	if err != nil {
		t.Fatal(err)
	}
	return oob.NewStack(tb.eng, vp, func(dst packet.IP) (packet.MAC, bool) {
		ep := tb.fab.Lookup(vni, dst)
		if ep == nil {
			return packet.MAC{}, false
		}
		return ep.VMAC, true
	})
}

func allowAll(t *testing.T, pl *overlay.Policy) {
	t.Helper()
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	pl.AddRule(overlay.Rule{Priority: 1, Proto: overlay.ProtoAny, Src: all, Dst: all, Action: overlay.Allow})
}

func TestDialSendRecvAcrossHosts(t *testing.T) {
	tb := newTestbed(t)
	tenant := tb.fab.AddTenant(100, "acme")
	allowAll(t, tenant.Policy)
	client := tb.stack(t, tb.swA, 100, packet.NewIP(192, 168, 1, 1))
	server := tb.stack(t, tb.swB, 100, packet.NewIP(192, 168, 1, 2))

	var got []byte
	var reply []byte
	tb.eng.Spawn("server", func(p *simtime.Proc) {
		l, err := server.Listen(7000)
		if err != nil {
			t.Error(err)
			return
		}
		conn := l.Accept(p)
		msg, err := conn.Recv(p)
		if err != nil {
			t.Error(err)
			return
		}
		got = msg
		conn.Send(p, []byte("pong"))
	})
	tb.eng.Spawn("client", func(p *simtime.Proc) {
		conn, err := client.Dial(p, packet.NewIP(192, 168, 1, 2), 7000, simtime.Ms(100))
		if err != nil {
			t.Error(err)
			return
		}
		conn.Send(p, []byte("ping"))
		msg, err := conn.Recv(p)
		if err != nil {
			t.Error(err)
			return
		}
		reply = msg
	})
	tb.eng.Run()
	if string(got) != "ping" || string(reply) != "pong" {
		t.Fatalf("got=%q reply=%q", got, reply)
	}
}

func TestDefaultDenyBlocksDial(t *testing.T) {
	tb := newTestbed(t)
	tb.fab.AddTenant(100, "acme") // no rules at all
	client := tb.stack(t, tb.swA, 100, packet.NewIP(192, 168, 1, 1))
	server := tb.stack(t, tb.swB, 100, packet.NewIP(192, 168, 1, 2))
	var dialErr error
	tb.eng.Spawn("server", func(p *simtime.Proc) {
		l, _ := server.Listen(7000)
		l.AcceptTimeout(p, simtime.Ms(50))
	})
	tb.eng.Spawn("client", func(p *simtime.Proc) {
		_, dialErr = client.Dial(p, packet.NewIP(192, 168, 1, 2), 7000, simtime.Ms(10))
	})
	tb.eng.Run()
	if !errors.Is(dialErr, oob.ErrTimeout) {
		t.Fatalf("dial err = %v, want timeout (default deny)", dialErr)
	}
}

func TestRuleRemovalBlocksNewConnections(t *testing.T) {
	tb := newTestbed(t)
	tenant := tb.fab.AddTenant(100, "acme")
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	id := tenant.Policy.AddRule(overlay.Rule{Priority: 1, Proto: overlay.ProtoAny, Src: all, Dst: all, Action: overlay.Allow})
	client := tb.stack(t, tb.swA, 100, packet.NewIP(192, 168, 1, 1))
	server := tb.stack(t, tb.swB, 100, packet.NewIP(192, 168, 1, 2))
	var first, second error
	tb.eng.Spawn("server", func(p *simtime.Proc) {
		l, _ := server.Listen(7000)
		for {
			if _, ok := l.AcceptTimeout(p, simtime.Ms(200)); !ok {
				return
			}
		}
	})
	tb.eng.Spawn("client", func(p *simtime.Proc) {
		_, first = client.Dial(p, packet.NewIP(192, 168, 1, 2), 7000, simtime.Ms(10))
		tenant.Policy.RemoveRule(id)
		_, second = client.Dial(p, packet.NewIP(192, 168, 1, 2), 7000, simtime.Ms(10))
	})
	tb.eng.Run()
	if first != nil {
		t.Fatalf("first dial: %v", first)
	}
	if !errors.Is(second, oob.ErrTimeout) {
		t.Fatalf("second dial err = %v, want timeout after rule removal", second)
	}
}

// TestTenantIsolationWithOverlappingIPs: two tenants use the same virtual
// subnet; traffic must never cross VNIs even with allow-all policies.
func TestTenantIsolationWithOverlappingIPs(t *testing.T) {
	tb := newTestbed(t)
	t1 := tb.fab.AddTenant(100, "acme")
	t2 := tb.fab.AddTenant(200, "globex")
	allowAll(t, t1.Policy)
	allowAll(t, t2.Policy)
	// Same IPs, different tenants.
	a1 := tb.stack(t, tb.swA, 100, packet.NewIP(192, 168, 1, 1))
	b1 := tb.stack(t, tb.swB, 100, packet.NewIP(192, 168, 1, 2))
	a2 := tb.stack(t, tb.swA, 200, packet.NewIP(192, 168, 1, 1))
	b2 := tb.stack(t, tb.swB, 200, packet.NewIP(192, 168, 1, 2))

	var got1, got2 string
	serve := func(s *oob.Stack, out *string) {
		tb.eng.Spawn("srv", func(p *simtime.Proc) {
			l, _ := s.Listen(7000)
			conn, ok := l.AcceptTimeout(p, simtime.Ms(500))
			if !ok {
				return
			}
			msg, err := conn.Recv(p)
			if err == nil {
				*out = string(msg)
			}
		})
	}
	serve(b1, &got1)
	serve(b2, &got2)
	tb.eng.Spawn("c1", func(p *simtime.Proc) {
		conn, err := a1.Dial(p, packet.NewIP(192, 168, 1, 2), 7000, simtime.Ms(100))
		if err != nil {
			t.Error(err)
			return
		}
		conn.Send(p, []byte("tenant-acme"))
	})
	tb.eng.Spawn("c2", func(p *simtime.Proc) {
		conn, err := a2.Dial(p, packet.NewIP(192, 168, 1, 2), 7000, simtime.Ms(100))
		if err != nil {
			t.Error(err)
			return
		}
		conn.Send(p, []byte("tenant-globex"))
	})
	tb.eng.Run()
	if got1 != "tenant-acme" || got2 != "tenant-globex" {
		t.Fatalf("cross-tenant leakage: got1=%q got2=%q", got1, got2)
	}
}

func TestSameHostDelivery(t *testing.T) {
	tb := newTestbed(t)
	tenant := tb.fab.AddTenant(100, "acme")
	allowAll(t, tenant.Policy)
	c := tb.stack(t, tb.swA, 100, packet.NewIP(192, 168, 1, 1))
	s := tb.stack(t, tb.swA, 100, packet.NewIP(192, 168, 1, 2)) // same host
	var got string
	tb.eng.Spawn("server", func(p *simtime.Proc) {
		l, _ := s.Listen(9)
		conn := l.Accept(p)
		msg, _ := conn.Recv(p)
		got = string(msg)
	})
	tb.eng.Spawn("client", func(p *simtime.Proc) {
		conn, err := c.Dial(p, packet.NewIP(192, 168, 1, 2), 9, simtime.Ms(100))
		if err != nil {
			t.Error(err)
			return
		}
		conn.Send(p, []byte("local"))
	})
	tb.eng.Run()
	if got != "local" {
		t.Fatalf("got %q", got)
	}
}

func TestSetIPFiresNotificationAndRegistry(t *testing.T) {
	tb := newTestbed(t)
	tenant := tb.fab.AddTenant(100, "acme")
	allowAll(t, tenant.Policy)
	vp, err := tb.swA.AttachVM(100, packet.NewIP(192, 168, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var oldIP, newIP packet.IP
	vp.OnIPChange(func(o, n packet.IP) { oldIP, newIP = o, n })
	if err := vp.SetIP(packet.NewIP(192, 168, 1, 99)); err != nil {
		t.Fatal(err)
	}
	if oldIP != packet.NewIP(192, 168, 1, 1) || newIP != packet.NewIP(192, 168, 1, 99) {
		t.Fatalf("notification: %v → %v", oldIP, newIP)
	}
	if tb.fab.Lookup(100, packet.NewIP(192, 168, 1, 1)) != nil {
		t.Fatal("old registry entry lingers")
	}
	if ep := tb.fab.Lookup(100, packet.NewIP(192, 168, 1, 99)); ep == nil || ep.HostIP != hostAIP {
		t.Fatal("new registry entry missing")
	}
}

func TestDialUnknownDestination(t *testing.T) {
	tb := newTestbed(t)
	tenant := tb.fab.AddTenant(100, "acme")
	allowAll(t, tenant.Policy)
	c := tb.stack(t, tb.swA, 100, packet.NewIP(192, 168, 1, 1))
	var err error
	tb.eng.Spawn("client", func(p *simtime.Proc) {
		_, err = c.Dial(p, packet.NewIP(192, 168, 9, 9), 7, simtime.Ms(5))
	})
	tb.eng.Run()
	if !errors.Is(err, oob.ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestConnClose(t *testing.T) {
	tb := newTestbed(t)
	tenant := tb.fab.AddTenant(100, "acme")
	allowAll(t, tenant.Policy)
	c := tb.stack(t, tb.swA, 100, packet.NewIP(192, 168, 1, 1))
	s := tb.stack(t, tb.swB, 100, packet.NewIP(192, 168, 1, 2))
	var recvErr error
	tb.eng.Spawn("server", func(p *simtime.Proc) {
		l, _ := s.Listen(7000)
		conn := l.Accept(p)
		_, recvErr = conn.Recv(p)
	})
	tb.eng.Spawn("client", func(p *simtime.Proc) {
		conn, err := c.Dial(p, packet.NewIP(192, 168, 1, 2), 7000, simtime.Ms(100))
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(simtime.Ms(1))
		conn.Close()
		if sendErr := conn.Send(p, []byte("x")); !errors.Is(sendErr, oob.ErrClosed) {
			t.Errorf("send after close err = %v", sendErr)
		}
	})
	tb.eng.Run()
	if !errors.Is(recvErr, oob.ErrClosed) {
		t.Fatalf("recv err = %v, want ErrClosed", recvErr)
	}
}

// TestUnderlayFramesAreVXLANEncapsulated sniffs the physical link and
// verifies that tenant traffic crosses the wire inside VXLAN with the
// tenant's VNI and the hosts' underlay addresses.
func TestUnderlayFramesAreVXLANEncapsulated(t *testing.T) {
	eng := simtime.NewEngine()
	fab := overlay.NewFabric()
	portA := simnet.NewPort(eng, "hostA")
	portB := simnet.NewPort(eng, "hostB")
	link := simnet.Connect(eng, portA, portB, simnet.Gbps(40), simtime.Us(0.1))
	resolve := func(ip packet.IP) (packet.MAC, bool) {
		switch ip {
		case hostAIP:
			return hostAMAC, true
		case hostBIP:
			return hostBMAC, true
		}
		return packet.MAC{}, false
	}
	swA := fab.NewVSwitch(eng, hostAIP, hostAMAC, portA, resolve)
	swB := fab.NewVSwitch(eng, hostBIP, hostBMAC, portB, resolve)
	for _, d := range []struct {
		port *simnet.Port
		sw   *overlay.VSwitch
	}{{portA, swA}, {portB, swB}} {
		d := d
		eng.Spawn("demux", func(p *simtime.Proc) {
			for {
				f := d.port.RX.Get(p)
				if pkt, err := packet.Decode(f); err == nil && pkt.VXLAN() != nil {
					d.sw.Ingress.Put(pkt)
				}
			}
		})
	}
	tenant := fab.AddTenant(77, "acme")
	allowAll(t, tenant.Policy)

	var sniffed []*packet.Packet
	link.Drop = func(f simnet.Frame) bool {
		if pkt, err := packet.Decode(f); err == nil {
			sniffed = append(sniffed, pkt)
		}
		return false
	}

	tb := &testbed{eng: eng, fab: fab, swA: swA, swB: swB}
	client := tb.stack(t, swA, 77, packet.NewIP(192, 168, 9, 1))
	server := tb.stack(t, swB, 77, packet.NewIP(192, 168, 9, 2))
	eng.Spawn("server", func(p *simtime.Proc) {
		l, _ := server.Listen(5)
		conn := l.Accept(p)
		conn.Recv(p)
	})
	eng.Spawn("client", func(p *simtime.Proc) {
		conn, err := client.Dial(p, packet.NewIP(192, 168, 9, 2), 5, simtime.Ms(100))
		if err != nil {
			t.Error(err)
			return
		}
		conn.Send(p, []byte("tunnel me"))
	})
	eng.Run()

	if len(sniffed) == 0 {
		t.Fatal("nothing sniffed on the wire")
	}
	for i, pkt := range sniffed {
		vx := pkt.VXLAN()
		if vx == nil {
			t.Fatalf("frame %d not VXLAN: %v", i, pkt)
		}
		if vx.VNI != 77 {
			t.Fatalf("frame %d VNI = %d, want 77", i, vx.VNI)
		}
		outer := pkt.IPv4()
		if outer.Src != hostAIP && outer.Src != hostBIP {
			t.Fatalf("frame %d outer src %v is not an underlay address", i, outer.Src)
		}
		inner := pkt.Inner.IPv4()
		if inner.Src[0] != 192 {
			t.Fatalf("frame %d inner src %v is not the tenant address", i, inner.Src)
		}
	}
}

// TestConntrackSkipsRuleScanOnEstablishedFlows: with a long rule chain,
// the first frame of a flow pays the scan and subsequent frames ride the
// conntrack cache (measurably faster).
func TestConntrackSkipsRuleScanOnEstablishedFlows(t *testing.T) {
	tb := newTestbed(t)
	tenant := tb.fab.AddTenant(100, "acme")
	// A tall chain: 400 filler rules below one allow-all.
	sub, _ := packet.ParseCIDR("203.0.113.0/24")
	for i := 0; i < 400; i++ {
		tenant.Policy.AddRule(overlay.Rule{Priority: 500 + i, Proto: overlay.ProtoTCP, Src: sub, Dst: sub, Action: overlay.Deny})
	}
	allowAll(t, tenant.Policy)

	client := tb.stack(t, tb.swA, 100, packet.NewIP(192, 168, 1, 1))
	server := tb.stack(t, tb.swB, 100, packet.NewIP(192, 168, 1, 2))
	var first, second simtime.Duration
	tb.eng.Spawn("server", func(p *simtime.Proc) {
		l, _ := server.Listen(5)
		conn := l.Accept(p)
		for i := 0; i < 2; i++ {
			conn.Recv(p)
			conn.Send(p, []byte("ack"))
		}
	})
	tb.eng.Spawn("client", func(p *simtime.Proc) {
		conn, err := client.Dial(p, packet.NewIP(192, 168, 1, 2), 5, simtime.Ms(500))
		if err != nil {
			t.Error(err)
			return
		}
		// The dial already warmed conntrack; measure two request/response
		// rounds — they must be equal (both cached) and fast.
		s := p.Now()
		conn.Send(p, []byte("one"))
		conn.Recv(p)
		first = p.Now().Sub(s)
		s = p.Now()
		conn.Send(p, []byte("two"))
		conn.Recv(p)
		second = p.Now().Sub(s)
	})
	tb.eng.Run()
	if first == 0 || second == 0 {
		t.Fatal("rounds did not complete")
	}
	// The rounds may differ by a frame's worth of ack traffic sharing the
	// egress queues, but nothing close to a rule scan.
	if diff := first - second; diff < -simtime.Us(30) || diff > simtime.Us(30) {
		t.Fatalf("cached rounds differ: %v vs %v", first, second)
	}
	// A 401-rule scan at 0.3µs/rule would add ~120µs per hop; the cached
	// path must be far below one scan's worth over the whole round trip.
	if first > simtime.Us(200) || second > simtime.Us(200) {
		t.Fatalf("round trips %v/%v suggest per-packet rule scans", first, second)
	}
}
