package simnet

import (
	"bytes"
	"testing"

	"masq/internal/packet"
	"masq/internal/simtime"
)

func frameTo(dst, src packet.MAC, payload int) Frame {
	return Frame(packet.Serialize(
		&packet.Ethernet{Dst: dst, Src: src, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: packet.NewIP(1, 1, 1, 1), Dst: packet.NewIP(2, 2, 2, 2)},
		&packet.UDP{SrcPort: 1, DstPort: 9999},
		packet.Payload(make([]byte, payload)),
	))
}

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 0xa}
	macB = packet.MAC{2, 0, 0, 0, 0, 0xb}
	macC = packet.MAC{2, 0, 0, 0, 0, 0xc}
)

func TestLinkDeliversFrame(t *testing.T) {
	eng := simtime.NewEngine()
	a := NewPort(eng, "a")
	b := NewPort(eng, "b")
	Connect(eng, a, b, Gbps(40), simtime.Us(0.1))
	var got Frame
	var at simtime.Time
	eng.Spawn("rx", func(p *simtime.Proc) {
		got = b.RX.Get(p)
		at = p.Now()
	})
	f := frameTo(macB, macA, 100)
	eng.Spawn("tx", func(p *simtime.Proc) { a.Send(f) })
	eng.Run()
	if got == nil {
		t.Fatal("no frame delivered")
	}
	// serialization: len*8/40e9 s; prop: 100ns.
	wantTx := simtime.Duration(float64(len(f)*8) / 40e9 * 1e9)
	want := simtime.Time(wantTx + simtime.Us(0.1))
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestLinkSerializationIsFIFO(t *testing.T) {
	eng := simtime.NewEngine()
	a := NewPort(eng, "a")
	b := NewPort(eng, "b")
	Connect(eng, a, b, Gbps(1), 0) // slow link: 1 Gbps
	var arrivals []simtime.Time
	eng.Spawn("rx", func(p *simtime.Proc) {
		for i := 0; i < 2; i++ {
			b.RX.Get(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	f := frameTo(macB, macA, 1000-42) // 1000 bytes on the wire
	eng.Spawn("tx", func(p *simtime.Proc) {
		a.Send(f)
		a.Send(f)
	})
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	per := simtime.Duration(float64(len(f)*8) / 1e9 * 1e9) // = len(f)*8 ns
	if arrivals[0] != simtime.Time(per) || arrivals[1] != simtime.Time(2*per) {
		t.Fatalf("arrivals = %v, want %v and %v", arrivals, per, 2*per)
	}
}

func TestLinkIsFullDuplex(t *testing.T) {
	eng := simtime.NewEngine()
	a := NewPort(eng, "a")
	b := NewPort(eng, "b")
	Connect(eng, a, b, Gbps(1), 0)
	var aAt, bAt simtime.Time
	eng.Spawn("rxA", func(p *simtime.Proc) { a.RX.Get(p); aAt = p.Now() })
	eng.Spawn("rxB", func(p *simtime.Proc) { b.RX.Get(p); bAt = p.Now() })
	f := frameTo(macB, macA, 1000-42)
	eng.Spawn("tx", func(p *simtime.Proc) {
		a.Send(f)
		b.Send(f)
	})
	eng.Run()
	if aAt != bAt || aAt == 0 {
		t.Fatalf("duplex directions interfered: a=%v b=%v", aAt, bAt)
	}
}

func TestLinkDropInjection(t *testing.T) {
	eng := simtime.NewEngine()
	a := NewPort(eng, "a")
	b := NewPort(eng, "b")
	l := Connect(eng, a, b, Gbps(40), 0)
	n := 0
	l.Drop = func(Frame) bool { n++; return n == 1 } // drop the first frame only
	var got int
	eng.Spawn("rx", func(p *simtime.Proc) {
		for {
			b.RX.Get(p)
			got++
			if got == 2 {
				return
			}
		}
	})
	eng.Spawn("tx", func(p *simtime.Proc) {
		for i := 0; i < 3; i++ {
			a.Send(frameTo(macB, macA, 10))
		}
	})
	eng.Run()
	if got != 2 {
		t.Fatalf("received %d frames, want 2 (one dropped)", got)
	}
	if b.RxFrames != 2 || a.TxFrames != 3 {
		t.Fatalf("counters: tx=%d rx=%d", a.TxFrames, b.RxFrames)
	}
}

func TestPortCounters(t *testing.T) {
	eng := simtime.NewEngine()
	a := NewPort(eng, "a")
	b := NewPort(eng, "b")
	Connect(eng, a, b, Gbps(40), 0)
	f := frameTo(macB, macA, 100)
	eng.Spawn("tx", func(p *simtime.Proc) { a.Send(f) })
	eng.Spawn("rx", func(p *simtime.Proc) { b.RX.Get(p) })
	eng.Run()
	if a.TxBytes != uint64(len(f)) || b.RxBytes != uint64(len(f)) {
		t.Fatalf("tx=%d rx=%d want %d", a.TxBytes, b.RxBytes, len(f))
	}
}

func TestSendOnUnattachedPortPanics(t *testing.T) {
	eng := simtime.NewEngine()
	p := NewPort(eng, "orphan")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.Send(Frame{1, 2, 3})
}

// threeHostSwitch wires three host ports to a switch and returns them.
func threeHostSwitch(eng *simtime.Engine) (*Port, *Port, *Port) {
	sw := NewSwitch(eng, "tor", simtime.Us(0.3))
	a := NewPort(eng, "hostA")
	b := NewPort(eng, "hostB")
	c := NewPort(eng, "hostC")
	for _, p := range []*Port{a, b, c} {
		sw.AttachPort(p, Gbps(40), simtime.Us(0.1))
	}
	return a, b, c
}

func TestSwitchFloodsUnknownThenLearns(t *testing.T) {
	eng := simtime.NewEngine()
	a, b, c := threeHostSwitch(eng)
	var bGot, cGot int
	eng.Spawn("rxB", func(p *simtime.Proc) {
		for {
			b.RX.Get(p)
			bGot++
		}
	})
	eng.Spawn("rxC", func(p *simtime.Proc) {
		for {
			c.RX.Get(p)
			cGot++
		}
	})
	eng.Spawn("tx", func(p *simtime.Proc) {
		// Unknown destination: flood reaches both B and C.
		a.Send(frameTo(macB, macA, 10))
		p.Sleep(simtime.Ms(1))
		// B replies; switch learns B's port.
		b.Send(frameTo(macA, macB, 10))
		p.Sleep(simtime.Ms(1))
		// Now A→B must be unicast: C sees nothing new.
		a.Send(frameTo(macB, macA, 10))
	})
	eng.RunUntil(simtime.Time(simtime.Ms(10)))
	if bGot != 2 {
		t.Errorf("B received %d frames, want 2", bGot)
	}
	if cGot != 1 {
		t.Errorf("C received %d frames, want 1 (flood only)", cGot)
	}
}

func TestSwitchBroadcast(t *testing.T) {
	eng := simtime.NewEngine()
	a, b, c := threeHostSwitch(eng)
	var bGot, cGot, aGot int
	eng.Spawn("rxA", func(p *simtime.Proc) {
		for {
			a.RX.Get(p)
			aGot++
		}
	})
	eng.Spawn("rxB", func(p *simtime.Proc) {
		for {
			b.RX.Get(p)
			bGot++
		}
	})
	eng.Spawn("rxC", func(p *simtime.Proc) {
		for {
			c.RX.Get(p)
			cGot++
		}
	})
	eng.Spawn("tx", func(p *simtime.Proc) {
		a.Send(frameTo(packet.BroadcastMAC, macA, 10))
	})
	eng.RunUntil(simtime.Time(simtime.Ms(5)))
	if aGot != 0 || bGot != 1 || cGot != 1 {
		t.Fatalf("a=%d b=%d c=%d, want 0/1/1", aGot, bGot, cGot)
	}
}

// TestSwitchFloodGivesEachPortItsOwnFrame: a receiver that decodes a frame
// through a packet.Pool owns it and recycles it on release, so a flood
// must not hand one buffer to several ports. One flooded frame reaches
// three ports as three distinct buffers with equal bytes.
func TestSwitchFloodGivesEachPortItsOwnFrame(t *testing.T) {
	eng := simtime.NewEngine()
	sw := NewSwitch(eng, "tor", simtime.Us(0.3))
	ports := make([]*Port, 4)
	got := make([]Frame, len(ports))
	for i := range ports {
		ports[i] = NewPort(eng, "host"+itoa(i))
		sw.AttachPort(ports[i], Gbps(40), simtime.Us(0.1))
		ports[i].RX.OnNext(func(f Frame) { got[i] = f })
	}
	sent := frameTo(packet.BroadcastMAC, macA, 100)
	ports[0].Send(sent)
	eng.Run()
	if got[0] != nil {
		t.Fatal("the flood came back to its ingress port")
	}
	for i, f := range got[1:] {
		if !bytes.Equal(f, sent) {
			t.Fatalf("port %d got % x, want % x", i+1, f, sent)
		}
		for j, g := range got[1 : i+1] {
			if &f[0] == &g[0] {
				t.Fatalf("ports %d and %d got the same buffer", j+1, i+1)
			}
		}
	}
}

func TestSwitchDoesNotReflectToIngress(t *testing.T) {
	eng := simtime.NewEngine()
	a, b, _ := threeHostSwitch(eng)
	var aGot int
	eng.Spawn("rxA", func(p *simtime.Proc) {
		for {
			a.RX.Get(p)
			aGot++
		}
	})
	eng.Spawn("rxB", func(p *simtime.Proc) {
		for {
			b.RX.Get(p)
		}
	})
	eng.Spawn("tx", func(p *simtime.Proc) {
		// Teach the switch that macA is on port a, then send a→a.
		a.Send(frameTo(macB, macA, 10))
		p.Sleep(simtime.Ms(1))
		b.Send(frameTo(macA, macB, 10)) // unicast back, learned
		p.Sleep(simtime.Ms(1))
		a.Send(frameTo(macA, macA, 10)) // destination on the ingress port
	})
	eng.RunUntil(simtime.Time(simtime.Ms(5)))
	if aGot != 1 {
		t.Fatalf("a received %d frames, want 1 (no reflection)", aGot)
	}
}

func TestGbps(t *testing.T) {
	if Gbps(40) != 40e9 {
		t.Fatalf("Gbps(40) = %v", Gbps(40))
	}
}

func TestLinkTapCaptures(t *testing.T) {
	eng := simtime.NewEngine()
	a := NewPort(eng, "a")
	b := NewPort(eng, "b")
	l := Connect(eng, a, b, Gbps(40), simtime.Us(0.1))
	tap := l.AttachTap()
	eng.Spawn("rx", func(p *simtime.Proc) {
		for {
			b.RX.Get(p)
		}
	})
	f := frameTo(macB, macA, 64)
	eng.Spawn("tx", func(p *simtime.Proc) {
		a.Send(f)
		b.Send(f) // reverse direction captured too
	})
	eng.Spawn("rxA", func(p *simtime.Proc) { a.RX.Get(p) })
	eng.RunUntil(simtime.Time(simtime.Ms(1)))
	frames := tap.Frames()
	if len(frames) != 2 {
		t.Fatalf("captured %d frames, want 2", len(frames))
	}
	if frames[0].TimeNanos <= 0 {
		t.Fatal("capture timestamp missing")
	}
	if pkt, err := packet.Decode(frames[0].Data); err != nil || pkt.IPv4() == nil {
		t.Fatalf("captured frame corrupt: %v", err)
	}
	// The tap copies: mutating the original frame must not change the capture.
	f[20] ^= 0xff
	if pkt, err := packet.Decode(frames[0].Data); err != nil || pkt.IPv4() == nil {
		t.Fatalf("capture aliased the live buffer: %v", err)
	}
}
