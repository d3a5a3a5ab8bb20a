package simnet

import (
	"testing"

	"masq/internal/simtime"
)

// rxCount drains b.RX forever, counting arrivals.
func rxCount(eng *simtime.Engine, port *Port, got *int) {
	eng.Spawn("rx", func(p *simtime.Proc) {
		for {
			port.RX.Get(p)
			*got++
		}
	})
}

func TestLinkDownDropsWithCause(t *testing.T) {
	eng := simtime.NewEngine()
	a := NewPort(eng, "a")
	b := NewPort(eng, "b")
	l := Connect(eng, a, b, Gbps(40), 0)
	got := 0
	rxCount(eng, b, &got)
	eng.Spawn("tx", func(p *simtime.Proc) {
		a.Send(frameTo(macB, macA, 100))
		p.Sleep(simtime.Us(10))
		l.SetDown(true)
		a.Send(frameTo(macB, macA, 100))
		a.Send(frameTo(macB, macA, 100))
		p.Sleep(simtime.Us(10))
		l.SetDown(false)
		a.Send(frameTo(macB, macA, 100))
	})
	eng.Run()
	if got != 2 {
		t.Fatalf("delivered %d frames, want 2", got)
	}
	st := l.Stats()
	if st.Delivered != 2 || st.Dropped != 2 || st.DroppedDown != 2 {
		t.Fatalf("stats = %+v, want 2 delivered, 2 dropped (down)", st)
	}
}

func TestLossModelWindowIsDeterministic(t *testing.T) {
	run := func() (int, LinkStats) {
		eng := simtime.NewEngine()
		a := NewPort(eng, "a")
		b := NewPort(eng, "b")
		l := Connect(eng, a, b, Gbps(40), 0)
		l.SetLoss(NewLossModel(7, 0.5, 1, simtime.Time(0), simtime.Time(simtime.Us(50))))
		got := 0
		rxCount(eng, b, &got)
		eng.Spawn("tx", func(p *simtime.Proc) {
			for i := 0; i < 100; i++ {
				a.Send(frameTo(macB, macA, 100))
				p.Sleep(simtime.Us(1))
			}
		})
		eng.Run()
		return got, l.Stats()
	}
	got1, st1 := run()
	got2, st2 := run()
	if st1.DroppedLoss == 0 {
		t.Fatal("loss model dropped nothing at p=0.5")
	}
	// Frames past the window's end (t >= 50µs) must all deliver.
	if st1.DroppedLoss > 50 {
		t.Fatalf("dropped %d frames; window only covers the first ~50", st1.DroppedLoss)
	}
	if got1+int(st1.DroppedLoss) != 100 || st1.Dropped != st1.DroppedLoss {
		t.Fatalf("accounting: delivered=%d stats=%+v", got1, st1)
	}
	if got1 != got2 || st1 != st2 {
		t.Fatalf("same seed diverged: %d/%+v vs %d/%+v", got1, st1, got2, st2)
	}
}

func TestLossModelBurstDrainsConsecutively(t *testing.T) {
	eng := simtime.NewEngine()
	a := NewPort(eng, "a")
	b := NewPort(eng, "b")
	l := Connect(eng, a, b, Gbps(40), 0)
	// Prob 1 with burst 3: every decision drops, and each decision covers
	// itself plus the next two frames — everything in-window drops.
	l.SetLoss(NewLossModel(1, 1.0, 3, simtime.Time(0), simtime.Time(simtime.Us(10))))
	got := 0
	rxCount(eng, b, &got)
	eng.Spawn("tx", func(p *simtime.Proc) {
		for i := 0; i < 6; i++ {
			a.Send(frameTo(macB, macA, 100))
		}
		p.Sleep(simtime.Us(20)) // window over
		a.Send(frameTo(macB, macA, 100))
	})
	eng.Run()
	if got != 1 || l.Stats().DroppedLoss != 6 {
		t.Fatalf("delivered=%d droppedLoss=%d, want 1 and 6", got, l.Stats().DroppedLoss)
	}
}

func TestLegacyDropHookCountsAsHook(t *testing.T) {
	eng := simtime.NewEngine()
	a := NewPort(eng, "a")
	b := NewPort(eng, "b")
	l := Connect(eng, a, b, Gbps(40), 0)
	n := 0
	l.Drop = func(Frame) bool { n++; return n == 1 }
	got := 0
	rxCount(eng, b, &got)
	eng.Spawn("tx", func(p *simtime.Proc) {
		a.Send(frameTo(macB, macA, 10))
		a.Send(frameTo(macB, macA, 10))
	})
	eng.Run()
	if got != 1 || l.Stats().DroppedHook != 1 {
		t.Fatalf("delivered=%d droppedHook=%d, want 1 and 1", got, l.Stats().DroppedHook)
	}
}

func TestSwitchDownDropsEverything(t *testing.T) {
	eng := simtime.NewEngine()
	sw := NewSwitch(eng, "tor", simtime.Us(0.3))
	a := NewPort(eng, "a")
	b := NewPort(eng, "b")
	la := sw.AttachPort(a, Gbps(40), 0)
	lb := sw.AttachPort(b, Gbps(40), 0)
	if len(sw.links) != 2 || la == nil || lb == nil {
		t.Fatalf("AttachPort must record and return uplinks: %v", sw.links)
	}
	got := 0
	rxCount(eng, b, &got)
	eng.Spawn("tx", func(p *simtime.Proc) {
		a.Send(frameTo(macB, macA, 100))
		p.Sleep(simtime.Us(10))
		sw.SetDown(true)
		a.Send(frameTo(macB, macA, 100))
		p.Sleep(simtime.Us(10))
		sw.SetDown(false)
		a.Send(frameTo(macB, macA, 100))
	})
	eng.Run()
	if got != 2 {
		t.Fatalf("delivered %d frames, want 2", got)
	}
	if sw.Dropped != 1 {
		t.Fatalf("switch dropped %d, want 1", sw.Dropped)
	}
}
