package virtio

import (
	"fmt"
	"testing"

	"masq/internal/simtime"
)

func TestCallRoundTripCost(t *testing.T) {
	eng := simtime.NewEngine()
	ring := NewRing(eng)
	var elapsed simtime.Duration
	var resp int
	eng.Spawn("guest", func(p *simtime.Proc) {
		start := p.Now()
		ring.Call(p, func() { resp = 21 * 2 })
		elapsed = p.Now().Sub(start)
	})
	eng.Run()
	if resp != 42 {
		t.Fatalf("resp = %v", resp)
	}
	if elapsed != simtime.Us(20) {
		t.Fatalf("RTT = %v, want 20µs (paper's measured virtio overhead)", elapsed)
	}
}

func TestHandlerWorkAddsToRTT(t *testing.T) {
	eng := simtime.NewEngine()
	ring := NewRing(eng)
	var elapsed simtime.Duration
	eng.Spawn("guest", func(p *simtime.Proc) {
		start := p.Now()
		ring.Call(p, func() { p.Sleep(simtime.Us(100)) }) // device work
		elapsed = p.Now().Sub(start)
	})
	eng.Run()
	if elapsed != simtime.Us(120) {
		t.Fatalf("elapsed = %v, want 120µs", elapsed)
	}
}

func TestCallsAreSerializedFIFO(t *testing.T) {
	eng := simtime.NewEngine()
	var order []int
	ring := NewRing(eng)
	for i := 0; i < 3; i++ {
		eng.Spawn("guest", func(p *simtime.Proc) {
			p.Sleep(simtime.Duration(i) * simtime.Microsecond)
			ring.Call(p, func() { order = append(order, i) })
		})
	}
	eng.Run()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestBatchSharesKickAndIRQ(t *testing.T) {
	eng := simtime.NewEngine()
	ring := NewRing(eng)
	var served int
	handle := func(p *simtime.Proc) {
		p.Sleep(simtime.Us(10))
		served++
	}
	var batched, serial simtime.Duration
	eng.Spawn("guest", func(p *simtime.Proc) {
		start := p.Now()
		ring.Call(p, func() {
			for i := 0; i < 4; i++ {
				handle(p)
			}
		})
		batched = p.Now().Sub(start)
		if served != 4 {
			t.Errorf("batch served %d commands, want 4", served)
		}
		start = p.Now()
		for i := 0; i < 4; i++ {
			ring.Call(p, func() { handle(p) })
		}
		serial = p.Now().Sub(start)
	})
	eng.Run()
	// Batched: one kick(8) + one hostproc(4) + 4×10 work + one irq(8) = 60µs.
	if batched != simtime.Us(60) {
		t.Fatalf("batched = %v, want 60µs", batched)
	}
	// Serial: 4 × (20 + 10) = 120µs.
	if serial != simtime.Us(120) {
		t.Fatalf("serial = %v, want 120µs", serial)
	}
}

// TestCallAllocatesNothing: a steady-state round trip allocates nothing.
func TestCallAllocatesNothing(t *testing.T) {
	eng := simtime.NewEngine()
	ring := NewRing(eng)
	ping := simtime.NewQueue[struct{}](eng)
	eng.Spawn("guest", func(p *simtime.Proc) {
		for {
			ping.Get(p)
			ring.Call(p, func() {})
		}
	})
	step := func() {
		ping.Put(struct{}{})
		eng.RunUntil(eng.Now().Add(simtime.Us(100)))
	}
	step() // warm the queue and the engine's pools
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("Call allocates %.1f per round trip, want 0", allocs)
	}
}

// TestRTTHelper: the default ring round trip, excluding service work, is
// calibrated to 20 µs.
func TestRTTHelper(t *testing.T) {
	if rtt := KickCost + hostProc + IRQCost; rtt != simtime.Us(20) {
		t.Fatalf("RTT = %v", rtt)
	}
}

// BenchmarkRingCall measures one guest Call with a no-op service: the kick,
// the ring-service leg and the IRQ. The guest's proc runs every leg and
// each wake is its own, so there is no goroutine hand-off, and a call
// makes no allocation.
func BenchmarkRingCall(b *testing.B) {
	eng := simtime.NewEngine()
	ring := NewRing(eng)
	n := b.N
	eng.Spawn("guest", func(p *simtime.Proc) {
		for i := 0; i < n; i++ {
			ring.Call(p, func() {})
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkRingCallContended runs two guests on one ring, with a service
// that sleeps 1 µs, so their round trips interleave and every call hands
// the baton between the guests' goroutines. One op is one Call.
func BenchmarkRingCallContended(b *testing.B) {
	eng := simtime.NewEngine()
	ring := NewRing(eng)
	for g, n := range [2]int{b.N - b.N/2, b.N / 2} {
		eng.Spawn(fmt.Sprintf("guest%d", g), func(p *simtime.Proc) {
			for i := 0; i < n; i++ {
				ring.Call(p, func() { p.Sleep(simtime.Microsecond) })
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}
