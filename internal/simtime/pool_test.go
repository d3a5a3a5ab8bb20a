package simtime

import (
	"fmt"
	"testing"
)

// TestQueueTimeoutCompactsEagerly: a timed-out Getter's waiter record must
// leave the wait list immediately, not linger until the next Put skims it.
func TestQueueTimeoutCompactsEagerly(t *testing.T) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	eng.Spawn("getter", func(p *Proc) {
		if _, ok := q.GetTimeout(p, 10); ok {
			t.Error("got a value from an empty queue")
		}
		if got := q.waiters.len(); got != 0 {
			t.Errorf("stale waiter left in list after timeout: %d", got)
		}
	})
	eng.Run()

	// A Put after the timeout must buffer the item (no waiter to swallow it).
	q.Put(42)
	if v, ok := q.TryGet(); !ok || v != 42 {
		t.Fatalf("item after timeout: got %v,%v want 42,true", v, ok)
	}
}

// TestEventTimeoutCompactsEagerly: same property for Event.WaitTimeout.
func TestEventTimeoutCompactsEagerly(t *testing.T) {
	eng := NewEngine()
	ev := NewEvent[string](eng)
	eng.Spawn("waiter", func(p *Proc) {
		if _, ok := ev.WaitTimeout(p, 10); ok {
			t.Error("wait succeeded without a trigger")
		}
		if got := len(ev.waiters); got != 0 {
			t.Errorf("stale waiter left in list after timeout: %d", got)
		}
	})
	eng.Run()
}

// TestTimeoutGenGuard: a waiter record recycled between a timeout's
// scheduling and its firing must not be corrupted by the stale callback.
// The first GetTimeout is satisfied early; its record is recycled by the
// second GetTimeout; the first deadline then passes and must be a no-op.
func TestTimeoutGenGuard(t *testing.T) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	eng.Spawn("getter", func(p *Proc) {
		// Satisfied at t=1, deadline at t=10 left pending.
		if v, ok := q.GetTimeout(p, 10); !ok || v != 1 {
			t.Errorf("first get: got %v,%v want 1,true", v, ok)
		}
		// Reuses the pooled record; its deadline is t≈101. The stale t=10
		// callback fires mid-wait and must not fake a timeout.
		if v, ok := q.GetTimeout(p, 100); !ok || v != 2 {
			t.Errorf("second get: got %v,%v want 2,true", v, ok)
		}
	})
	eng.After(1, func() { q.Put(1) })
	eng.After(50, func() { q.Put(2) })
	eng.Run()
}

// TestEventTimeoutGenGuard: the same reuse race through Event. The event
// triggers before the deadline; the waiter record is recycled onto a second
// event whose wait spans the stale deadline.
func TestEventTimeoutGenGuard(t *testing.T) {
	eng := NewEngine()
	ev1 := NewEvent[int](eng)
	ev2 := NewEvent[int](eng)
	eng.Spawn("waiter", func(p *Proc) {
		if v, ok := ev1.WaitTimeout(p, 10); !ok || v != 1 {
			t.Errorf("first wait: got %v,%v want 1,true", v, ok)
		}
		if v, ok := ev2.WaitTimeout(p, 100); !ok || v != 2 {
			t.Errorf("second wait: got %v,%v want 2,true", v, ok)
		}
	})
	eng.After(1, func() { ev1.Trigger(1) })
	eng.After(50, func() { ev2.Trigger(2) })
	eng.Run()
}

// TestResourceFIFOFairness: under sustained contention a capacity-1
// resource admits processes strictly in arrival order.
func TestResourceFIFOFairness(t *testing.T) {
	eng := NewEngine()
	r := NewResource(eng, 1)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		// Stagger arrivals so the queue order is unambiguous.
		eng.After(Duration(i+1), func() {
			eng.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				r.Acquire(p)
				order = append(order, i)
				p.Sleep(100) // hold long enough that all later arrivals queue
				r.Release()
			})
		})
	}
	eng.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v: position %d got worker %d", order, i, got)
		}
	}
	if len(order) != 8 {
		t.Fatalf("only %d of 8 workers ran", len(order))
	}
}

// mixedWorkload drives procs, sleeps, queues (both consumption styles),
// events with and without timeouts, timers, and a contended resource, and
// returns the full event log as "time:tag" strings.
func mixedWorkload() []string {
	eng := NewEngine()
	var log []string
	mark := func(tag string) { log = append(log, fmt.Sprintf("%d:%s", eng.Now(), tag)) }

	q := NewQueue[int](eng)
	cbq := NewQueue[int](eng)
	ev := NewEvent[int](eng)
	res := NewResource(eng, 2)

	var onItem func(int)
	onItem = func(v int) {
		mark(fmt.Sprintf("cb=%d", v))
		cbq.OnNext(onItem)
	}
	cbq.OnNext(onItem)

	for i := 0; i < 4; i++ {
		i := i
		eng.Spawn(fmt.Sprintf("prod%d", i), func(p *Proc) {
			for j := 0; j < 8; j++ {
				p.Sleep(Duration(3 + i))
				q.Put(i*100 + j)
				cbq.Put(i*100 + j)
			}
		})
		eng.Spawn(fmt.Sprintf("cons%d", i), func(p *Proc) {
			for j := 0; j < 8; j++ {
				if v, ok := q.GetTimeout(p, Duration(5+i)); ok {
					mark(fmt.Sprintf("got=%d", v))
				} else {
					mark("timeout")
				}
				res.Acquire(p)
				p.Sleep(2)
				res.Release()
			}
			if v, ok := ev.WaitTimeout(p, 40); ok {
				mark(fmt.Sprintf("ev=%d", v))
			} else {
				mark("evto")
			}
		})
	}
	tick := 0
	var tm *Timer
	tm = eng.NewTimer(func() {
		tick++
		mark(fmt.Sprintf("tick%d", tick))
		if tick < 10 {
			tm.ScheduleAfter(7)
		}
	})
	tm.ScheduleAfter(7)
	eng.After(60, func() { ev.Trigger(999) })
	eng.Run()
	log = append(log, fmt.Sprintf("end:%d:%d", eng.Now(), eng.Events()))
	return log
}

// TestDeterminismAB runs the mixed workload twice and compares the full
// event logs: pooling and free-list state must never leak into ordering.
func TestDeterminismAB(t *testing.T) {
	a, b := mixedWorkload(), mixedWorkload()
	if len(a) != len(b) {
		t.Fatalf("log lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("logs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestSleepWakeZeroAlloc: steady-state Sleep/wake must not allocate — the
// wake event is intrusive in the Proc and the queue slot is recycled.
func TestSleepWakeZeroAlloc(t *testing.T) {
	eng := NewEngine()
	ping := NewQueue[struct{}](eng)
	eng.Spawn("sleeper", func(p *Proc) {
		for {
			ping.Get(p)
			p.Sleep(1)
		}
	})
	step := func() {
		ping.Put(struct{}{})
		eng.RunUntil(eng.Now().Add(Us(1)))
	}
	step() // warm the waiter pool and queue ring
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("steady-state Sleep/wake allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestFirstWaitAllocatesNothing: a primitive's first wait takes its inline
// waiter record and the first slot of its inline wait list, so waiting on
// a fresh Event or Queue, the way a connection waits on its CQ and its
// set-up events, allocates nothing.
func TestFirstWaitAllocatesNothing(t *testing.T) {
	const runs = 100
	eng := NewEngine()
	evs := make([]*Event[int], runs+1) // one fresh pair per step
	qs := make([]*Queue[int], runs+1)
	for i := range evs {
		evs[i], qs[i] = NewEvent[int](eng), NewQueue[int](eng)
	}
	ping := NewQueue[struct{}](eng)
	next, got := 0, 0
	eng.Spawn("waiter", func(p *Proc) {
		for {
			ping.Get(p)
			got += evs[next].Wait(p)
			got += qs[next].Get(p)
			next++
		}
	})
	step := func() {
		ev, q := evs[next], qs[next]
		ping.Put(struct{}{})
		eng.RunUntil(eng.Now().Add(1)) // parked on ev
		ev.Trigger(1)
		eng.RunUntil(eng.Now().Add(1)) // parked on q
		q.Put(1)
		eng.RunUntil(eng.Now().Add(1))
	}
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Fatalf("a first wait on a fresh Event and on a fresh Queue makes %.1f allocations, want 0", allocs)
	}
	if next != runs+1 || got != 2*(runs+1) {
		t.Fatalf("%d steps delivered %d values, want %d and %d", next, got, runs+1, 2*(runs+1))
	}
}

// TestQueueStandingBacklogStaysSmall: a FIFO that never drains reuses its
// slice instead of growing by a slot per push. A Queue's items, a Queue's
// waiters and a Resource's waiters each keep a standing backlog of 8 for
// 100k cycles, in FIFO order, and no slice may outgrow a few times that.
func TestQueueStandingBacklogStaysSmall(t *testing.T) {
	const backlog, cycles = 8, 100_000
	const maxCap = 4 * backlog

	eng := NewEngine()
	q := NewQueue[int](eng)
	for i := 0; i < backlog; i++ {
		q.Put(i)
	}
	for i := backlog; i < cycles; i++ {
		q.Put(i)
		if v, ok := q.TryGet(); !ok || v != i-backlog {
			t.Fatalf("cycle %d: got %d, %v; want %d", i, v, ok, i-backlog)
		}
	}
	if c := cap(q.items.s); c > maxCap {
		t.Errorf("items: cap %d after %d cycles with %d queued, want <= %d", c, cycles, q.Len(), maxCap)
	}

	// Getters re-queue at the tail as soon as a Put serves them, so the
	// wait list never drains.
	eng = NewEngine()
	wq := NewQueue[int](eng)
	next, served := 0, 0
	for g := 0; g < backlog; g++ {
		eng.Spawn("getter", func(p *Proc) {
			for served < cycles {
				if v := wq.Get(p); v != next {
					t.Errorf("getter got %d, want %d", v, next)
				}
				next++
				served++
			}
		})
	}
	eng.Spawn("putter", func(p *Proc) {
		for i := 0; served < cycles; i++ {
			p.Sleep(1)
			wq.Put(i)
		}
	})
	eng.Run()
	if c := cap(wq.waiters.s); c > maxCap {
		t.Errorf("queue waiters: cap %d after %d cycles, want <= %d", c, cycles, maxCap)
	}

	eng = NewEngine()
	r := NewResource(eng, 1)
	held := 0
	for w := 0; w < backlog; w++ {
		eng.Spawn("holder", func(p *Proc) {
			for held < cycles {
				r.Acquire(p)
				held++
				p.Sleep(1)
				r.Release()
			}
		})
	}
	eng.Run()
	if c := cap(r.waiters.s); c > maxCap {
		t.Errorf("resource waiters: cap %d after %d cycles, want <= %d", c, cycles, maxCap)
	}
}
