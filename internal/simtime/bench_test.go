package simtime

import "testing"

// BenchmarkSleepWake measures one Sleep/wake round trip of a single proc:
// the proc schedules its intrusive wake event and, holding the baton, runs
// the event loop until that event fires, with no goroutine switch. Steady
// state must be 0 allocs/op — the wake event is pre-allocated in the Proc
// and the queue's slot is recycled.
func BenchmarkSleepWake(b *testing.B) {
	eng := NewEngine()
	n := b.N
	eng.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkTimer measures a self-rescheduling Timer callback: the pure
// engine-loop path with no goroutine handoff at all. 0 allocs/op.
func BenchmarkTimer(b *testing.B) {
	eng := NewEngine()
	n := b.N
	var t *Timer
	t = eng.NewTimer(func() {
		if n--; n > 0 {
			t.ScheduleAfter(1)
		}
	})
	t.ScheduleAfter(1)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkAfter measures closure-scheduled events through the engine's
// event free list: the event object is pooled, the closure is the only
// allocation (1 alloc/op).
func BenchmarkAfter(b *testing.B) {
	eng := NewEngine()
	n := b.N
	var step func()
	step = func() {
		if n--; n > 0 {
			eng.After(1, step)
		}
	}
	eng.After(1, step)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkQueueCallback measures the OnNext fast path: a producer timer
// puts an item, the armed callback consumes it inline and re-arms. This is
// the pattern the RNIC pipelines run per packet. 0 allocs/op.
func BenchmarkQueueCallback(b *testing.B) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	n := b.N
	var tick *Timer
	var onItem func(int)
	onItem = func(int) {
		if n--; n > 0 {
			q.OnNext(onItem)
			tick.ScheduleAfter(1)
		}
	}
	tick = eng.NewTimer(func() { q.Put(1) })
	q.OnNext(onItem)
	tick.ScheduleAfter(1)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkQueueProcPingPong measures the blocking path: a producer proc
// and a consumer proc alternating Put/Get, so every Get parks the consumer
// and every Put wakes it through the pooled waiter records. 0 allocs/op in
// steady state.
func BenchmarkQueueProcPingPong(b *testing.B) {
	eng := NewEngine()
	q := NewQueue[int](eng)
	n := b.N
	eng.Spawn("producer", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.Put(i)
			p.Sleep(1)
		}
	})
	eng.Spawn("consumer", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.Get(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkProcRoundRobin measures proc-to-proc hand-offs: 64 procs sleep
// in a staggered ring, so every wake belongs to a different proc than the
// one that just blocked and each one passes the baton once. This is the
// control-plane pattern (many RPC procs taking turns). 0 allocs/op.
func BenchmarkProcRoundRobin(b *testing.B) {
	const procs = 64
	eng := NewEngine()
	n := b.N
	for i := 0; i < procs; i++ {
		eng.Spawn("ring", func(p *Proc) {
			p.Sleep(Duration(i))
			for k := i; k < n; k += procs {
				p.Sleep(procs)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkSpawnChurn measures a stream of short procs, one per op: a
// timer spawns a proc every nanosecond, and each proc sleeps once and
// returns. The proc whose sleep ends first finishes and starts the next one
// on its own goroutine, so steady state needs no goroutine creation and no
// hand-off. 2 allocs/op: the Proc and its wake closure.
func BenchmarkSpawnChurn(b *testing.B) {
	eng := NewEngine()
	n := b.N
	body := func(p *Proc) { p.Sleep(1) }
	var t *Timer
	t = eng.NewTimer(func() {
		eng.Spawn("short", body)
		if n--; n > 0 {
			t.ScheduleAfter(1)
		}
	})
	t.ScheduleAfter(1)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkResource measures Acquire/Release handoff between two procs
// contending for a capacity-1 resource (the firmware-serialization
// pattern). Waiter records are pooled; 0 allocs/op in steady state.
func BenchmarkResource(b *testing.B) {
	eng := NewEngine()
	r := NewResource(eng, 1)
	n := b.N
	worker := func(p *Proc) {
		for i := 0; i < n/2; i++ {
			r.Acquire(p)
			p.Sleep(1)
			r.Release()
		}
	}
	eng.Spawn("w1", worker)
	eng.Spawn("w2", worker)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkEventHeap measures raw push/take through the event queue with a
// 1024-deep backlog within the next 4096 ns, which a timer keeps refilling:
// a dense queue, where most takes spread a low bucket. 0 allocs/op.
func BenchmarkEventHeap(b *testing.B) {
	eng := NewEngine()
	const depth = 1024
	n := b.N
	fn := func() {}
	// Seed a standing backlog so push/take exercise a deep queue.
	for i := 0; i < depth; i++ {
		eng.After(Duration(1+(i*7919)%4096), fn)
	}
	var t *Timer
	t = eng.NewTimer(func() {
		if n--; n > 0 {
			t.ScheduleAfter(Duration(1 + (n*7919)%4096))
		}
	})
	t.ScheduleAfter(1)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkEventQueueFarBacklog measures the event queue with the shape of
// the repository benchmark's connect workload: 6000 callbacks spread over
// the next 30 s of virtual time, each re-arming 30 s ahead when it fires so
// the backlog stands, and a timer that re-arms 1 µs ahead. Nearly every
// dispatch is the timer's, with the backlog queued far behind it. 0
// allocs/op.
func BenchmarkEventQueueFarBacklog(b *testing.B) {
	const backlog = 6000
	const span = 30 * Second
	eng := NewEngine()
	n := b.N
	var refill func()
	refill = func() { eng.After(span, refill) }
	for i := 1; i <= backlog; i++ {
		eng.After(span*Duration(i)/backlog, refill)
	}
	var t *Timer
	t = eng.NewTimer(func() {
		if n--; n > 0 {
			t.ScheduleAfter(Microsecond)
		} else {
			eng.Stop()
		}
	})
	t.ScheduleAfter(Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}
