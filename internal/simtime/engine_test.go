package simtime

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	e.Run()
	if woke != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5µs", woke)
	}
}

func TestSequentialSleeps(t *testing.T) {
	e := NewEngine()
	var ts []Time
	e.Spawn("s", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Millisecond)
			ts = append(ts, p.Now())
		}
	})
	e.Run()
	want := []Time{Time(Millisecond), Time(2 * Millisecond), Time(3 * Millisecond)}
	for i := range want {
		if ts[i] != want[i] {
			t.Errorf("ts[%d] = %v, want %v", i, ts[i], want[i])
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(2 * Microsecond)
				order = append(order, "a")
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 2; i++ {
				p.Sleep(3 * Microsecond)
				order = append(order, "b")
			}
		})
		e.Run()
		return order
	}
	first := run()
	// t=2,3,4,6,6; at t=6 b wakes first because its wakeup was scheduled
	// earlier (at t=3) than a's (at t=4).
	want := []string{"a", "b", "a", "b", "a"}
	if len(first) != len(want) {
		t.Fatalf("order = %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: nondeterministic order %v", trial, got)
			}
		}
	}
}

func TestAtCallbacksRunInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(10, func() { order = append(order, 2) })
	e.At(5, func() { order = append(order, 0) })
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(Time(Second), func() { fired = true })
	end := e.RunUntil(Time(Millisecond))
	if fired {
		t.Fatal("event past deadline fired")
	}
	if end != Time(Millisecond) {
		t.Fatalf("end = %v, want 1ms", end)
	}
	e.Run()
	if !fired {
		t.Fatal("event did not fire after resuming")
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			n++
			if n == 10 {
				e.Stop()
				return
			}
		}
	})
	e.Run()
	if n != 10 {
		t.Fatalf("n = %d, want 10", n)
	}
}

// TestRunAfterStopResumes is the regression test for the Run-after-Stop
// bug: RunUntil never cleared `stopped`, so a stopped engine could never
// run again. The contract is now: Stop halts the current run; the next
// Run/RunUntil clears the flag and resumes from the still-queued events.
func TestRunAfterStopResumes(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(10, func() { fired = append(fired, 10); e.Stop() })
	e.At(20, func() { fired = append(fired, 20) })
	if end := e.RunUntil(100); end != 10 {
		t.Fatalf("first run ended at %v, want 10 (Stop)", end)
	}
	if !e.stopped {
		t.Fatal("engine not stopped after Stop")
	}
	if end := e.RunUntil(100); end != 20 {
		t.Fatalf("resumed run ended at %v, want 20 (queue drained)", end)
	}
	if e.stopped {
		t.Fatal("resumed run left the engine stopped")
	}
	if len(fired) != 2 || fired[1] != 20 {
		t.Fatalf("events fired = %v, want [10 20]", fired)
	}
}

// TestTimerRearmWhilePendingPanics pins the double-schedule contract:
// arming a Timer that is already Pending panics (the intrusive event is
// single-slot; silent re-arm would drop one of the two deadlines).
func TestTimerRearmWhilePendingPanics(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer(func() {})
	tm.ScheduleAt(100)
	if !tm.Pending() {
		t.Fatal("timer not pending after ScheduleAt")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-arming a pending timer did not panic")
		}
	}()
	tm.ScheduleAt(200)
}

// TestTimerScheduleAtPastClampsToNow: arming a timer in the virtual past
// fires it at the current instant rather than rewinding the clock.
func TestTimerScheduleAtPastClampsToNow(t *testing.T) {
	e := NewEngine()
	var firedAt Time
	var tm *Timer
	tm = e.NewTimer(func() { firedAt = e.Now() })
	e.At(500, func() { tm.ScheduleAt(100) })
	e.Run()
	if firedAt != 500 {
		t.Fatalf("past-scheduled timer fired at %v, want clamp to 500", firedAt)
	}
	if e.Now() != 500 {
		t.Fatalf("clock at %v after run, want 500", e.Now())
	}
}

func TestEventTriggerWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	ev := NewEvent[int](e)
	var got []int
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) { got = append(got, ev.Wait(p)) })
	}
	e.Spawn("t", func(p *Proc) {
		p.Sleep(Microsecond)
		ev.Trigger(42)
	})
	e.Run()
	if len(got) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(got))
	}
	for _, v := range got {
		if v != 42 {
			t.Fatalf("got %v", got)
		}
	}
}

func TestEventIsSticky(t *testing.T) {
	e := NewEngine()
	ev := NewEvent[string](e)
	ev.Trigger("x")
	ev.Trigger("y") // ignored
	var got string
	var at Time
	e.Spawn("late", func(p *Proc) {
		p.Sleep(Millisecond)
		got = ev.Wait(p)
		at = p.Now()
	})
	e.Run()
	if got != "x" {
		t.Fatalf("got %q, want x (second trigger must be ignored)", got)
	}
	if at != Time(Millisecond) {
		t.Fatalf("late waiter blocked; woke at %v", at)
	}
}

func TestEventWaitTimeout(t *testing.T) {
	e := NewEngine()
	ev := NewEvent[int](e)
	var ok1, ok2 bool
	var t1, t2 Time
	e.Spawn("timesout", func(p *Proc) {
		_, ok1 = ev.WaitTimeout(p, 10*Microsecond)
		t1 = p.Now()
	})
	e.Spawn("succeeds", func(p *Proc) {
		_, ok2 = ev.WaitTimeout(p, 100*Microsecond)
		t2 = p.Now()
	})
	e.Spawn("trigger", func(p *Proc) {
		p.Sleep(50 * Microsecond)
		ev.Trigger(1)
	})
	e.Run()
	if ok1 || t1 != Time(10*Microsecond) {
		t.Fatalf("waiter 1: ok=%v at %v, want timeout at 10µs", ok1, t1)
	}
	if !ok2 || t2 != Time(50*Microsecond) {
		t.Fatalf("waiter 2: ok=%v at %v, want success at 50µs", ok2, t2)
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Microsecond)
			q.Put(i)
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v", got)
		}
	}
}

func TestQueueBuffersWhenNoWaiter(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	q.Put("a")
	q.Put("b")
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	v, ok := q.TryGet()
	if !ok || v != "a" {
		t.Fatalf("TryGet = %q, %v", v, ok)
	}
	var second string
	e.Spawn("c", func(p *Proc) { second = q.Get(p) })
	e.Run()
	if second != "b" {
		t.Fatalf("second = %q", second)
	}
}

func TestQueueGetTimeout(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var ok bool
	var at Time
	e.Spawn("c", func(p *Proc) {
		_, ok = q.GetTimeout(p, 7*Microsecond)
		at = p.Now()
	})
	e.Run()
	if ok || at != Time(7*Microsecond) {
		t.Fatalf("ok=%v at=%v", ok, at)
	}
	// A timed-out waiter must not swallow a later Put.
	var got int
	e.Spawn("c2", func(p *Proc) { got = q.Get(p) })
	e.Spawn("p", func(p *Proc) { q.Put(99) })
	e.Run()
	if got != 99 {
		t.Fatalf("got %d, want 99", got)
	}
}

func TestResourceSerializesAccess(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * Microsecond)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []Time{Time(10 * Microsecond), Time(20 * Microsecond), Time(30 * Microsecond)}
	if len(finish) != 3 {
		t.Fatalf("finish = %v", finish)
	}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * Microsecond)
			r.Release()
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	// Two run in [0,10], two in [10,20].
	want := []Time{Time(10 * Microsecond), Time(10 * Microsecond), Time(20 * Microsecond), Time(20 * Microsecond)}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

// TestResourceReleaseAfterHandsOverLater: ReleaseAfter(d) passes the unit
// to the longest waiter, which resumes d later and learns it waited; with
// no waiter it frees the unit at once. Release is ReleaseAfter(0).
func TestResourceReleaseAfterHandsOverLater(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(r *Resource)
		delay   Duration
	}{
		{"ReleaseAfter(4µs)", func(r *Resource) { r.ReleaseAfter(4 * Microsecond) }, 4 * Microsecond},
		{"ReleaseAfter(0)", func(r *Resource) { r.ReleaseAfter(0) }, 0},
		{"Release", (*Resource).Release, 0},
	} {
		e := NewEngine()
		r := NewResource(e, 1)
		var resumed Time
		var waited bool
		e.Spawn("holder", func(p *Proc) {
			if r.Acquire(p) {
				t.Errorf("%s: holder's Acquire of a free unit reports a wait", tc.name)
			}
			p.Sleep(10 * Microsecond)
			tc.release(r)
		})
		e.Spawn("waiter", func(p *Proc) {
			p.Sleep(Microsecond)
			waited = r.Acquire(p)
			resumed = p.Now()
			r.Release()
		})
		e.Run()
		if want := Time(10 * Microsecond).Add(tc.delay); !waited || resumed != want {
			t.Errorf("%s with a waiter: resumed at %v (waited %v), want %v (true)", tc.name, resumed, waited, want)
		}

		e = NewEngine()
		r = NewResource(e, 1)
		e.Spawn("alone", func(p *Proc) {
			r.Acquire(p)
			tc.release(r)
			at, events := p.Now(), e.Events()
			if r.Acquire(p) || p.Now() != at || e.Events() != events {
				t.Errorf("%s without a waiter: the unit is not free at once", tc.name)
			}
			r.Release()
		})
		e.Run()
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(Microsecond)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(Microsecond)
			childAt = c.Now()
		})
		p.Sleep(10 * Microsecond)
	})
	e.Run()
	if childAt != Time(2*Microsecond) {
		t.Fatalf("child finished at %v, want 2µs", childAt)
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		500 * Nanosecond: "500ns",
		2 * Microsecond:  "2µs",
		Ms(1.5):          "1.5ms",
		3 * Second:       "3s",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestUsMsHelpers(t *testing.T) {
	if Us(2.5) != 2500*Nanosecond {
		t.Errorf("Us(2.5) = %v", Us(2.5))
	}
	if Ms(0.5) != 500*Microsecond {
		t.Errorf("Ms(0.5) = %v", Ms(0.5))
	}
	if Us(1).Micros() != 1 {
		t.Errorf("Micros() = %v", Us(1).Micros())
	}
	if Ms(1).Millis() != 1 {
		t.Errorf("Millis() = %v", Ms(1).Millis())
	}
	if Second.Seconds() != 1 {
		t.Errorf("Seconds() = %v", Second.Seconds())
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	if t0.Add(50) != Time(150) {
		t.Error("Add")
	}
	if Time(150).Sub(t0) != 50 {
		t.Error("Sub")
	}
}

func TestPendingProcsReportsBlocked(t *testing.T) {
	e := NewEngine()
	ev := NewEvent[int](e)
	e.Spawn("stuck", func(p *Proc) { ev.Wait(p) })
	e.Run() // drains: stuck is blocked forever, queue empties
	got := e.PendingProcs()
	if len(got) != 1 || got[0] != "stuck" {
		t.Fatalf("PendingProcs = %v", got)
	}
}

// TestQuickScheduleOrdering: for any random set of sleep schedules, every
// process observes Now() as non-decreasing and wakeups never fire early.
func TestQuickScheduleOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 64 {
			delays = delays[:64]
		}
		e := NewEngine()
		ok := true
		var last Time
		for _, d := range delays {
			d := Duration(d%5000) * Microsecond
			e.Spawn("s", func(p *Proc) {
				start := p.Now()
				p.Sleep(d)
				if p.Now() < start.Add(d) {
					ok = false // woke early
				}
			})
		}
		e.At(0, func() { last = e.Now() })
		prev := Time(-1)
		for i := 0; i < 16; i++ {
			at := Time(Duration(i) * 100 * Microsecond)
			e.At(at, func() {
				if e.Now() < prev {
					ok = false
				}
				prev = e.Now()
			})
		}
		e.Run()
		_ = last
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQueueOrderPreservedUnderMixedOps: random interleavings of puts and
// gets preserve FIFO order.
func TestQueueOrderPreservedUnderMixedOps(t *testing.T) {
	f := func(script []bool) bool {
		e := NewEngine()
		q := NewQueue[int](e)
		var got []int
		want := 0
		e.Spawn("driver", func(p *Proc) {
			next := 0
			for _, put := range script {
				if put {
					q.Put(next)
					next++
					want++
				} else if v, ok := q.TryGet(); ok {
					got = append(got, v)
				}
				p.Sleep(Microsecond)
			}
			for {
				v, ok := q.TryGet()
				if !ok {
					break
				}
				got = append(got, v)
			}
		})
		e.Run()
		if len(got) != want {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sleepLoop spawns a process that sleeps d forever, appending each wake
// time to *wakes.
func sleepLoop(e *Engine, d Duration, wakes *[]Time) {
	e.Spawn("loop", func(p *Proc) {
		for {
			p.Sleep(d)
			*wakes = append(*wakes, p.Now())
		}
	})
}

// TestRunUntilResumesSleepingProc: a process whose next wake lies past the
// deadline hands the baton back at the deadline, and the next RunUntil
// resumes it where it left off. In the second case the process's own wake
// lands exactly on the run's exclusive limit, deadline+1.
func TestRunUntilResumesSleepingProc(t *testing.T) {
	type step struct {
		deadline Time
		wakes    []Time
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"wake_past_deadline", []step{{25, []Time{10, 20}}, {40, []Time{10, 20, 30, 40}}}},
		{"wake_on_exclusive_limit", []step{{19, []Time{10}}, {20, []Time{10, 20}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			var wakes []Time
			sleepLoop(e, 10, &wakes)
			for _, s := range tc.steps {
				if end := e.RunUntil(s.deadline); end != s.deadline {
					t.Fatalf("RunUntil(%v) = %v, want %v", s.deadline, end, s.deadline)
				}
				if !slices.Equal(wakes, s.wakes) {
					t.Fatalf("wakes after RunUntil(%v) = %v, want %v", s.deadline, wakes, s.wakes)
				}
			}
		})
	}
}

// TestStopFromProcThenSleep: a Stop issued by a process ends the run when
// the process next blocks, and the next Run resumes it.
func TestStopFromProcThenSleep(t *testing.T) {
	e := NewEngine()
	var resumed Time
	e.Spawn("stopper", func(p *Proc) {
		p.Sleep(30)
		e.Stop()
		p.Sleep(10)
		resumed = p.Now()
	})
	if end := e.Run(); end != 30 {
		t.Fatalf("Run = %v, want 30 (Stop)", end)
	}
	if resumed != 0 {
		t.Fatalf("process resumed at %v inside the stopped run", resumed)
	}
	if end := e.Run(); end != 40 || resumed != 40 {
		t.Fatalf("second Run = %v, process resumed at %v; want both 40", end, resumed)
	}
}

// TestSpawnStartsNoGoroutine: a process's goroutine starts on its first
// hand-off, not at Spawn. (The count may drop while goroutines of earlier
// tests finish exiting; it must not grow.)
func TestSpawnStartsNoGoroutine(t *testing.T) {
	e := NewEngine()
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e.Spawn("idle", func(p *Proc) {})
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("100 Spawns without Run: %d goroutines, want at most %d", after, before)
	}
}

// TestProcGoexitStopsRun: a process that exits without returning (as
// t.FailNow does) stops the run instead of hanging it.
func TestProcGoexitStopsRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("quitter", func(p *Proc) {
		p.Sleep(10)
		runtime.Goexit()
	})
	if end := e.Run(); end != 10 {
		t.Fatalf("Run = %v, want 10", end)
	}
	if got := e.PendingProcs(); len(got) != 1 || got[0] != "quitter" {
		t.Fatalf("PendingProcs = %v, want [quitter]", got)
	}
}

// TestCallbackGoexitOnProcGoroutine: a callback runs on whichever
// goroutine holds the baton — here a sleeping process's — and a Goexit
// there stops the run too. The process whose goroutine died is never
// handed the baton again.
func TestCallbackGoexitOnProcGoroutine(t *testing.T) {
	e := NewEngine()
	var wakes []Time
	sleepLoop(e, 10, &wakes)
	e.At(25, func() { runtime.Goexit() })
	if end := e.Run(); end != 25 {
		t.Fatalf("Run = %v, want 25", end)
	}
	if end := e.Run(); end != 25 {
		t.Fatalf("Run after the Goexit = %v, want 25 (dead process skipped)", end)
	}
	if want := []Time{10, 20}; !slices.Equal(wakes, want) {
		t.Fatalf("wakes = %v, want %v", wakes, want)
	}
}

// TestScheduleBelowSkippedWake: the run after a Goexit skips the dead
// process's wake at 30 without moving the clock from 25, so later schedule
// calls land before the skipped wake's instant. They still run in time
// order.
func TestScheduleBelowSkippedWake(t *testing.T) {
	e := NewEngine()
	var wakes []Time
	sleepLoop(e, 10, &wakes)
	e.At(25, func() { runtime.Goexit() })
	e.Run()
	if end := e.Run(); end != 25 {
		t.Fatalf("Run after the Goexit = %v, want 25", end)
	}
	var order []Time
	for _, at := range []Time{31, 27} {
		e.At(at, func() { order = append(order, e.Now()) })
	}
	e.Run()
	if want := []Time{27, 31}; !slices.Equal(order, want) {
		t.Fatalf("callbacks ran at %v, want %v", order, want)
	}
}

// sleepUntilRun drives waiters that queue on a shared deadline, which
// callbacks and the waiters themselves keep extending at seeded random
// instants, and returns the run's interleaving trace, Events count and
// final clock. With ref set the waiters use the reference loop that
// SleepUntil replaces. Some extensions are made by an event scheduled at
// the very instant the deadline ends, so it runs just before a waiter's
// wake at that instant. The run advances in random RunUntil slices, so
// re-armed wakes also land past a run's deadline.
func sleepUntilRun(seed int64, ref bool) (string, uint64, Time) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var busy Time
	var log strings.Builder
	wait := func(p *Proc) {
		if ref {
			for busy > p.Now() {
				p.Sleep(busy.Sub(p.Now()))
			}
			return
		}
		p.SleepUntil(&busy)
	}
	var extend func(string)
	extend = func(who string) {
		busy = e.Now().Add(Duration(1 + rng.Intn(20)))
		fmt.Fprintf(&log, "%d %s extends to %d\n", e.Now(), who, busy)
		if rng.Intn(3) == 0 {
			e.At(busy, func() { extend("edge") })
		}
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("w%d", i)
		e.Spawn(name, func(p *Proc) {
			for k := 0; k < 40; k++ {
				p.Sleep(Duration(rng.Intn(15)))
				fmt.Fprintf(&log, "%d %s waits for %d\n", p.Now(), name, busy)
				wait(p)
				fmt.Fprintf(&log, "%d %s enters\n", p.Now(), name)
				if rng.Intn(2) == 0 {
					extend(name)
				}
			}
		})
	}
	for i := 0; i < 60; i++ {
		e.At(Time(rng.Intn(600)), func() {
			if rng.Intn(2) == 0 {
				extend("cb")
			}
		})
	}
	for end := Time(0); ; {
		if _, ok := e.peek(); !ok {
			break
		}
		end += Time(rng.Intn(40))
		e.RunUntil(end)
	}
	return log.String(), e.Events(), e.Now()
}

// TestSleepUntilMatchesSleepLoop: SleepUntil wakes at the same instants,
// dispatches the same events and interleaves with other processes and
// callbacks exactly as the reference loop
// "for *t > now { Sleep(*t - now) }", over seeded random deadline moves.
func TestSleepUntilMatchesSleepLoop(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		wantLog, wantEvents, wantNow := sleepUntilRun(seed, true)
		gotLog, gotEvents, gotNow := sleepUntilRun(seed, false)
		if gotLog != wantLog {
			t.Fatalf("seed %d: trace diverges from the reference loop:\n--- want ---\n%s--- got ---\n%s", seed, wantLog, gotLog)
		}
		if gotEvents != wantEvents || gotNow != wantNow {
			t.Fatalf("seed %d: Events %d at %v, reference loop %d at %v", seed, gotEvents, gotNow, wantEvents, wantNow)
		}
		if !strings.Contains(wantLog, "edge extends") {
			t.Fatalf("seed %d: no extension ran at a deadline instant", seed)
		}
	}
}

// TestSleepUntilPastDeadline: SleepUntil on a deadline that is not after
// the current time returns at once. It schedules nothing and does not
// yield, so an event due at the same instant has not run yet.
func TestSleepUntilPastDeadline(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		e.At(10, func() { ran = true })
		seq, events := e.seq, e.Events()
		for _, d := range []Time{0, 9, 10} {
			p.SleepUntil(&d)
		}
		if e.seq != seq || e.Events() != events || ran || p.Now() != 10 {
			t.Errorf("SleepUntil on a passed deadline: seq %d→%d, events %d→%d, callback ran %v, now %v",
				seq, e.seq, events, e.Events(), ran, p.Now())
		}
	})
	e.Run()
	if !ran {
		t.Fatal("the callback never ran")
	}
}

// TestRunUntilPastDeadlineKeepsClock: RunUntil with a deadline before Now()
// runs nothing and leaves the clock alone, so work scheduled afterwards
// never runs before an instant the clock has already reached.
func TestRunUntilPastDeadlineKeepsClock(t *testing.T) {
	e := NewEngine()
	e.At(200, func() {})
	if end := e.RunUntil(100); end != 100 {
		t.Fatalf("RunUntil(100) = %v, want 100", end)
	}
	if end := e.RunUntil(50); end != 100 || e.Now() != 100 {
		t.Fatalf("RunUntil(50) at 100 = %v with Now %v, want both 100", end, e.Now())
	}
	var ran Time
	e.After(10, func() { ran = e.Now() })
	e.Run()
	if ran != 110 {
		t.Fatalf("After(10) scheduled at 100 ran at %v, want 110", ran)
	}
}

// goid returns the calling goroutine's ID, read from its stack trace.
func goid() string {
	var buf [32]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1] // "goroutine N [running]:"
}

// TestFinishedProcGoroutinesAreReused: a finished process's goroutine runs
// later processes, so a stream of short processes needs only as many
// goroutines as ever run at once. Here a spawner starts 1000 processes 3
// ns apart and each sleeps 10 ns, so at most four of them overlap.
func TestFinishedProcGoroutinesAreReused(t *testing.T) {
	e := NewEngine()
	before := runtime.NumGoroutine()
	seen := map[string]bool{}
	idle := 0
	e.Spawn("spawner", func(p *Proc) {
		seen[goid()] = true
		for i := 0; i < 1000; i++ {
			e.Spawn("short", func(p *Proc) {
				seen[goid()] = true
				idle = max(idle, len(e.idle))
				p.Sleep(10)
			})
			p.Sleep(3)
		}
	})
	e.Run()
	idle = max(idle, len(e.idle))
	if len(seen) > 5 || idle > 5 {
		t.Fatalf("1001 processes ran on %d goroutines with up to %d idle, want at most 5 each", len(seen), idle)
	}
	if grown := runtime.NumGoroutine() - before; grown > 5 {
		t.Fatalf("%d goroutines left after the run, want at most 5", grown)
	}
}

// TestSpawnSteadyStateAllocs: once a finished process's goroutine is idle,
// Spawn plus running the process to its end allocates only the Proc and
// its wake closure.
func TestSpawnSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	run := func() {
		e.Spawn("short", func(p *Proc) {})
		e.Run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs > 2 {
		t.Fatalf("Spawn plus finish allocates %.1f times, want at most 2", allocs)
	}
}

// TestGoexitOnReusedWorker: a goroutine that exits through Goexit after
// running another process stops the run and never rejoins the idle pool,
// whether the Goexit comes from a process body or from a callback run in
// a finished process's event loop. A process spawned afterwards still runs
// to completion.
func TestGoexitOnReusedWorker(t *testing.T) {
	after := func(t *testing.T, e *Engine, pending ...string) {
		t.Helper()
		if got := e.PendingProcs(); !slices.Equal(got, pending) {
			t.Fatalf("PendingProcs = %v, want %v", got, pending)
		}
		if len(e.idle) != 0 {
			t.Fatalf("%d idle workers after the only one exited, want 0", len(e.idle))
		}
		start, done := e.Now(), false
		e.Spawn("after", func(p *Proc) {
			p.Sleep(5)
			done = true
		})
		if end := e.Run(); end != start+5 || !done {
			t.Fatalf("Run after the Goexit = %v (process done: %v), want %v", end, done, start+5)
		}
	}
	quitter := func(e *Engine, g *string) {
		e.Spawn("quitter", func(p *Proc) {
			*g = goid()
			p.Sleep(10)
			runtime.Goexit()
		})
	}
	t.Run("body on an idle worker", func(t *testing.T) {
		e := NewEngine()
		var first, quit string
		e.Spawn("first", func(p *Proc) { first = goid() })
		e.Run()
		quitter(e, &quit)
		if end := e.Run(); end != 10 || quit != first {
			t.Fatalf("Run = %v on goroutine %s, want 10 on the finished process's %s", end, quit, first)
		}
		after(t, e, "quitter")
	})
	t.Run("body started directly", func(t *testing.T) {
		e := NewEngine()
		var first, quit string
		e.Spawn("first", func(p *Proc) { first = goid() })
		quitter(e, &quit)
		if end := e.Run(); end != 10 || quit != first {
			t.Fatalf("Run = %v on goroutine %s, want 10 on the finished process's %s", end, quit, first)
		}
		after(t, e, "quitter")
	})
	t.Run("callback after a body returns", func(t *testing.T) {
		e := NewEngine()
		e.Spawn("short", func(p *Proc) {
			p.Sleep(10)
			e.At(10, func() { runtime.Goexit() }) // runs in this worker's next
		})
		if end := e.Run(); end != 10 {
			t.Fatalf("Run = %v, want 10", end)
		}
		after(t, e)
	})
}
