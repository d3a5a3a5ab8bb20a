// Package simtime implements a deterministic discrete-event simulation
// engine in the style of SimPy: simulated components run as cooperative
// processes, exactly one of which executes at a time. Each process runs
// on a goroutine the engine manages, and when a process finishes, its
// goroutine goes on to run the engine's next new process, so a stream of
// short processes needs only as many goroutines as ever run at once.
//
// Control moves as a baton, and whichever goroutine holds it runs the
// event loop: the caller of Run or RunUntil, or a process that has just
// blocked in Sleep, SleepUntil, Wait, Queue.Get or Resource.Acquire. The
// holder dispatches events in time order, running callbacks inline on its
// own goroutine, until one wakes a process. If that is the holder itself,
// its blocking call returns with no goroutine switch; otherwise one
// channel send hands the baton straight to the woken process. The baton
// returns to the run's caller only when the run ends: at its deadline, on
// Stop, or when the queue drains.
//
// So a callback may run on any process's goroutine and must not depend on
// which one. A process goroutine that exits without returning — through
// runtime.Goexit, as t.FailNow does, in the process body or in a callback
// it ran — stops the run and hands the baton back to the caller: Run
// returns instead of hanging, the process stays in PendingProcs, and the
// dead goroutine runs no later process.
// Panics are not recovered. A panic in a callback reaches a recover around
// Run only if no process held the baton when the callback ran.
//
// Virtual time is an int64 nanosecond count starting at zero. There is no
// wall clock anywhere in the engine, so a simulation run is a pure function
// of its inputs: the same program produces the same event order and the
// same timestamps on every run. Events at one instant run in the order they
// were scheduled. Pending events wait in a FIFO for the current instant and
// in a monotone radix heap for later ones (radix.go), which relies on
// virtual time never moving back.
package simtime

import (
	"fmt"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Us returns a Duration of us microseconds. Fractional microseconds are
// preserved to nanosecond resolution.
func Us(us float64) Duration { return Duration(us * 1000) }

// Ms returns a Duration of ms milliseconds.
func Ms(ms float64) Duration { return Duration(ms * 1e6) }

// Seconds returns the duration expressed in (floating-point) seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros returns the duration expressed in microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Millis returns the duration expressed in milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e6 }

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.3gµs", d.Micros())
	case d < Second:
		return fmt.Sprintf("%.4gms", d.Millis())
	default:
		return fmt.Sprintf("%.4gs", d.Seconds())
	}
}

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// event is a scheduled engine action: either waking a process or running an
// inline callback.
//
// Events come in two flavors. Pooled events are owned by the engine: they
// are drawn from a free list in schedule and recycled when they fire, so
// steady-state scheduling allocates nothing. Intrusive events are embedded
// in a long-lived owner (a Proc's wake event, a Queue's delivery event, a
// Timer) and carry a reusable fn, making their whole schedule→fire cycle
// allocation-free.
type event struct {
	fn     func() // runs inline in the engine loop; must not block
	pooled bool   // engine-owned: recycle onto the free list after firing
	queued bool   // double-schedule guard for intrusive events
}

// entry is one pending event with its ordering key inline, so ordering
// entries never dereferences an event. Entries run in (at, seq) order,
// where seq numbers schedule calls. Because every seq is unique, the
// ordering is a strict total order, so the dispatch sequence — and
// therefore the simulation — does not depend on how the queue stores its
// entries.
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

// before reports whether a orders strictly before b.
func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// The event queue has two parts. Events scheduled for the current instant
// go to the lane, a FIFO (Engine.lane from lhead on); all later ones go to
// the radix queue (Engine.pq, radix.go). The head of the queue is the
// earlier of the two heads under before, and that merge gives exactly the
// (at, seq) order of a single queue:
//   - every lane entry is at Now(), in seq order, so the lane head is the
//     lane's minimum;
//   - a radix entry at Now() was scheduled before the clock reached it, so
//     its seq is smaller than any lane entry's. Such entries are all in the
//     radix queue's bucket 0 (headBefore); when it is empty, every radix
//     entry is later than Now() and the lane goes first.
//
// The lane relies on the clock never moving while it holds entries: they
// all order before any later radix entry, so they run before the clock
// advances, and RunUntil never sets the clock back.

// Engine owns the virtual clock and the set of managed processes.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	pq      radixQueue // events scheduled for a later instant
	lane    []entry    // events scheduled at Now(), from lhead on
	lhead   int        // index of the lane's head
	free    []*event   // recycled pooled events
	nevents uint64     // events dispatched (perf accounting)
	procs   map[*Proc]struct{}
	idle    []chan *Proc  // parked workers, each waiting for a new proc to run
	ready   *Proc         // process woken by the last dispatched event
	limit   Time          // exclusive end of the current run
	turn    chan struct{} // hands the baton back to the run's caller
	stopped bool
}

// NewEngine returns an engine with the clock at zero and no processes.
func NewEngine() *Engine {
	return &Engine{
		procs: make(map[*Proc]struct{}),
		turn:  make(chan struct{}, 1),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events the engine has dispatched so far.
// It is the denominator of the events-per-second wall-clock figure the
// benchmark harness tracks across revisions.
func (e *Engine) Events() uint64 { return e.nevents }

// pooledEvent returns an engine-owned event running fn, from the free list
// when it has one.
func (e *Engine) pooledEvent(fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &event{pooled: true}
	}
	ev.fn = fn
	return ev
}

// schedule enqueues fn to run at time at (>= now) on a pooled event.
func (e *Engine) schedule(at Time, fn func()) {
	e.scheduleEvent(e.pooledEvent(fn), at)
}

// scheduleEvent enqueues ev (whose fn is already set) to fire at time at
// (>= now): in the lane when that is the current instant, otherwise in the
// radix queue. For intrusive events this is the allocation-free scheduling
// path; an event may only be queued once, so rescheduling before the
// previous firing is a bug the guard below turns into a panic.
func (e *Engine) scheduleEvent(ev *event, at Time) {
	if ev.queued {
		panic("simtime: event scheduled twice")
	}
	ev.queued = true
	e.seq++
	if at <= e.now {
		e.lane = append(e.lane, entry{e.now, e.seq, ev})
		return
	}
	e.pq.push(entry{at, e.seq, ev})
}

// At schedules fn to run inline at virtual time at. fn must not block; to
// run blocking logic, spawn a process from inside fn.
func (e *Engine) At(at Time, fn func()) { e.schedule(at, fn) }

// After schedules fn to run inline d after the current time.
func (e *Engine) After(d Duration, fn func()) { e.schedule(e.now.Add(d), fn) }

// Proc is a managed simulation process. All blocking calls take the Proc so
// that the engine knows which goroutine is yielding. A process runs on a
// worker goroutine from its first hand-off until its body returns; the
// worker then runs later processes.
type Proc struct {
	eng    *Engine
	name   string
	fn     func(p *Proc) // body; nil once a worker has started it
	resume chan *Proc    // its worker's channel, which hands it the baton
	// wakeEv is the proc's intrusive wake event. A parked proc has exactly
	// one pending wakeup, so a single pre-allocated event (with a reusable
	// closure that marks the proc ready) makes Sleep and every
	// queue/event/resource wakeup allocation-free in steady state.
	wakeEv event
	// until is the deadline a SleepUntil is waiting for; nil otherwise.
	until *Time
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine that owns this process.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Spawn creates a process running fn, started at the current virtual time
// (after already-scheduled events for this instant). Spawn only schedules
// the process's wake event. The process gets a goroutine when that event
// fires and the baton is handed to it for the first time: the goroutine
// of a process that has just finished if one is free, a new one only if
// none is.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn}
	p.wakeEv.fn = func() {
		if t := p.until; t != nil && *t > e.now {
			// SleepUntil's deadline moved while the proc slept: re-arm
			// instead of handing it the baton only to sleep again.
			e.scheduleEvent(&p.wakeEv, *t)
			return
		}
		e.ready = p
	}
	e.procs[p] = struct{}{}
	e.wake(p, e.now)
	return p
}

// main is a worker goroutine. It starts holding the baton, to run p, and
// runs one process after another. When a body returns, the process retires
// and the worker runs the event loop itself. If the next process to wake
// has never run, the worker runs it at once, with no hand-off. Otherwise
// it joins the engine's idle pool, passes the baton on, and waits on its
// own channel until pass gives it a new process. Idle workers stay parked
// until the program exits, as parked processes do.
//
// If the goroutine exits any other way — runtime.Goexit in a body or in a
// callback it ran — the deferred guard cancels the current process's
// wakeups, stops the run and hands the baton back to the run's caller. A
// worker joins the pool only after its own next returns, so a dead
// goroutine never does. The guard does not recover, so a panic keeps its
// own stack.
func (p *Proc) main() {
	e, ch := p.eng, p.resume
	defer func() {
		p.wakeEv.fn = nil // the goroutine is gone: never hand p the baton
		e.stopped = true
		e.turn <- struct{}{}
	}()
	for {
		fn := p.fn
		p.fn = nil
		fn(p)
		delete(e.procs, p)
		next := e.next()
		if next != nil && next.fn != nil {
			next.resume = ch
			p = next
			continue
		}
		e.idle = append(e.idle, ch)
		e.pass(next)
		p = <-ch
	}
}

// next runs the event loop on the baton holder. It dispatches events in
// order until one wakes a process, and returns that process; it returns
// nil when the run ends (limit reached, Stop, or an empty queue).
func (e *Engine) next() *Proc {
	for !e.stopped && e.dispatch() {
		if p := e.ready; p != nil {
			e.ready = nil
			return p
		}
	}
	return nil
}

// pass hands the baton to p, or back to the run's caller when p is nil. A
// process that has never run starts on an idle worker, or on a new
// goroutine when the pool is empty. The sender must not touch engine
// state afterwards: with several Ps the receiver may already be running
// before the sender parks.
func (e *Engine) pass(p *Proc) {
	switch {
	case p == nil:
		e.turn <- struct{}{}
	case p.fn == nil:
		p.resume <- p
	case len(e.idle) > 0:
		n := len(e.idle) - 1
		p.resume = e.idle[n]
		e.idle = e.idle[:n]
		p.resume <- p
	default:
		p.resume = make(chan *Proc, 1)
		go p.main()
	}
}

// block parks the calling process until something calls wake on it. It
// must only be called from within p's goroutine, which holds the baton, so
// p runs the event loop itself: if the next wake is p's own, block returns
// with no goroutine switch; otherwise p passes the baton to the woken
// process, or to the run's caller when the run has ended, and waits for a
// later holder to pass it back.
func (p *Proc) block() {
	e := p.eng
	next := e.next()
	if next == p {
		return
	}
	e.pass(next)
	<-p.resume
}

// wake schedules p to resume at time at, reusing the proc's intrusive wake
// event — no allocation.
func (e *Engine) wake(p *Proc, at Time) {
	e.scheduleEvent(&p.wakeEv, at)
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		// Still yield so that equal-time events interleave fairly.
		p.eng.wake(p, p.eng.now)
		p.block()
		return
	}
	p.eng.wake(p, p.eng.now.Add(d))
	p.block()
}

// SleepUntil suspends the process until virtual time reaches *t, which
// other code may move later while the process sleeps. It returns at once,
// without yielding, when *t is not after the current time. It behaves
// exactly like the loop
//
//	for *t > p.Now() {
//		p.Sleep(t.Sub(p.Now()))
//	}
//
// with the same wake instants, Events count and event order, but a wake
// that finds *t moved re-arms itself inside the event loop instead of
// handing the process the baton: nothing runs between that wake's dispatch
// and the loop's next Sleep, so the re-arm takes the same seq. A *t moved
// earlier is noticed only at the pending wake, as in the loop.
func (p *Proc) SleepUntil(t *Time) {
	e := p.eng
	if *t <= e.now {
		return
	}
	p.until = t
	e.wake(p, *t)
	p.block()
	p.until = nil
}

// Run executes scheduled events in time order until the queue drains or
// Stop is called. It returns the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes events with timestamps <= deadline and then stops,
// leaving later events queued. It returns the virtual time when it stopped.
// A deadline before Now() runs nothing and leaves the clock where it is:
// the clock never moves back.
//
// Entering RunUntil (or Run) clears a previous Stop: Stop halts the
// current run, and the next Run/RunUntil call resumes from the queued
// events.
//
// The calling goroutine holds the baton until an event wakes a process; it
// then passes the baton on and waits for it to come back when the run
// ends.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	if deadline < e.now {
		return e.now
	}
	e.limit = deadline + 1
	if p := e.next(); p != nil {
		e.pass(p)
		<-e.turn
	}
	if (e.lhead < len(e.lane) || e.pq.mask != 0) && !e.stopped {
		e.now = deadline // the run was cut short by the deadline
	}
	return e.now
}

// dispatch removes the head of the queue and runs it, unless nothing is
// due before the run's limit; it reports whether it removed an entry. Both
// sources check the limit: a process handed the baton with the limit at
// Now() must dispatch nothing, not even an entry at Now().
func (e *Engine) dispatch() bool {
	var x entry
	if e.lhead < len(e.lane) && !e.pq.headBefore(e.lane[e.lhead]) {
		if x = e.lane[e.lhead]; x.at >= e.limit {
			return false
		}
		e.lane[e.lhead] = entry{}
		if e.lhead++; e.lhead == len(e.lane) {
			e.lane, e.lhead = e.lane[:0], 0
		}
	} else {
		var ok bool
		if x, ok = e.pq.take(e.limit); !ok {
			return false
		}
	}
	ev := x.ev
	ev.queued = false
	fn := ev.fn
	// Recycle pooled events (and clear intrusive ones) before running
	// fn, so the callback may immediately reschedule.
	if ev.pooled {
		ev.fn = nil
		e.free = append(e.free, ev)
	}
	if fn == nil {
		// A dead process's wake (Proc.main): skipped without moving the
		// clock. Taking it may have moved the radix queue's base past
		// Now(), below where later pushes can land.
		if e.pq.base > e.now {
			e.pq.rebase(e.now)
		}
		return true
	}
	e.now = x.at
	e.nevents++
	fn()
	return true
}

// Stop makes Run return after the current event finishes. It is safe to
// call from inside event callbacks or processes; a process that calls it
// runs on until it next blocks, and Run returns then. A stopped engine is
// not dead: the next Run/RunUntil call clears the flag and resumes from
// the still-queued events.
func (e *Engine) Stop() { e.stopped = true }

// Timer is a re-armable one-shot callback with a pre-allocated event, the
// allocation-free alternative to Engine.After for components that arm the
// same deadline logic over and over (retransmission timers, periodic
// service). The zero value is not usable; call NewTimer. A Timer may only
// have one pending firing: re-arming while Pending panics, so owners keep
// their own state machine honest.
type Timer struct {
	eng *Engine
	ev  event
}

// NewTimer returns a timer that runs fn inline in the engine loop each time
// it fires. fn must not block.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{eng: e}
	t.ev.fn = fn
	return t
}

// ScheduleAt arms the timer to fire at virtual time at (>= now).
func (t *Timer) ScheduleAt(at Time) { t.eng.scheduleEvent(&t.ev, at) }

// ScheduleAfter arms the timer to fire d after the current time.
func (t *Timer) ScheduleAfter(d Duration) { t.ScheduleAt(t.eng.now.Add(d)) }

// Pending reports whether the timer is armed and has not fired yet.
func (t *Timer) Pending() bool { return t.ev.queued }

// PendingProcs returns the names of processes that have been spawned but
// have not finished, sorted. Useful in tests for deadlock diagnosis.
func (e *Engine) PendingProcs() []string {
	var names []string
	for p := range e.procs {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}
