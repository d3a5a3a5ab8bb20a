package simtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// orderRig runs a seeded random workload on an Engine, one event at a time
// from the test goroutine, and logs every entry it dispatches.
type orderRig struct {
	t      *testing.T
	rng    *rand.Rand
	e      *Engine
	q      *Queue[int] // Get/Put
	cq     *Queue[int] // OnNext/Put
	ev     *Event[int]
	res    *Resource
	busy   Time // SleepUntil deadline
	budget int  // actions left; the workload winds down at zero
	log    strings.Builder
	last   entry // last entry dispatched
	ran    bool

	// What the run exercised: entries taken from the lane, and radix
	// queue entries taken while the lane waited.
	lane, queueFirst int
}

// act does one random non-blocking thing.
func (r *orderRig) act() {
	if r.budget <= 0 {
		return
	}
	r.budget--
	e := r.e
	switch r.rng.Intn(10) {
	case 0:
		e.At(e.Now(), r.act)
	case 1:
		e.After(Duration(1+r.rng.Intn(20)), r.act)
	case 2:
		r.q.Put(r.rng.Intn(100))
	case 3:
		r.cq.Put(r.rng.Intn(100))
	case 4:
		r.ev.Trigger(1)
		r.ev = NewEvent[int](e)
	case 5:
		r.spawn()
	case 6:
		r.busy = e.Now().Add(Duration(r.rng.Intn(30)))
	case 7:
		if r.rng.Intn(3) == 0 {
			e.Stop()
		}
	case 8:
		e.At(e.Now()+1+Time(r.rng.Int63n(1<<40)), r.act) // high buckets
	default:
		r.act()
		r.act()
	}
}

// spawn starts a process that takes a few random steps, most of which
// block.
func (r *orderRig) spawn() {
	steps := 1 + r.rng.Intn(6)
	r.e.Spawn("w", func(p *Proc) {
		for k := 0; k < steps; k++ {
			switch r.rng.Intn(8) {
			case 0:
				p.Sleep(0)
			case 1:
				p.Sleep(Duration(1 + r.rng.Intn(15)))
			case 2:
				p.SleepUntil(&r.busy)
			case 3:
				r.q.GetTimeout(p, Duration(1+r.rng.Intn(30)))
			case 4:
				r.ev.WaitTimeout(p, Duration(1+r.rng.Intn(30)))
			case 5:
				r.res.Acquire(p)
				p.Sleep(Duration(r.rng.Intn(5)))
				r.res.Release()
			case 6:
				r.q.Get(p)
			default:
				r.act()
			}
		}
	})
}

// runUntil runs the events up to deadline as RunUntil does, but one
// dispatch at a time, and checks that each entry peek reports follows the
// last one dispatched. A dispatch that removed any other entry would leave
// the reported one queued to be reported again. A woken process gets the
// baton with the limit at Now(), so it runs until it blocks or ends and
// hands the baton straight back, having dispatched nothing, not even an
// event at Now(). A run that no Stop ended finishes with the real RunUntil,
// which has nothing left to run and settles the clock on the deadline.
func (r *orderRig) runUntil(deadline Time) {
	e := r.e
	e.stopped = false
	for !e.stopped {
		x, ok := e.peek()
		if !ok || x.at > deadline {
			break
		}
		if r.ran && !r.last.before(x) {
			r.t.Fatalf("dispatches (%d, %d) after (%d, %d)", x.at, x.seq, r.last.at, r.last.seq)
		}
		r.last, r.ran = x, true
		switch {
		case e.lhead < len(e.lane) && e.lane[e.lhead] == x:
			r.lane++
		case e.lhead < len(e.lane):
			r.queueFirst++
		}
		fmt.Fprintf(&r.log, "%d %d\n", x.at, x.seq)
		e.limit = deadline + 1
		if !e.dispatch() {
			r.t.Fatalf("peek reports (%d, %d) by the deadline, dispatch runs nothing", x.at, x.seq)
		}
		if p := e.ready; p != nil {
			e.ready = nil
			e.limit = e.now
			n := e.Events()
			e.pass(p)
			<-e.turn
			if e.Events() != n {
				r.t.Fatalf("a process handed the baton at %d with the limit there dispatched %d events", e.now, e.Events()-n)
			}
		}
	}
	if !e.stopped {
		e.RunUntil(deadline)
	}
}

// orderRun runs the workload for seed in random RunUntil slices until
// nothing is left, sometimes acting between slices, and returns the rig.
func orderRun(t *testing.T, seed int64) *orderRig {
	e := NewEngine()
	r := &orderRig{
		t: t, rng: rand.New(rand.NewSource(seed)), e: e, budget: 2000,
		q: NewQueue[int](e), cq: NewQueue[int](e), ev: NewEvent[int](e), res: NewResource(e, 1),
	}
	var consume func(int)
	consume = func(int) {
		r.act()
		r.cq.OnNext(consume)
	}
	r.cq.OnNext(consume)
	for k := 0; k < 60; k++ {
		e.At(Time(r.rng.Intn(200)), r.act)
		r.spawn()
	}
	for end := Time(0); ; {
		x, ok := e.peek()
		if !ok {
			break
		}
		if gap := x.at - end; gap > 1000 {
			end += gap - Time(r.rng.Intn(100)) // skip an idle stretch
		}
		end += Time(r.rng.Intn(60))
		r.runUntil(end)
		if r.rng.Intn(4) == 0 {
			r.act() // schedule between runs, maybe below a head left queued
		}
	}
	fmt.Fprintf(&r.log, "events %d at %d\n", e.Events(), e.Now())
	return r
}

// TestEventOrderStrictlyIncreasing: over seeded random mixes of callbacks
// at the current instant, a few ns later and up to 2^40 ns later, Sleep(0),
// queues in both styles, events, a resource, Spawn, SleepUntil, RunUntil
// cuts with schedule calls between runs, and Stop and resume, the engine
// dispatches its entries in strictly increasing (at, seq) order, which is
// the order of a single queue. Each seed's log is the same on a rerun.
func TestEventOrderStrictlyIncreasing(t *testing.T) {
	var lane, queueFirst int
	for seed := int64(1); seed <= 10; seed++ {
		r := orderRun(t, seed)
		if again := orderRun(t, seed); again.log.String() != r.log.String() {
			t.Fatalf("seed %d: the rerun dispatches a different sequence", seed)
		}
		lane += r.lane
		queueFirst += r.queueFirst
	}
	t.Logf("dispatched %d from the lane, %d from the radix queue ahead of it", lane, queueFirst)
	if lane == 0 || queueFirst == 0 {
		t.Fatal("the workload does not exercise both parts of the queue")
	}
}
