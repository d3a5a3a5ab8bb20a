package simtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// orderLookahead is the latency of both exchanges in the order workload.
const orderLookahead = Duration(5)

// orderRig runs a seeded random workload on a 2-shard ShardedEngine, one
// event at a time from the test goroutine, and logs every entry it
// dispatches.
type orderRig struct {
	t      *testing.T
	rng    *rand.Rand
	se     *ShardedEngine
	sh     [2]orderShard
	budget int // actions left; the workload winds down at zero
	log    strings.Builder
	last   [2]entry // last entry dispatched on each shard
	ran    [2]bool

	// What the run exercised: entries taken from the lane, heap entries
	// taken while the lane waited, and exchange deliveries.
	lane, heapFirst, exch int
}

type orderShard struct {
	e    *Engine
	x    *Exchange   // to the other shard
	q    *Queue[int] // Get/Put
	cq   *Queue[int] // OnNext/Put
	ev   *Event[int]
	res  *Resource
	busy Time // SleepUntil deadline
}

// act does one random non-blocking thing on shard i.
func (r *orderRig) act(i int) {
	if r.budget <= 0 {
		return
	}
	r.budget--
	s := &r.sh[i]
	e := s.e
	switch r.rng.Intn(10) {
	case 0:
		e.At(e.Now(), func() { r.act(i) })
	case 1:
		e.After(Duration(1+r.rng.Intn(20)), func() { r.act(i) })
	case 2:
		s.q.Put(r.rng.Intn(100))
	case 3:
		s.cq.Put(r.rng.Intn(100))
	case 4:
		s.ev.Trigger(1)
		s.ev = NewEvent[int](e)
	case 5:
		r.spawn(i)
	case 6:
		s.busy = e.Now().Add(Duration(r.rng.Intn(30)))
	case 7:
		r.send(i)
	case 8:
		if r.rng.Intn(3) == 0 {
			e.Stop()
		}
	default:
		r.act(i)
		r.act(i)
	}
}

// send stages a delivery from shard i to the other shard. The delivery
// schedules only later work: an event it scheduled at its own instant
// would order before it, since local keys sort first, and run after it.
// That is so in a heap-only queue too, and it would break the strict
// increase this workload checks.
func (r *orderRig) send(i int) {
	j := 1 - i
	r.sh[i].x.Send(r.sh[i].e.Now().Add(orderLookahead+Duration(r.rng.Intn(20))), func() {
		r.sh[j].e.After(Duration(1+r.rng.Intn(10)), func() { r.act(j) })
	})
}

// spawn starts a process on shard i that takes a few random steps, most
// of which block.
func (r *orderRig) spawn(i int) {
	s := &r.sh[i]
	steps := 1 + r.rng.Intn(6)
	s.e.Spawn("w", func(p *Proc) {
		for k := 0; k < steps; k++ {
			switch r.rng.Intn(8) {
			case 0:
				p.Sleep(0)
			case 1:
				p.Sleep(Duration(1 + r.rng.Intn(15)))
			case 2:
				p.SleepUntil(&s.busy)
			case 3:
				s.q.GetTimeout(p, Duration(1+r.rng.Intn(30)))
			case 4:
				s.ev.WaitTimeout(p, Duration(1+r.rng.Intn(30)))
			case 5:
				s.res.Acquire(p)
				p.Sleep(Duration(r.rng.Intn(5)))
				s.res.Release()
			case 6:
				s.q.Get(p)
			default:
				r.act(i)
			}
		}
	})
}

// window runs shard i's events below horizon as runWindow does, but one
// dispatch at a time, and checks that each entry peek reports follows the
// last one dispatched on the shard. A dispatch that removed any other
// entry would leave the reported one queued to be reported again. A woken
// process gets the baton with the limit at Now(), so it runs until it
// blocks or ends and hands the baton straight back.
func (r *orderRig) window(i int, horizon Time) {
	e := r.sh[i].e
	for !e.stopped {
		x, ok := e.peek()
		if !ok || x.at >= horizon {
			return
		}
		if r.ran[i] && !r.last[i].before(x) {
			r.t.Fatalf("shard %d dispatches (%d, %#x) after (%d, %#x)", i, x.at, x.key, r.last[i].at, r.last[i].key)
		}
		r.last[i], r.ran[i] = x, true
		switch {
		case x.key>>63 == 1:
			r.exch++
		case e.lhead < len(e.lane) && e.lane[e.lhead] == x:
			r.lane++
		case e.lhead < len(e.lane):
			r.heapFirst++
		}
		fmt.Fprintf(&r.log, "%d %d %#x\n", i, x.at, x.key)
		e.limit = horizon
		if !e.dispatch() {
			r.t.Fatalf("shard %d: peek reports (%d, %#x) below the horizon, dispatch runs nothing", i, x.at, x.key)
		}
		if p := e.ready; p != nil {
			e.ready = nil
			e.limit = e.now
			e.pass(p)
			<-e.turn
		}
	}
}

// runUntil is ShardedEngine.RunUntil with each shard's windows run by
// window. A run that no Stop ended finishes with the real RunUntil, which
// has nothing left to run and settles the clocks on the deadline.
func (r *orderRig) runUntil(deadline Time) {
	se := r.se
	for _, e := range se.shards {
		e.stopped = false
	}
	se.collect()
	for !se.anyStopped() {
		next, ok := se.next()
		if !ok || next > deadline {
			break
		}
		horizon := min(next.Add(se.lookahead), deadline+1)
		se.deliver(horizon)
		for i := range se.shards {
			r.window(i, horizon)
		}
		se.collect()
	}
	if !se.anyStopped() {
		se.RunUntil(deadline)
	}
}

// orderRun runs the workload for seed in random RunUntil slices until
// nothing is left, and returns the rig.
func orderRun(t *testing.T, seed int64) *orderRig {
	r := &orderRig{t: t, rng: rand.New(rand.NewSource(seed)), se: NewSharded(2), budget: 2000}
	for i := range r.sh {
		r.sh[i].x = r.se.NewExchange(i, 1-i, orderLookahead)
	}
	for i := range r.sh {
		s := &r.sh[i]
		e := r.se.Shard(i)
		s.e, s.q, s.cq, s.ev, s.res = e, NewQueue[int](e), NewQueue[int](e), NewEvent[int](e), NewResource(e, 1)
		var consume func(int)
		consume = func(int) {
			r.act(i)
			s.cq.OnNext(consume)
		}
		s.cq.OnNext(consume)
		for k := 0; k < 30; k++ {
			e.At(Time(r.rng.Intn(200)), func() { r.act(i) })
			r.spawn(i)
			r.send(i)
		}
	}
	for end := Time(0); ; {
		r.se.collect()
		if _, ok := r.se.next(); !ok {
			break
		}
		end += Time(r.rng.Intn(60))
		r.runUntil(end)
	}
	fmt.Fprintf(&r.log, "events %d at %d\n", r.se.Events(), r.se.Now())
	return r
}

// TestEventOrderStrictlyIncreasing: over seeded random mixes of callbacks
// at the current instant and later, Sleep(0), queues in both styles,
// events, a resource, Spawn, SleepUntil, RunUntil cuts, Stop and resume,
// and exchange deliveries, each shard dispatches its entries in strictly
// increasing (at, key) order, which is the order of a heap-only queue.
// Each seed's log is the same on a rerun.
func TestEventOrderStrictlyIncreasing(t *testing.T) {
	var lane, heapFirst, exch int
	for seed := int64(1); seed <= 10; seed++ {
		r := orderRun(t, seed)
		if again := orderRun(t, seed); again.log.String() != r.log.String() {
			t.Fatalf("seed %d: the rerun dispatches a different sequence", seed)
		}
		lane += r.lane
		heapFirst += r.heapFirst
		exch += r.exch
	}
	t.Logf("dispatched %d from the lane, %d from the heap ahead of it, %d exchange deliveries", lane, heapFirst, exch)
	if lane == 0 || heapFirst == 0 || exch == 0 {
		t.Fatal("the workload does not exercise both parts of the queue and the exchange keys")
	}
}
