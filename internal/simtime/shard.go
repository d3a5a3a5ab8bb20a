package simtime

import (
	"fmt"
	"sort"
)

// ShardedEngine runs N Engines ("shards") under conservative-lookahead
// synchronization, the classic parallel-DES recipe for topologies whose
// components only interact through links with nonzero latency: each shard
// owns its own event heap, pools, and processes, and shards only exchange
// events through Exchanges that declare a minimum delivery latency.
//
// Execution proceeds in windows. Each window the coordinator computes the
// global minimum next-event time m (over every shard heap and every
// undelivered cross-shard message), sets the horizon h = m + L where L is
// the lookahead (the minimum latency declared by any Exchange), delivers
// every staged message with timestamp < h into its destination shard's
// heap, and lets every shard execute its events with timestamps < h in
// parallel. A message sent at time t carries a timestamp >= t + L >= h,
// so it always lands in a strictly future window: no shard ever receives
// an event in its past, and the barrier at h is the only synchronization.
//
// Determinism. Within a shard, events run in (time, seq) order exactly as
// on a standalone Engine. Across shards, staged messages are applied in
// (time, exchange ID, per-exchange seq) order — a key that depends only on
// wiring order and per-endpoint message counts, not on shard count or heap
// state — and they are applied at a window boundary, which falls at the
// same virtual instant for every shard count. A one-shard ShardedEngine
// therefore runs the same windows, applies the same messages in the same
// order, and produces byte-identical virtual-time traces to an N-shard
// run of the same program: it is the reference oracle the A/B guards
// compare against.
//
// The contract for sharded programs: a process or callback running on
// shard i must touch only shard-i state, and every cross-shard effect must
// go through an Exchange with at least the declared latency. Engine-level
// primitives (Queue, Event, Timer, Resource) are shard-local.
type ShardedEngine struct {
	shards    []*Engine
	exchanges []*Exchange
	lookahead Duration // min latency declared by any exchange
	haveLook  bool
	pending   []xmsg // staged messages not yet delivered to a shard heap

	// Worker plumbing: shard 0 runs on the coordinator goroutine; shards
	// 1..N-1 each get a persistent worker for the duration of a run.
	start []chan Time
	done  chan int
}

// xmsg is one staged cross-shard message. The (at, ex, seq) triple is a
// strict total order that is independent of shard count.
type xmsg struct {
	at  Time
	ex  int    // exchange ID, assigned in wiring order
	seq uint64 // per-exchange send sequence
	dst int
	fn  func()
}

// NewSharded returns a sharded engine with n shards (n >= 1), all clocks
// at zero. With n == 1 the windowed execution machinery still runs, which
// is exactly what makes the single-shard configuration a meaningful
// oracle for N-shard runs.
func NewSharded(n int) *ShardedEngine {
	if n < 1 {
		panic("simtime: NewSharded needs at least one shard")
	}
	se := &ShardedEngine{shards: make([]*Engine, n)}
	for i := range se.shards {
		se.shards[i] = NewEngine()
	}
	return se
}

// Shard returns shard i's engine. Build shard-i components against it
// exactly as against a standalone Engine.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Now returns the global virtual time: the latest shard clock. Between
// windows every shard clock is within one lookahead of it.
func (se *ShardedEngine) Now() Time {
	var t Time
	for _, e := range se.shards {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Events returns the total number of events dispatched across all shards.
func (se *ShardedEngine) Events() uint64 {
	var n uint64
	for _, e := range se.shards {
		n += e.nevents
	}
	return n
}

// PendingProcs returns the names of unfinished processes across all
// shards, sorted. Useful in tests for deadlock diagnosis.
func (se *ShardedEngine) PendingProcs() []string {
	var names []string
	for _, e := range se.shards {
		names = append(names, e.PendingProcs()...)
	}
	sort.Strings(names)
	return names
}

// Exchange is a directed cross-shard channel with a declared minimum
// delivery latency. Sends are staged in a single-writer buffer (only code
// running on the source shard appends; only the coordinator drains, at a
// barrier), making the mailbox lock-free. The exchange ID is assigned in
// creation order, so as long as the topology is wired in a deterministic
// order the cross-shard application order is deterministic too.
type Exchange struct {
	se       *ShardedEngine
	id       int
	src, dst int
	seq      uint64
	buf      []xmsg
}

// NewExchange declares a directed channel from shard src to shard dst
// whose messages always arrive at least minLatency after they are sent.
// The global lookahead shrinks to the smallest declared latency. src may
// equal dst: a self-exchange still stages and window-applies its messages,
// which keeps a one-shard topology byte-identical to the same topology
// split across shards.
func (se *ShardedEngine) NewExchange(src, dst int, minLatency Duration) *Exchange {
	if src < 0 || src >= len(se.shards) || dst < 0 || dst >= len(se.shards) {
		panic(fmt.Sprintf("simtime: NewExchange(%d, %d) out of range for %d shards", src, dst, len(se.shards)))
	}
	if minLatency <= 0 {
		panic("simtime: exchange latency must be positive (conservative lookahead needs a nonzero horizon)")
	}
	x := &Exchange{se: se, id: len(se.exchanges), src: src, dst: dst}
	se.exchanges = append(se.exchanges, x)
	if !se.haveLook || minLatency < se.lookahead {
		se.lookahead = minLatency
		se.haveLook = true
	}
	return x
}

// Send stages fn to run on the destination shard at virtual time at. It
// must be called from the source shard's execution context (or before the
// run starts), and at must honor the global lookahead L, the smallest
// latency any exchange declared: at >= src.Now() + L. Violating the bound
// is a wiring bug — the destination shard may already have advanced past
// at — and panics rather than corrupting causality.
func (x *Exchange) Send(at Time, fn func()) {
	src := x.se.shards[x.src]
	if at < src.now.Add(x.se.lookahead) {
		panic(fmt.Sprintf("simtime: exchange %d send at %v violates lookahead %v (now %v)",
			x.id, at, x.se.lookahead, src.now))
	}
	x.seq++
	x.buf = append(x.buf, xmsg{at: at, ex: x.id, seq: x.seq, dst: x.dst, fn: fn})
}

// Run executes until every shard heap and every mailbox drains (or Stop
// is called) and returns the final virtual time, with all shard clocks
// settled on it.
func (se *ShardedEngine) Run() Time { return se.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes events with timestamps <= deadline and stops, leaving
// later events queued and undelivered messages staged. Like
// Engine.RunUntil it clears a previous Stop on entry and leaves every
// shard clock at the returned time, and a deadline before Now() runs
// nothing and moves no clock.
func (se *ShardedEngine) RunUntil(deadline Time) Time {
	for _, e := range se.shards {
		e.stopped = false
	}
	if now := se.Now(); deadline < now {
		return now
	}
	se.startWorkers()
	defer se.stopWorkers()

	// Pick up messages staged before the run (topology setup, a previous
	// run cut short by Stop or deadline).
	se.collect()

	hitDeadline := false
	for !se.anyStopped() {
		next, ok := se.next()
		if !ok {
			break
		}
		if next > deadline {
			hitDeadline = true
			break
		}
		horizon := deadline + 1
		if se.haveLook {
			if h := next.Add(se.lookahead); h < horizon {
				horizon = h
			}
		}
		se.deliver(horizon)
		se.window(horizon)
		se.collect()
	}

	// Settle the clocks the way Engine.RunUntil does: on the deadline when
	// the run was cut short by it, otherwise on the last executed event.
	// A Stop leaves each shard's clock where it halted — a stopped shard
	// can still hold events older than its siblings' clocks, and bumping
	// it forward would replay them "in the past" on resume.
	end := Time(0)
	for _, e := range se.shards {
		if e.now > end {
			end = e.now
		}
	}
	if hitDeadline {
		end = deadline
	}
	if !se.anyStopped() {
		for _, e := range se.shards {
			if e.now < end {
				e.now = end
			}
		}
	}
	return end
}

// next returns the earliest pending timestamp across all shard heaps and
// staged messages.
func (se *ShardedEngine) next() (Time, bool) {
	var best Time
	ok := false
	for _, e := range se.shards {
		if x, has := e.peek(); has && (!ok || x.at < best) {
			best = x.at
			ok = true
		}
	}
	for i := range se.pending {
		if at := se.pending[i].at; !ok || at < best {
			best = at
			ok = true
		}
	}
	return best, ok
}

// deliver moves staged messages with timestamps below horizon into their
// destination shards' heaps. No sorting happens here: each message carries
// its (exchange, seq) key into the destination heap via scheduleEx, so the
// execution order is fixed by the heap comparator and is independent of
// which window a message rode in on.
func (se *ShardedEngine) deliver(horizon Time) {
	keep := se.pending[:0]
	for _, m := range se.pending {
		if m.at < horizon {
			se.shards[m.dst].scheduleEx(m.at, m.ex, m.seq, m.fn)
		} else {
			keep = append(keep, m)
		}
	}
	se.pending = keep
}

// window runs one synchronization window: every shard with work below the
// horizon executes it, shard 0 inline on the coordinator goroutine and
// the rest on their workers, then the barrier joins them.
func (se *ShardedEngine) window(horizon Time) {
	active := 0
	for i := 1; i < len(se.shards); i++ {
		e := se.shards[i]
		if x, ok := e.peek(); ok && x.at < horizon {
			se.start[i] <- horizon
			active++
		}
	}
	se.shards[0].runWindow(horizon)
	for ; active > 0; active-- {
		<-se.done
	}
}

// collect drains every exchange's staging buffer into the pending list.
// It runs on the coordinator between windows, after the barrier, so no
// shard is appending concurrently.
func (se *ShardedEngine) collect() {
	for _, x := range se.exchanges {
		if len(x.buf) > 0 {
			se.pending = append(se.pending, x.buf...)
			x.buf = x.buf[:0]
		}
	}
}

// anyStopped reports whether any shard has stopped since the last run
// began. Simulation code on shard i stops the whole run by calling its own
// engine's Stop: the shard quits its window early and the barrier ends
// the run.
func (se *ShardedEngine) anyStopped() bool {
	for _, e := range se.shards {
		if e.stopped {
			return true
		}
	}
	return false
}

// startWorkers launches one persistent goroutine per non-coordinator
// shard for the duration of a run. The channel handoffs give the barrier
// its happens-before edges: everything a shard wrote during its window is
// visible to the coordinator after done, and everything the coordinator
// delivered is visible to the shard after start.
func (se *ShardedEngine) startWorkers() {
	if len(se.shards) <= 1 || se.start != nil {
		return
	}
	se.start = make([]chan Time, len(se.shards))
	se.done = make(chan int, len(se.shards))
	for i := 1; i < len(se.shards); i++ {
		ch := make(chan Time)
		se.start[i] = ch
		go se.worker(i, ch)
	}
}

// worker runs shard i's windows until the run ends. A callback runs on the
// worker goroutine when no process holds shard i's baton; if it leaves
// through runtime.Goexit (as t.FailNow does), runWindow never returns, so
// the deferred guard stops the shard and reports the window done. The
// barrier then ends the run instead of hanging, and the next run starts a
// fresh worker.
func (se *ShardedEngine) worker(i int, ch chan Time) {
	returned := false
	defer func() {
		if !returned {
			se.shards[i].stopped = true
			se.done <- i
		}
	}()
	for h := range ch {
		se.shards[i].runWindow(h)
		se.done <- i
	}
	returned = true
}

// stopWorkers retires the run's workers. Blocked simulation processes
// keep their goroutines (as on a standalone Engine), but no window worker
// outlives the run.
func (se *ShardedEngine) stopWorkers() {
	if se.start == nil {
		return
	}
	for i := 1; i < len(se.start); i++ {
		close(se.start[i])
	}
	se.start = nil
}
