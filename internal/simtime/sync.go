package simtime

// fifo is a head-indexed FIFO slice: the storage of a Queue's items and
// wait list and of a Resource's wait list. A pop advances head, and the
// slice restarts from the front when it drains, so a steady produce and
// consume cycle stops allocating. A FIFO that never drains would otherwise
// grow past a dead prefix of taken slots forever, so a push that finds the
// slice full with at least half of it taken slides the live items to the
// front instead of growing it: the slice stays within a few times the
// deepest backlog, and each slide is paid for by the pushes that filled
// the half it reclaims.
type fifo[T any] struct {
	s    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.s) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.s) == cap(f.s) && f.head > 0 && f.head >= len(f.s)/2 {
		n := copy(f.s, f.s[f.head:])
		clear(f.s[n:])
		f.s, f.head = f.s[:n], 0
	}
	f.s = append(f.s, v)
}

func (f *fifo[T]) pop() (T, bool) {
	var zero T
	if f.head == len(f.s) {
		return zero, false
	}
	v := f.s[f.head]
	f.s[f.head] = zero
	if f.head++; f.head == len(f.s) {
		f.s, f.head = f.s[:0], 0
	}
	return v, true
}

// cut removes the item at index i of the backing slice, keeping order.
func (f *fifo[T]) cut(i int) {
	var zero T
	copy(f.s[i:], f.s[i+1:])
	f.s[len(f.s)-1] = zero
	f.s = f.s[:len(f.s)-1]
	if f.head == len(f.s) {
		f.s, f.head = f.s[:0], 0
	}
}

// waiter is one parked process's slot in a queue or event wait list.
// Waiters are pooled per primitive: the blocked process releases its waiter
// back to the pool when it resumes, so steady-state blocking allocates
// nothing. gen is a reuse-after-free guard — a timeout callback captured
// against an earlier incarnation of the record compares generations and
// becomes a no-op instead of corrupting the waiter's next user.
type waiter[T any] struct {
	p        *Proc
	val      T
	gen      uint32
	fired    bool
	timedOut bool
}

// waiterPool is a per-primitive free list of waiter records. One record
// lives inline and is used before the free list, so a primitive that never
// has two waiters at once, such as a CQ's queue or a one-shot event,
// allocates no record and no free list.
type waiterPool[T any] struct {
	one  waiter[T] // in use while one.p is set
	free []*waiter[T]
}

func (wp *waiterPool[T]) get(p *Proc) *waiter[T] {
	if wp.one.p == nil {
		wp.one.p = p
		return &wp.one
	}
	if n := len(wp.free); n > 0 {
		w := wp.free[n-1]
		wp.free[n-1] = nil
		wp.free = wp.free[:n-1]
		w.p = p
		return w
	}
	return &waiter[T]{p: p}
}

// put releases w for reuse. The generation bump invalidates any timeout
// callback still holding a reference to this incarnation.
func (wp *waiterPool[T]) put(w *waiter[T]) {
	var zero T
	w.val = zero
	w.p = nil
	w.fired, w.timedOut = false, false
	w.gen++
	if w != &wp.one {
		wp.free = append(wp.free, w)
	}
}

// Event is a one-shot future: processes Wait on it, and a single Trigger
// wakes them all and records a value. Once triggered the event stays
// triggered, so later Waits return immediately. Use Queue for repeated
// notifications.
type Event[T any] struct {
	eng       *Engine
	triggered bool
	val       T
	waiters   []*waiter[T]
	pool      waiterPool[T]
	wbuf      [1]*waiter[T] // waiters' first backing array
}

// NewEvent returns an untriggered event owned by e.
func NewEvent[T any](e *Engine) *Event[T] {
	ev := &Event[T]{eng: e}
	ev.waiters = ev.wbuf[:0]
	return ev
}

// Triggered reports whether the event has fired.
func (ev *Event[T]) Triggered() bool { return ev.triggered }

// Value returns the value the event was triggered with (zero if not yet).
func (ev *Event[T]) Value() T { return ev.val }

// Trigger fires the event with val, waking all current waiters at the
// current virtual time. Triggering an already-triggered event is a no-op.
func (ev *Event[T]) Trigger(val T) {
	if ev.triggered {
		return
	}
	ev.triggered = true
	ev.val = val
	for i, w := range ev.waiters {
		ev.waiters[i] = nil
		if w.fired {
			continue
		}
		w.fired = true
		w.val = val
		ev.eng.wake(w.p, ev.eng.now)
	}
	ev.waiters = ev.waiters[:0]
}

// Wait blocks p until the event triggers, returning the trigger value.
func (ev *Event[T]) Wait(p *Proc) T {
	if ev.triggered {
		return ev.val
	}
	w := ev.pool.get(p)
	ev.waiters = append(ev.waiters, w)
	p.block()
	val := w.val
	ev.pool.put(w)
	return val
}

// WaitTimeout blocks p until the event triggers or d elapses. ok is false
// on timeout. A timed-out waiter is removed from the wait list eagerly, so
// abandoned records never pile up between Triggers.
func (ev *Event[T]) WaitTimeout(p *Proc, d Duration) (val T, ok bool) {
	if ev.triggered {
		return ev.val, true
	}
	w := ev.pool.get(p)
	ev.waiters = append(ev.waiters, w)
	gen := w.gen
	eng := p.eng
	eng.schedule(eng.now.Add(d), func() {
		if w.gen != gen || w.fired {
			return // raced with Trigger, or the record was recycled
		}
		w.fired, w.timedOut = true, true
		ev.removeWaiter(w)
		eng.wake(w.p, eng.now)
	})
	p.block()
	val, timedOut := w.val, w.timedOut
	ev.pool.put(w)
	return val, !timedOut
}

// removeWaiter compacts w out of the wait list, preserving order.
func (ev *Event[T]) removeWaiter(w *waiter[T]) {
	for i, x := range ev.waiters {
		if x == w {
			copy(ev.waiters[i:], ev.waiters[i+1:])
			ev.waiters[len(ev.waiters)-1] = nil
			ev.waiters = ev.waiters[:len(ev.waiters)-1]
			return
		}
	}
}

// Queue is an unbounded FIFO channel between simulation processes. Put
// never blocks; Get blocks while the queue is empty. Items are delivered in
// insertion order and each item wakes at most one waiter.
//
// A queue has two consumption styles. Process style: a Proc calls Get and
// parks until an item arrives. Callback style: OnNext arms a function that
// the engine invokes inline with the next item — no goroutine, no channel
// handoff, no scheduler round trip. Purely reactive components (packet
// pipelines, demultiplexers) should use the callback style; a queue must
// not mix blocked Getters and an armed callback.
type Queue[T any] struct {
	eng *Engine

	items   fifo[T]
	waiters fifo[*waiter[T]]
	pool    waiterPool[T]
	wbuf    [1]*waiter[T] // waiters' first backing array

	cb  func(T) // armed one-shot consumer callback (nil when absent)
	svc event   // intrusive delivery event for the callback path
}

// NewQueue returns an empty queue owned by e.
func NewQueue[T any](e *Engine) *Queue[T] {
	q := &Queue[T]{eng: e}
	q.waiters.s = q.wbuf[:0]
	q.svc.fn = q.service
	return q
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// removeWaiter compacts w out of the wait list, preserving FIFO order.
func (q *Queue[T]) removeWaiter(w *waiter[T]) {
	for i := q.waiters.head; i < len(q.waiters.s); i++ {
		if q.waiters.s[i] == w {
			q.waiters.cut(i)
			return
		}
	}
}

// Put appends v and, if a process is blocked in Get, hands v to the
// longest-waiting one; if a callback is armed instead, delivery is
// scheduled at the current instant.
func (q *Queue[T]) Put(v T) {
	for {
		w, ok := q.waiters.pop()
		if !ok {
			break
		}
		if w.fired {
			continue // defensive: timed-out waiters are compacted eagerly
		}
		w.fired = true
		w.val = v
		q.eng.wake(w.p, q.eng.now)
		return
	}
	q.items.push(v)
	if q.cb != nil && !q.svc.queued {
		q.eng.scheduleEvent(&q.svc, q.eng.now)
	}
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	if v, ok := q.items.pop(); ok {
		return v
	}
	w := q.pool.get(p)
	q.waiters.push(w)
	p.block()
	v := w.val
	q.pool.put(w)
	return v
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	return q.items.pop()
}

// GetTimeout is Get with a deadline; ok is false on timeout. Like every
// other resume path the timeout wakes the process through the engine's wake
// event rather than running it inline, and the abandoned waiter record is
// compacted out of the wait list immediately.
func (q *Queue[T]) GetTimeout(p *Proc, d Duration) (v T, ok bool) {
	if v, ok := q.items.pop(); ok {
		return v, true
	}
	w := q.pool.get(p)
	q.waiters.push(w)
	gen := w.gen
	eng := p.eng
	eng.schedule(eng.now.Add(d), func() {
		if w.gen != gen || w.fired {
			return // raced with Put, or the record was recycled
		}
		w.fired, w.timedOut = true, true
		q.removeWaiter(w)
		eng.wake(w.p, eng.now)
	})
	p.block()
	v, timedOut := w.val, w.timedOut
	q.pool.put(w)
	return v, !timedOut
}

// OnNext arms fn as a one-shot consumer callback: the engine delivers the
// next available item to fn inline in the event loop, at the instant the
// item is available (items already buffered are delivered at the current
// time, mirroring how a Put wakes a parked Getter). The callback is
// consumed by the delivery; re-arm from inside fn — typically after
// draining any backlog with TryGet — to keep receiving. Only one callback
// may be armed at a time, and an armed queue must not also have blocked
// Getters.
func (q *Queue[T]) OnNext(fn func(T)) {
	if q.cb != nil {
		panic("simtime: Queue.OnNext: a callback is already armed")
	}
	if fn == nil {
		panic("simtime: Queue.OnNext: nil callback")
	}
	q.cb = fn
	if q.Len() > 0 && !q.svc.queued {
		q.eng.scheduleEvent(&q.svc, q.eng.now)
	}
}

// service is the queue's intrusive delivery event: hand one item to the
// armed callback.
func (q *Queue[T]) service() {
	cb := q.cb
	if cb == nil {
		return // disarmed after the delivery was scheduled
	}
	v, ok := q.items.pop()
	if !ok {
		return // consumed by a TryGet after the delivery was scheduled
	}
	q.cb = nil
	cb(v)
}

// Resource is a counting semaphore with FIFO admission, used to model
// contended capacity such as NIC processing slots or CPU cores.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  fifo[*Proc]
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("simtime: resource capacity must be >= 1")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Acquire blocks p until a unit of capacity is available and claims it.
// It reports whether p had to wait for a release.
func (r *Resource) Acquire(p *Proc) (waited bool) {
	if r.inUse < r.capacity {
		r.inUse++
		return false
	}
	r.waiters.push(p)
	p.block()
	// Whoever released on our behalf already counted us in.
	return true
}

// Release returns a unit of capacity, waking the longest waiter if any.
// It is ReleaseAfter(0).
func (r *Resource) Release() { r.ReleaseAfter(0) }

// ReleaseAfter returns a unit of capacity. If a process is waiting, the
// unit passes straight to the longest waiter, which resumes d from now;
// otherwise the unit is freed at once.
func (r *Resource) ReleaseAfter(d Duration) {
	if p, ok := r.waiters.pop(); ok {
		// Capacity transfers directly to the waiter; inUse is unchanged.
		r.eng.wake(p, r.eng.now.Add(d))
		return
	}
	r.inUse--
	if r.inUse < 0 {
		panic("simtime: Release without Acquire")
	}
}
