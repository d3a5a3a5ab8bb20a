package simtime

import (
	"math/bits"
	"testing"
)

// refHeap is the 4-ary min-heap on (at, seq) that held the engine's later
// events before the radix queue. It is the reference the radix queue must
// agree with, entry for entry.
type refHeap []entry

func (h *refHeap) push(x entry) {
	q := append(*h, x)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		p := q[parent]
		if !x.before(p) {
			break
		}
		q[i] = p
		i = parent
	}
	q[i] = x
	*h = q
}

func (h *refHeap) pop() entry {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m, mc := c, q[c]
			for j := c + 1; j < min(c+4, n); j++ {
				if q[j].before(mc) {
					m, mc = j, q[j]
				}
			}
			if !mc.before(last) {
				break
			}
			q[i] = mc
			i = m
		}
		q[i] = last
	}
	return top
}

// peek returns the radix queue's head without removing it or moving base.
func (q *radixQueue) peek() (entry, bool) {
	if q.mask == 0 {
		return entry{}, false
	}
	i := bits.TrailingZeros64(q.mask)
	b := q.b[i]
	if i == 0 {
		return b[len(b)-1], true
	}
	h := b[0]
	for _, x := range b[1:] {
		if x.before(h) {
			h = x
		}
	}
	return h, true
}

// peek returns the head of the engine's queue, the entry dispatch would
// take next with no limit, and false when the queue is empty.
func (e *Engine) peek() (entry, bool) {
	h, ok := e.pq.peek()
	if e.lhead < len(e.lane) && (!ok || !h.before(e.lane[e.lhead])) {
		return e.lane[e.lhead], true
	}
	return h, ok
}

// FuzzEventQueue drives the radix queue the way the engine does and checks
// every entry it hands out, and its head after every step, against the
// reference heap. The input is a sequence of steps, each an opcode byte and
// its operands:
//   - push: an at 1–256 ns after Now(), 1–2^40 ns after it, or equal to
//     a queued at later than Now() (the engine sends an event at Now() to
//     the lane instead);
//   - take: the head, with no limit; the clock moves to it, unless the
//     entry is taken as cancelled, a dead process's wake, which leaves the
//     clock where it is and rebases the queue as dispatch does;
//   - peek past the limit: a take with a limit at or below the head, which
//     must take nothing, then, as RunUntil does, the clock moves up to just
//     below the limit, and an entry is pushed between the clock and the head.
func FuzzEventQueue(f *testing.F) {
	// Opcodes: op%3 picks the step (push, take, peek past the limit), and
	// op/3 its variant.
	const (
		soon, take, pastLimit = 0, 1, 2
		far, cancel           = 3, 4
		dup                   = 6
	)
	// A single entry.
	f.Add([]byte{soon, 7, take})
	// Three entries at one at, spread together into bucket 0; the last is
	// left behind a limit at the clock.
	f.Add([]byte{soon, 9, dup, 0, dup, 0, take, take, pastLimit, 0, take, take})
	// Entries 2^39 and 2^40 ns apart.
	f.Add([]byte{far, 0, 0, 0, 0, 0, far, 255, 255, 255, 255, 255, far, 128, 0, 0, 0, 0, take, take, take})
	// A push below a head that was peeked but not taken: a head alone in
	// its bucket, then one beside another entry.
	f.Add([]byte{soon, 3, soon, 200, take, pastLimit, 128, 5, take, take})
	f.Add([]byte{soon, 3, soon, 200, soon, 229, take, pastLimit, 128, 5, take, take, take})
	// A cancelled take, then a push below its at.
	f.Add([]byte{soon, 4, soon, 90, dup, 1, cancel, soon, 2, take, take, take})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Each step's checks scan a bucket, so bound the steps per input.
		data = data[:min(len(data), 1<<10)]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		var (
			q   radixQueue
			ref refHeap
			now Time
			seq uint64
		)
		add := func(at Time) {
			seq++
			x := entry{at: at, seq: seq}
			q.push(x)
			ref.push(x)
		}
		for len(data) > 0 {
			op := next()
			switch op % 3 {
			case 0: // push
				switch op / 3 % 3 {
				case 0:
					add(now + 1 + Time(next()))
				case 1:
					var d uint64
					for k := 0; k < 5; k++ {
						d = d<<8 | uint64(next())
					}
					add(now + 1 + Time(d))
				default:
					if len(ref) > 0 {
						if at := ref[int(next())%len(ref)].at; at > now {
							add(at)
						}
					}
				}
			case 1: // take
				x, ok := q.take(Time(1<<62 - 1))
				if ok != (len(ref) > 0) {
					t.Fatalf("take reports %v with %d entries queued", ok, len(ref))
				}
				if !ok {
					break
				}
				if want := ref.pop(); x != want {
					t.Fatalf("took (%d, %d), want (%d, %d)", x.at, x.seq, want.at, want.seq)
				}
				if op/3%2 == 0 {
					now = x.at
				} else if q.base > now {
					q.rebase(now)
				}
			case 2: // peek past the limit
				if len(ref) == 0 {
					break
				}
				h := ref[0]
				limit := now + Time(uint64(next())*uint64(h.at-now)/255)
				if x, ok := q.take(limit); ok {
					t.Fatalf("took (%d, %d) at limit %d", x.at, x.seq, limit)
				}
				now = max(now, limit-1)
				if gap := h.at - now; gap > 1 {
					add(now + 1 + Time(uint64(next())%uint64(gap-1)))
				}
			}
			h, ok := q.peek()
			if ok != (len(ref) > 0) || ok && h != ref[0] {
				t.Fatalf("peek = (%d, %d) %v, want the reference head of %d entries", h.at, h.seq, ok, len(ref))
			}
			if q.base > now {
				t.Fatalf("base %d is past the clock %d", q.base, now)
			}
		}
	})
}
