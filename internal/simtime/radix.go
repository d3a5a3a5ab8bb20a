package simtime

import (
	"cmp"
	"math/bits"
	"slices"
)

// radixQueue holds the events scheduled for a later instant than Now(). It
// is a monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990)
// keyed on at, which hands out its entries in (at, seq) order. Event times
// never decrease, so a push is one append, and a take costs O(1) amortized
// per bucket an entry moves down, which it does at most 63 times.
//
// base is the at of the last entry taken, and no queued at is below it.
// Bucket 0 holds the entries at base. Bucket i > 0 holds the entries whose
// at first differs from base at bit i-1, which all lie in
// [B + 2^(i-1), B + 2^i) for B, base with its low i bits cleared. So every
// entry of bucket i orders before every entry of a higher bucket, and the
// head is in the lowest non-empty one.
//
// Every bucket above 0 keeps its entries in seq order: a push appends the
// largest seq so far, and a spread (take) moves a bucket's entries, in
// order, into buckets that are all empty. Bucket 0 is filled only by a
// spread or a rebase, each of which reverses it, so its head is its last
// entry.
//
// The engine keeps base <= Now(): a push is always later than Now(), and a
// take moves base only to the at of the entry it takes, which dispatch then
// sets the clock to. A head that is not taken must not move base, because
// RunUntil can stop the clock short of it and later pushes land between
// the two. The one entry taken without moving the clock, a dead process's
// wake, is followed by a rebase back to Now().
type radixQueue struct {
	base Time
	mask uint64 // bit i is set when bucket i is non-empty
	b    [64][]entry
}

// push adds x, which must not be earlier than base. Only rebase pushes an
// entry at base; the engine pushes only entries later than Now().
func (q *radixQueue) push(x entry) {
	i := bits.Len64(uint64(x.at ^ q.base))
	q.b[i] = append(q.b[i], x)
	q.mask |= 1 << i
}

// headBefore reports whether the queue's head is at base and orders before
// y. When bucket 0 is empty, every queued entry is later than base.
func (q *radixQueue) headBefore(y entry) bool {
	b0 := q.b[0]
	return len(b0) > 0 && b0[len(b0)-1].before(y)
}

// take removes and returns the head if its at is before limit, and moves
// base to that at. It reports false, and changes nothing, when the queue is
// empty or its head is at or past limit.
func (q *radixQueue) take(limit Time) (entry, bool) {
	if q.mask&1 == 0 {
		if q.mask == 0 {
			return entry{}, false
		}
		// The head is in the lowest non-empty bucket. A lone entry is it.
		i := bits.TrailingZeros64(q.mask)
		b := q.b[i]
		if len(b) == 1 {
			x := b[0]
			if x.at >= limit {
				return entry{}, false
			}
			b[0] = entry{}
			q.b[i] = b[:0]
			q.mask &^= 1 << i
			q.base = x.at
			return x, true
		}
		// Several are spread around their least at, m: each lands strictly
		// lower, and those at m land in bucket 0.
		m := b[0].at
		for _, x := range b[1:] {
			m = min(m, x.at)
		}
		if m >= limit {
			return entry{}, false
		}
		q.base = m
		for _, x := range b {
			j := bits.Len64(uint64(x.at ^ m))
			q.b[j] = append(q.b[j], x)
			q.mask |= 1 << j
		}
		clear(b)
		q.b[i] = b[:0]
		q.mask &^= 1 << i
		slices.Reverse(q.b[0])
	}
	b0 := q.b[0]
	n := len(b0) - 1
	x := b0[n]
	if x.at >= limit {
		return entry{}, false
	}
	b0[n] = entry{}
	q.b[0] = b0[:n]
	if n == 0 {
		q.mask &^= 1
	}
	return x, true
}

// rebase rebuilds the queue around base, which must not be later than any
// queued entry.
func (q *radixQueue) rebase(base Time) {
	var all []entry
	for i := range q.b {
		all = append(all, q.b[i]...)
		clear(q.b[i])
		q.b[i] = q.b[i][:0]
	}
	slices.SortFunc(all, func(a, b entry) int { return cmp.Compare(a.seq, b.seq) })
	q.base, q.mask = base, 0
	for _, x := range all {
		q.push(x)
	}
	slices.Reverse(q.b[0])
}
