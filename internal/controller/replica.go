package controller

import (
	"slices"

	"masq/internal/simtime"
)

// replRec is one replication-log record: a table write the primary
// accepted, shipped to the standby in accept order. It names its row by
// the slot the primary and the standby share (keySlots); a removal carries
// the empty row, and a removal of a key never written carries slot -1.
type replRec struct {
	seq  uint64
	slot int32
	e    entry
}

// Replica is one shard's standby: a shadow mapping table fed by a
// push-replicated log of the primary's accepted writes. Each record spends
// ReplDelay on the replication channel (plus any chaos-injected lag
// window), so the standby trails the primary by the channel's backlog —
// exactly the writes a failover can lose. Lease expiry is NOT replicated:
// records carry the lease deadline and the replica's table expires lazily,
// like the primary's.
type Replica struct {
	eng   *simtime.Engine
	delay simtime.Duration
	slots *keySlots // the primary's key index, which records' slots name

	log     replLog // logged records not yet on the channel
	table   table
	logSeq  uint64 // records accepted by the primary
	applied uint64 // records folded into the shadow table
	gen     uint64 // truncation generation: fences the in-flight record
	fenced  uint64 // records dropped by truncation (lost writes)

	// The log pump moves one record at a time from the log onto the
	// channel and into the table, as a state machine driven by one timer.
	state  pumpState
	cur    replRec        // the handed or in-flight record
	curGen uint64         // gen when cur entered the channel
	timer  *simtime.Timer // start, hand-off or apply, by state

	// Chaos replica-lag window: every record applied before lagUntil pays
	// lagExtra on top of the base delay.
	lagExtra simtime.Duration
	lagUntil simtime.Time
}

// pumpState is where the log pump stands. Truncation treats the four
// states differently, so they are kept apart.
type pumpState uint8

const (
	// pumpStarting: the start timer is pending. Records logged before it
	// fires wait in the log, where a truncation fences them.
	pumpStarting pumpState = iota
	// pumpParked: the log is empty and no timer is pending. The next
	// append hands its record straight to the pump (pumpHanded).
	pumpParked
	// pumpHanded: cur was handed over at append and the hand-off timer is
	// pending at that instant. The record is in neither the log nor the
	// channel, so a truncation in the same instant does not fence it: it
	// enters the channel under the new generation.
	pumpHanded
	// pumpSending: cur is on the channel and the apply timer is pending;
	// a truncation before it fires fences cur.
	pumpSending
)

// newReplica builds a standby for the primary whose key index is slots
// and starts its apply pump on the shard's engine.
func newReplica(eng *simtime.Engine, delay simtime.Duration, slots *keySlots) *Replica {
	r := &Replica{eng: eng, delay: delay, slots: slots}
	r.timer = eng.NewTimer(r.fire)
	r.timer.ScheduleAt(eng.Now())
	return r
}

// fire runs the pump step the pending timer stood for, then moves on to
// the next logged record.
func (r *Replica) fire() {
	switch r.state {
	case pumpHanded:
		if r.send() {
			return
		}
	case pumpSending:
		r.apply()
	}
	r.pump()
}

// pump sends logged records onto the channel until one is in flight or
// the log is empty, in which case the pump parks. With no delay each
// record applies as it is sent, so the loop drains the log in one go.
func (r *Replica) pump() {
	for {
		rec, ok := r.log.pop()
		if !ok {
			r.state = pumpParked
			return
		}
		r.cur = rec
		if r.send() {
			return
		}
	}
}

// send puts cur on the channel under the current generation and arms the
// apply timer for its delay. With no delay it applies cur at once and
// reports false.
func (r *Replica) send() bool {
	r.curGen = r.gen
	d := r.delay
	if r.eng.Now() < r.lagUntil {
		d += r.lagExtra
	}
	if d <= 0 {
		r.apply()
		return false
	}
	r.state = pumpSending
	r.timer.ScheduleAfter(d)
	return true
}

// apply folds cur into the shadow table unless a truncation fenced it.
func (r *Replica) apply() {
	if r.gen != r.curGen {
		// A promotion truncated the log while this record was on the
		// channel: it belongs to the deposed primary's epoch and must not
		// contaminate the promoted table.
		r.fenced++
		return
	}
	r.table.set(r.cur.slot, r.cur.e, len(r.slots.keys))
	r.applied = r.cur.seq
}

// append logs one accepted primary write to row s (the empty row for a
// removal). A parked pump takes the record at once and starts on it at
// this instant.
func (r *Replica) append(s int32, e entry) {
	r.logSeq++
	rec := replRec{seq: r.logSeq, slot: s, e: e}
	if r.state != pumpParked {
		r.log.push(rec)
		return
	}
	r.cur = rec
	r.state = pumpHanded
	r.timer.ScheduleAt(r.eng.Now())
}

// Lag returns the replication backlog: records accepted by the primary but
// not yet applied on the standby.
func (r *Replica) Lag() int { return int(r.logSeq - r.applied) }

// Fenced returns the number of log records dropped by truncations — writes
// the deposed primary accepted that never survived a failover.
func (r *Replica) Fenced() uint64 { return r.fenced }

// truncate drops every un-applied log record (queued or on the channel)
// and returns how many were queued. It runs at promotion: the replicated
// prefix becomes the new primary's table and the un-applied tail is fenced.
func (r *Replica) truncate() int {
	n := r.log.clear()
	r.fenced += uint64(n)
	r.gen++ // fences the record (if any) already on the channel
	r.applied = r.logSeq
	return n
}

// snapshot copies the shadow table — the state a promotion adopts.
func (r *Replica) snapshot() table { return slices.Clone(r.table) }

// reset re-images the standby from an authoritative table (a fresh standby
// synced from a just-promoted or just-restarted primary) and discards any
// un-applied log.
func (r *Replica) reset(t table) {
	r.truncate()
	r.table = append(r.table[:0], t...)
}

// SetLagWindow injects replication lag: until the given instant every
// applied record pays extra on top of the base delay (chaos replica-lag).
func (r *Replica) SetLagWindow(until simtime.Time, extra simtime.Duration) {
	r.lagUntil = until
	r.lagExtra = extra
}

// replBlockLen is how many records one log block holds: 16 KiB of 64-byte
// records.
const replBlockLen = 256

// replBlock is one fixed-size block of the log, chained to the next.
type replBlock struct {
	recs [replBlockLen]replRec
	next *replBlock
}

// replLog is the FIFO of records logged but not yet on the channel, kept
// as a chain of fixed-size blocks. An append never moves a record already
// logged, however long the backlog grows, and a block is let go as soon as
// its last record leaves. The block let go last is kept as the one spare,
// so a drained log holds a single block, and a log that fills and drains
// within one block allocates nothing.
type replLog struct {
	head, tail *replBlock
	hi, ti     int // next record to take from head; next free row of tail
	n          int
	spare      *replBlock
}

// push appends rec at the tail, starting a block when the tail is full.
func (l *replLog) push(rec replRec) {
	if l.tail == nil || l.ti == replBlockLen {
		b := l.spare
		if b == nil {
			b = new(replBlock)
		}
		l.spare = nil
		if l.tail == nil {
			l.head, l.hi = b, 0
		} else {
			l.tail.next = b
		}
		l.tail, l.ti = b, 0
	}
	l.tail.recs[l.ti] = rec
	l.ti++
	l.n++
}

// pop removes and returns the oldest record.
func (l *replLog) pop() (replRec, bool) {
	if l.n == 0 {
		return replRec{}, false
	}
	rec := l.head.recs[l.hi]
	l.hi++
	if l.n--; l.n == 0 || l.hi == replBlockLen {
		l.dropHead()
	}
	return rec, true
}

// dropHead lets the head block go, keeping it as the spare.
func (l *replLog) dropHead() {
	b := l.head
	l.head, l.hi = b.next, 0
	if l.head == nil {
		l.tail, l.ti = nil, 0
	}
	b.next = nil
	l.spare = b
}

// clear drops every logged record and returns how many there were.
func (l *replLog) clear() int {
	n := l.n
	for l.head != nil {
		l.dropHead()
	}
	l.n = 0
	return n
}
