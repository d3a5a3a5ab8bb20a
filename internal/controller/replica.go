package controller

import (
	"masq/internal/simtime"
)

// replRec is one replication-log record: a table write the primary
// accepted, shipped to the standby in accept order.
type replRec struct {
	seq     uint64
	k       Key
	e       entry
	removed bool
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

	q       *simtime.Queue[replRec] // logged records not yet on the channel
	table   map[Key]entry
	logSeq  uint64 // records accepted by the primary
	applied uint64 // records folded into the shadow table
	gen     uint64 // truncation generation: fences the in-flight record
	fenced  uint64 // records dropped by truncation (lost writes)

	// The log pump moves one record at a time from q onto the channel and
	// into the table, as a state machine driven by one timer.
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
	// fires wait in q, where a truncation fences them.
	pumpStarting pumpState = iota
	// pumpParked: q is empty and no timer is pending. The next append
	// hands its record straight to the pump (pumpHanded).
	pumpParked
	// pumpHanded: cur was handed over at append and the hand-off timer is
	// pending at that instant. The record is in neither q nor the channel,
	// so a truncation in the same instant does not fence it: it enters
	// the channel under the new generation.
	pumpHanded
	// pumpSending: cur is on the channel and the apply timer is pending;
	// a truncation before it fires fences cur.
	pumpSending
)

// newReplica builds a standby and starts its apply pump on the shard's
// engine.
func newReplica(eng *simtime.Engine, delay simtime.Duration) *Replica {
	r := &Replica{
		eng:   eng,
		delay: delay,
		q:     simtime.NewQueue[replRec](eng),
		table: make(map[Key]entry),
	}
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
		rec, ok := r.q.TryGet()
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
	if r.cur.removed {
		delete(r.table, r.cur.k)
	} else {
		r.table[r.cur.k] = r.cur.e
	}
	r.applied = r.cur.seq
}

// append logs one accepted primary write (the Controller mutation hook).
// A parked pump takes the record at once and starts on it at this instant.
func (r *Replica) append(k Key, e entry, removed bool) {
	r.logSeq++
	rec := replRec{seq: r.logSeq, k: k, e: e, removed: removed}
	if r.state != pumpParked {
		r.q.Put(rec)
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
	n := 0
	for {
		if _, ok := r.q.TryGet(); !ok {
			break
		}
		n++
	}
	r.fenced += uint64(n)
	r.gen++ // fences the record (if any) already on the channel
	r.applied = r.logSeq
	return n
}

// snapshot copies the shadow table — the state a promotion adopts.
func (r *Replica) snapshot() map[Key]entry {
	out := make(map[Key]entry, len(r.table))
	for k, e := range r.table {
		out[k] = e
	}
	return out
}

// reset re-images the standby from an authoritative table (a fresh standby
// synced from a just-promoted or just-restarted primary) and discards any
// un-applied log.
func (r *Replica) reset(table map[Key]entry) {
	r.truncate()
	r.table = make(map[Key]entry, len(table))
	for k, e := range table {
		r.table[k] = e
	}
}

// SetLagWindow injects replication lag: until the given instant every
// applied record pays extra on top of the base delay (chaos replica-lag).
func (r *Replica) SetLagWindow(until simtime.Time, extra simtime.Duration) {
	r.lagUntil = until
	r.lagExtra = extra
}
