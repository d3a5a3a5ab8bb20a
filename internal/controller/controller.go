// Package controller implements the logically centralized SDN controller
// of Sec. 3.3.1: it maintains the mapping table from (tenant VNI, virtual
// GID) to the physical GID (and underlay addressing) of the host currently
// running that endpoint. vBond registers and updates entries as virtual
// IPs change; RConnrename queries it — normally through its local cache —
// while establishing connections, and can ask for a push-down of a whole
// tenant's mappings to avoid even the first-query miss.
//
// Unlike the perfect RPC fabric of an early prototype, the controller here
// behaves like a real SDN service: push notifications to backends travel a
// per-subscriber delivery queue with configurable latency and loss (cache
// coherence is eventually consistent), and queries can time out under an
// injected fault plan (unavailability windows, dropped replies) so callers
// must retry.
//
// The controller is also mortal. Crash wipes the mapping table and every
// pending notification and marks the service down; Restart brings it back
// empty under a new epoch. Nothing is persisted: recovery is edge-driven —
// each host re-registers its live endpoints when lease renewal reveals the
// new epoch (see internal/masq). Registrations are held as leases when
// LeaseTTL is set: entries not renewed within the TTL expire lazily, at
// RPC read time, so a host that died silently stops being routable without
// any background sweeper.
package controller

import (
	"errors"
	"math/rand"

	"masq/internal/packet"
	"masq/internal/simtime"
	"masq/internal/trace"
)

// ErrUnavailable is returned by Lookup when a query times out: the
// controller was inside an unavailability window, crashed, or the reply
// was lost. The caller saw no answer within QueryTimeout and should back
// off and retry.
var ErrUnavailable = errors.New("controller: query timed out")

// Controller access costs.
const (
	// queryRTT is the remote query round trip (paper: ~100 µs).
	queryRTT = 100 * simtime.Microsecond

	// QueryTimeout is how long a querier waits for a reply before
	// declaring the query lost (and, in the backend, backing off).
	QueryTimeout = simtime.Millisecond

	// dumpEntryCost is the per-entry serialization cost of FetchDump, the
	// charged push-down seeding RPC: a whole-tenant dump costs
	// queryRTT + entries × dumpEntryCost.
	dumpEntryCost = simtime.Microsecond
)

// Params model the notification channel, leases and replication.
type Params struct {
	// NotifyDelay is the controller→backend push latency: every
	// invalidation or push-down entry spends this long in the
	// subscriber's delivery queue before the backend applies it.
	NotifyDelay simtime.Duration

	// NotifyDropProb is the i.i.d. probability that a push notification
	// to one subscriber is lost in flight (never delivered). Losses are
	// drawn from a PRNG seeded with Seed, so runs are reproducible.
	NotifyDropProb float64

	// LeaseTTL turns registrations into leases: an entry not re-asserted
	// (Register/Renew) within the TTL expires and stops resolving. Zero
	// keeps the historical immortal-registration behaviour.
	LeaseTTL simtime.Duration

	// Replicate gives every shard of a Sharded controller a standby
	// replica fed by a push-replicated mutation log; a crashed or
	// partitioned primary is then promoted automatically after
	// FailoverDetect. Ignored by a bare Controller.
	Replicate bool

	// ReplDelay is the per-record apply latency of the replication log.
	// Records apply one at a time: each enters the channel once the one
	// before it has applied, so the standby trails the primary by the
	// log backlog × ReplDelay, not by ReplDelay alone. The window between
	// accept and apply is exactly what a failover can lose (fenced
	// writes).
	ReplDelay simtime.Duration

	// FailoverDetect is how long a shard primary must be unreachable
	// before its standby is promoted. Zero defaults to 2 × QueryTimeout.
	FailoverDetect simtime.Duration

	// Seed seeds the notification-loss PRNG.
	Seed int64
}

// DefaultParams returns a reliable, same-instant notification channel
// (the historical behaviour).
func DefaultParams() Params {
	return Params{Seed: 1}
}

// failoverDetect returns the configured promotion delay, defaulting to two
// query timeouts — long enough that a renewal round has visibly failed.
func (p Params) failoverDetect() simtime.Duration {
	if p.FailoverDetect > 0 {
		return p.FailoverDetect
	}
	return 2 * QueryTimeout
}

// Window is a half-open interval [Start, End) of virtual time during which
// the controller does not answer queries.
type Window struct {
	Start, End simtime.Time
}

// FaultPlan injects control-plane faults, driven entirely by the sim
// clock so every run is reproducible.
type FaultPlan struct {
	// Unavailable lists windows during which every query times out (the
	// controller is partitioned, overloaded, or failing over).
	Unavailable []Window

	// DropReplies makes the next N query replies vanish in flight: the
	// query reaches the controller, but the caller times out anyway.
	DropReplies int
}

// Mapping is the physical view of a virtual endpoint: the record
// RConnrename swaps into the QPC. A record is ~35 bytes on the wire
// (vGID 16 B + VNI 3 B + pGID 16 B), which is how the paper sizes the
// local cache.
type Mapping struct {
	PGID packet.GID
	PIP  packet.IP
	PMAC packet.MAC
}

// Key identifies a virtual endpoint. Different tenants may use identical
// virtual IPs, hence the VNI (Sec. 3.3.1).
type Key struct {
	VNI  uint32
	VGID packet.GID
}

// Stats counts controller traffic.
type Stats struct {
	Queries, Hits, Updates, Removals uint64

	// Timeouts counts queries that got no reply (window + dropped + down).
	Timeouts uint64
	// DroppedReplies counts replies lost via FaultPlan.DropReplies.
	DroppedReplies uint64

	// Notification-channel accounting.
	NotifySent      uint64 // notifications enqueued toward subscribers
	NotifyDropped   uint64 // lost in flight (NotifyDropProb)
	NotifyDelivered uint64 // applied by a subscriber callback
	NotifyWiped     uint64 // queued notifications destroyed by Crash

	// NotifyQueueHWM is the deepest any subscriber's delivery queue has
	// ever been — the visible notification backlog during outages and
	// push-down storms (per-subscriber marks via QueueHWMs).
	NotifyQueueHWM int

	// Crash/recovery accounting.
	Crashes      uint64 // Crash invocations
	Restarts     uint64 // Restart invocations (each bumps the epoch)
	Renewals     uint64 // successful Renew RPCs
	LeaseExpired uint64 // entries lazily purged after their lease lapsed
	LostUpdates  uint64 // Register/Unregister attempts while down

	// Batch-RPC accounting.
	BatchQueries  uint64 // successful BatchLookup RPCs
	BatchedKeys   uint64 // keys resolved through BatchLookup
	BatchRenewals uint64 // renewals piggybacked on BatchLookup

	// Migration accounting.
	Suspends uint64 // Suspend RPCs (migration freeze announcements)
	Moves    uint64 // Move RPCs (migration commits and rollback resumes)
}

// Notify is one push notification as a subscriber sees it: the table
// change plus the fencing metadata. Epoch is the controller incarnation
// that produced it — backends drop notifications from an epoch older than
// one they have already observed. Seq is the per-subscriber sequence
// number, counting every notification addressed to that subscriber
// (including ones lost in flight), so receivers can detect gaps.
type Notify struct {
	Key     Key
	Mapping Mapping
	Removed bool
	Epoch   uint64
	Seq     uint64

	// Suspend marks a migration freeze announcement: the endpoint behind
	// Key is about to black out, so subscribers quiesce their requester
	// side toward it (no TX, no retransmission timer) instead of burning
	// through the transport retry budget.
	Suspend bool
	// Moved marks a migration commit — Mapping is the endpoint's new
	// physical identity and QPNMap translates its old QP numbers to the
	// ones minted on the destination device, so peers rewrite address
	// vectors in place and replay their in-flight PSN windows. A rollback
	// resume is a Moved push carrying the *original* mapping and no QPNMap.
	Moved  bool
	QPNMap map[uint32]uint32
}

// Subscription is one backend's delivery channel: a FIFO queue drained by
// a dedicated DES process, so pushes arrive in order but asynchronously.
// Its accessors let the subscriber audit the channel: Seq is the highest
// sequence number addressed to it, Pending the pushes still on their way.
type Subscription struct {
	fn      func(Notify)
	q       *simtime.Queue[Notify]
	seq     uint64
	pending int // pushes addressed to the subscriber, neither delivered nor lost
	hwm     int // deepest the delivery queue has been
}

// Seq returns the highest sequence number addressed to this subscriber
// (delivered, queued, or lost in flight).
func (s *Subscription) Seq() uint64 { return s.seq }

// Pending returns how many pushes are on their way to the subscriber:
// queued, or taken off the queue by the delivery process and not yet
// applied. A push stops counting once it is delivered, dropped in flight,
// or wiped by a crash, so Seq ahead of everything seen with nothing
// pending means a push was lost.
func (s *Subscription) Pending() int { return s.pending }

// Controller is the mapping service of one keyspace shard; Sharded runs
// one as each shard's primary.
type Controller struct {
	P     Params
	Stats Stats

	eng   *simtime.Engine
	slots *keySlots // numbers the keys; the shard's standby shares it
	table table     // one row per slot
	subs  []*Subscription
	fault FaultPlan
	rng   *rand.Rand
	rec   *trace.Recorder

	epoch uint64
	down  bool

	// Analytic service queue: the serialization slot is busy until
	// busyUntil; arrivals wait for it (see enter) and batch/dump
	// serialization occupies it (see serialize). Uncontended traffic never
	// waits, so the queue costs nothing until there is actual contention.
	busyUntil simtime.Time
	waiting   int
	queueHWM  int

	// standby, when set, is the owning shard's replica: every accepted
	// table write is appended to its log. Nil (the default) replicates
	// nothing.
	standby *Replica
}

// SetRecorder attaches a trace recorder; query and notification work is
// then recorded as controller-layer spans. A nil recorder is valid.
func (c *Controller) SetRecorder(r *trace.Recorder) { c.rec = r }

// New returns an empty controller in epoch 1.
func New(eng *simtime.Engine, p Params) *Controller {
	return &Controller{
		P:     p,
		eng:   eng,
		slots: newKeySlots(),
		rng:   rand.New(rand.NewSource(p.Seed)),
		epoch: 1,
	}
}

// SetFaultPlan arms (or replaces) the fault-injection plan.
func (c *Controller) SetFaultPlan(fp FaultPlan) { c.fault = fp }

// Epoch returns the current controller incarnation. It bumps on every
// Restart; mappings, notifications, and RPC replies all carry it.
func (c *Controller) Epoch() uint64 { return c.epoch }

// Down reports whether the controller is crashed (test/ops oracle).
func (c *Controller) Down() bool { return c.down }

// Crash kills the controller: the in-memory mapping table and every queued
// (undelivered) notification are destroyed, and all RPCs time out until
// Restart. Nothing is persisted — recovery relies entirely on the edge
// re-registering (see Renew).
func (c *Controller) Crash() {
	if c.down {
		return
	}
	c.down = true
	c.Stats.Crashes++
	c.table = c.table[:0]
	for _, s := range c.subs {
		for {
			if _, ok := s.q.TryGet(); !ok {
				break
			}
			s.pending--
			c.Stats.NotifyWiped++
		}
	}
}

// Restart brings a crashed controller back with an empty table and a new
// epoch. Backends discover the bump via lease renewal (or a fenced-epoch
// notification) and reconverge the table by re-registering.
func (c *Controller) Restart() {
	if !c.down {
		return
	}
	c.down = false
	c.Stats.Restarts++
	c.epoch++
}

// row returns the table row for m written now: the current epoch and,
// with leases on, a deadline LeaseTTL from now.
func (c *Controller) row(m Mapping, now simtime.Time) entry {
	e := entry{m: m, ok: true, epoch: c.epoch}
	if c.P.LeaseTTL > 0 {
		e.expires = now.Add(c.P.LeaseTTL)
	}
	return e
}

// write stores row s and appends the write to the replication log, if any
// is attached.
func (c *Controller) write(s int32, e entry) {
	c.table.set(s, e, len(c.slots.keys))
	if c.standby != nil {
		c.standby.append(s, e)
	}
}

// Register inserts or updates a mapping (vBond's notification on vGID
// creation or change) and queues push notifications to subscribers. While
// the controller is down the update is simply lost — the edge's lease
// renewal repairs it after Restart.
func (c *Controller) Register(k Key, m Mapping) {
	if c.down {
		c.Stats.LostUpdates++
		return
	}
	c.Stats.Updates++
	c.write(c.slots.intern(k), c.row(m, c.eng.Now()))
	c.notify(Notify{Key: k, Mapping: m})
}

// Unregister removes a mapping (VM shutdown / IP released) and queues
// invalidations to subscribers. Lost while the controller is down (the
// lease, if any, eventually expires instead).
func (c *Controller) Unregister(k Key) {
	if c.down {
		c.Stats.LostUpdates++
		return
	}
	c.Stats.Removals++
	c.write(c.slots.lookup(k), entry{})
	c.notify(Notify{Key: k, Removed: true})
}

// notify fans one event out to every subscriber's delivery queue, applying
// the loss model per subscriber and stamping epoch + per-subscriber seq.
func (c *Controller) notify(n Notify) {
	n.Epoch = c.epoch
	for _, s := range c.subs {
		c.Stats.NotifySent++
		s.seq++
		n.Seq = s.seq
		if c.P.NotifyDropProb > 0 && c.rng.Float64() < c.P.NotifyDropProb {
			c.Stats.NotifyDropped++
			continue
		}
		s.pending++
		s.q.Put(n)
		if d := s.q.Len(); d > s.hwm {
			s.hwm = d
			if d > c.Stats.NotifyQueueHWM {
				c.Stats.NotifyQueueHWM = d
			}
		}
	}
}

// Subscribe registers a push-notification callback: local caches use it to
// invalidate or pre-populate ("the controller can be configured to push
// down the mappings in advance"). Delivery is asynchronous: each
// subscriber owns a FIFO queue drained by a DES process that sleeps
// NotifyDelay per notification, so a backend's cache view lags the
// controller's table — eventually consistent, like a real SDN. The
// returned Subscription exposes the channel's fencing metadata (Seq,
// Pending) for the subscriber's reconciliation logic.
func (c *Controller) Subscribe(fn func(Notify)) *Subscription {
	s := &Subscription{fn: fn, q: simtime.NewQueue[Notify](c.eng)}
	c.subs = append(c.subs, s)
	c.eng.Spawn("controller.notify", func(p *simtime.Proc) {
		for {
			n := s.q.Get(p)
			sp := c.rec.Begin(p, trace.LayerController, "notify")
			if d := c.P.NotifyDelay; d > 0 {
				p.Sleep(d)
			}
			s.pending--
			s.fn(n)
			sp.End(p)
			c.Stats.NotifyDelivered++
		}
	})
	return s
}

// QueueHWMs returns each subscriber's delivery-queue high-water mark, in
// subscription order (observability: notification backlog per backend).
func (c *Controller) QueueHWMs() []int {
	out := make([]int, len(c.subs))
	for i, s := range c.subs {
		out[i] = s.hwm
	}
	return out
}

// windowOverlaps reports whether any unavailability window intersects the
// closed RPC interval [from, to]: the request is lost if the controller is
// unreachable at any instant while it is in flight — including a window
// strictly contained inside the interval, which the old send/reply point
// checks missed.
func (c *Controller) windowOverlaps(from, to simtime.Time) bool {
	for _, w := range c.fault.Unavailable {
		if w.Start <= to && from < w.End {
			return true
		}
	}
	return false
}

// enter waits for the serialization slot to free. Uncontended callers pass
// straight through (no events); contended callers sleep until busyUntil,
// which a batch that slipped in ahead may extend while they wait —
// SleepUntil follows it without waking them in between. The waiter
// count's high-water mark is the controller's queue HWM.
func (c *Controller) enter(p *simtime.Proc) {
	if c.busyUntil <= p.Now() {
		return
	}
	c.waiting++
	if c.waiting > c.queueHWM {
		c.queueHWM = c.waiting
	}
	p.SleepUntil(&c.busyUntil)
	c.waiting--
}

// serialize holds the serialization slot for cost. When the slot is free
// this is exactly one Sleep(cost).
func (c *Controller) serialize(p *simtime.Proc, cost simtime.Duration) {
	if cost <= 0 {
		return
	}
	c.enter(p)
	c.busyUntil = p.Now().Add(cost)
	p.Sleep(cost)
}

// rpc models one control RPC round trip under the fault plan. The
// controller must be reachable for the whole [send, send+queryRTT]
// interval — a window opening (or a crash landing) anywhere mid-RTT eats
// the reply, and the caller waits out the full QueryTimeout exactly like
// any lost answer. On success the caller has paid queryRTT.
func (c *Controller) rpc(p *simtime.Proc) error {
	send := p.Now()
	if c.down || c.windowOverlaps(send, send.Add(queryRTT)) {
		c.Stats.Timeouts++
		p.Sleep(QueryTimeout)
		return ErrUnavailable
	}
	if c.fault.DropReplies > 0 {
		c.fault.DropReplies--
		c.Stats.Timeouts++
		c.Stats.DroppedReplies++
		p.Sleep(QueryTimeout)
		return ErrUnavailable
	}
	p.Sleep(queryRTT)
	if c.replyLost(p, send) {
		return ErrUnavailable
	}
	return nil
}

// replyLost reports whether the controller went down while serving a
// request sent at send: the reply never comes, so it counts a timeout and
// keeps the caller waiting until QueryTimeout after send, as for any lost
// answer (at once if serving already took that long).
func (c *Controller) replyLost(p *simtime.Proc, send simtime.Time) bool {
	if !c.down {
		return false
	}
	c.Stats.Timeouts++
	if rest := send.Add(QueryTimeout).Sub(p.Now()); rest > 0 {
		p.Sleep(rest)
	}
	return true
}

// Lookup performs one remote lookup attempt, modelling the RPC. On
// success the caller pays queryRTT and gets the table's answer (expired
// leases are purged here, lazily). Under an active fault the caller waits
// the full QueryTimeout and gets ErrUnavailable; retrying is the caller's
// job. The reply is from epoch Epoch() — read it at the same instant.
func (c *Controller) Lookup(p *simtime.Proc, k Key) (Mapping, bool, error) {
	sp := c.rec.Begin(p, trace.LayerController, "lookup")
	defer sp.End(p)
	c.Stats.Queries++
	if err := c.rpc(p); err != nil {
		return Mapping{}, false, err
	}
	if e, ok := c.read(c.slots.lookup(k), p.Now()); ok {
		c.Stats.Hits++
		return e.m, true, nil
	}
	return Mapping{}, false, nil
}

// read returns row s if its lease holds at now. A row whose lease has
// lapsed is purged here, lazily, and counted.
func (c *Controller) read(s int32, now simtime.Time) (entry, bool) {
	e := c.table.get(s)
	if e.ok && !e.live(now) {
		c.table[s] = entry{}
		c.Stats.LeaseExpired++
		return entry{}, false
	}
	return e, e.ok
}

// renew re-asserts k → m at now and reports whether that changed the
// table's view of k (a reinstatement or an address change), which
// subscribers must hear about. A row whose lease has lapsed counts as
// expired and is overwritten.
func (c *Controller) renew(k Key, m Mapping, now simtime.Time) (changed bool) {
	s := c.slots.intern(k)
	old := c.table.get(s)
	if old.ok && !old.live(now) {
		c.Stats.LeaseExpired++
		old.ok = false
	}
	c.Stats.Renewals++
	c.write(s, c.row(m, now))
	return !old.ok || old.m != m
}

// Renew is the lease-renewal RPC: the edge re-asserts that (k → m) is
// live, extending the lease and re-creating the entry if the controller
// lost it (crash, expiry). It returns the controller's current epoch so
// callers discover restarts. A renewal that changes the table's view of k
// (reinstatement or address change) notifies subscribers like a Register;
// a pure extension is silent.
func (c *Controller) Renew(p *simtime.Proc, k Key, m Mapping) (uint64, error) {
	sp := c.rec.Begin(p, trace.LayerController, "renew")
	defer sp.End(p)
	if err := c.rpc(p); err != nil {
		return 0, err
	}
	if c.renew(k, m, p.Now()) {
		c.notify(Notify{Key: k, Mapping: m})
	}
	return c.epoch, nil
}

// Suspend is the migration freeze announcement RPC: it pushes a Suspend
// notification for k to every subscriber so peers quiesce their QPs toward
// the endpoint before its blackout starts. The table is untouched — the
// mapping keeps resolving (grace for late setups) until Move replaces it.
// A failure means the freeze was never announced; the migration must abort
// before touching anything.
func (c *Controller) Suspend(p *simtime.Proc, k Key) error {
	sp := c.rec.Begin(p, trace.LayerController, "suspend")
	defer sp.End(p)
	if err := c.rpc(p); err != nil {
		return err
	}
	c.Stats.Suspends++
	c.notify(Notify{Key: k, Suspend: true})
	return nil
}

// Move is the migration commit RPC: in one atomic step the table's mapping
// for k is replaced by m (fresh lease, current epoch) and a Moved push
// carrying the old→new QPN translation fans out, so peers rename their
// caches and address vectors in place and resume. A rollback re-commits
// the original mapping with a nil qpnMap — peers resume toward the source
// with nothing rewritten.
func (c *Controller) Move(p *simtime.Proc, k Key, m Mapping, qpnMap map[uint32]uint32) error {
	sp := c.rec.Begin(p, trace.LayerController, "move")
	defer sp.End(p)
	if err := c.rpc(p); err != nil {
		return err
	}
	c.Stats.Moves++
	c.Stats.Updates++
	c.write(c.slots.intern(k), c.row(m, p.Now()))
	c.notify(Notify{Key: k, Mapping: m, Moved: true, QPNMap: qpnMap})
	return nil
}

// RenewReq is one piggybacked lease renewal inside a BatchLookup request:
// the edge re-asserts (K → M) while it is querying anyway, saving the
// separate Renew round trip.
type RenewReq struct {
	K Key
	M Mapping
}

// BatchResult is one key's answer in a BatchLookup reply.
type BatchResult struct {
	M  Mapping
	OK bool
}

// BatchLookup resolves many keys in ONE query round trip and applies the
// piggybacked renewals in the same request — the connection-setup fast
// path's amortization of the per-RPC queryRTT. The wire shape is a single
// request frame carrying all keys and renewal records; serialization is
// charged at dumpEntryCost per record beyond the first (the first rides the
// queryRTT like a plain Lookup). The reply carries one BatchResult per key,
// in request order, plus the controller epoch. Under a fault the whole
// batch times out as one RPC: the caller waits one QueryTimeout, not one
// per key.
func (c *Controller) BatchLookup(p *simtime.Proc, keys []Key, renew []RenewReq) ([]BatchResult, uint64, error) {
	sp := c.rec.Begin(p, trace.LayerController, "batch_lookup")
	defer sp.End(p)
	c.Stats.Queries++
	send := p.Now()
	if err := c.rpc(p); err != nil {
		return nil, 0, err
	}
	if extra := len(keys) + len(renew) - 1; extra > 0 {
		c.serialize(p, simtime.Duration(extra)*dumpEntryCost)
		if c.replyLost(p, send) {
			return nil, 0, ErrUnavailable
		}
	}
	now := p.Now()
	for _, r := range renew {
		c.Stats.BatchRenewals++
		if c.renew(r.K, r.M, now) {
			c.notify(Notify{Key: r.K, Mapping: r.M})
		}
	}
	out := make([]BatchResult, len(keys))
	for i, k := range keys {
		if e, ok := c.read(c.slots.lookup(k), now); ok {
			c.Stats.Hits++
			out[i] = BatchResult{M: e.m, OK: true}
		}
	}
	c.Stats.BatchQueries++
	c.Stats.BatchedKeys += uint64(len(keys))
	return out, c.epoch, nil
}

// FetchDump is the charged, fault-aware whole-tenant dump RPC backends use
// for push-down seeding and post-outage resync: it pays the query round
// trip plus a size-proportional serialization cost, times out under the
// fault plan like any other RPC, and returns the epoch of the snapshot.
// (The serialization cost is charged before the snapshot is taken, so the
// mappings the caller receives are current as of the RPC's return instant.)
func (c *Controller) FetchDump(p *simtime.Proc, vni uint32) (map[Key]Mapping, uint64, error) {
	sp := c.rec.Begin(p, trace.LayerController, "dump")
	defer sp.End(p)
	c.Stats.Queries++
	send := p.Now()
	if err := c.rpc(p); err != nil {
		return nil, 0, err
	}
	n := 0
	for s, e := range c.table {
		if e.live(p.Now()) && c.slots.keys[s].VNI == vni {
			n++
		}
	}
	if n > 0 {
		c.serialize(p, simtime.Duration(n)*dumpEntryCost)
		if c.replyLost(p, send) {
			return nil, 0, ErrUnavailable
		}
	}
	now := p.Now()
	out := make(map[Key]Mapping)
	for s := range c.table {
		if k := c.slots.keys[s]; k.VNI == vni {
			if e, ok := c.read(int32(s), now); ok {
				out[k] = e.m
			}
		}
	}
	return out, c.epoch, nil
}

// Dump returns every live mapping of a tenant, instantly and regardless of
// faults: it is the omniscient test/ops oracle, NOT an RPC the data plane
// may use — backends seed and resync through FetchDump.
func (c *Controller) Dump(vni uint32) map[Key]Mapping {
	now := c.eng.Now()
	out := make(map[Key]Mapping)
	for s, e := range c.table {
		if k := c.slots.keys[s]; k.VNI == vni && e.live(now) {
			out[k] = e.m
		}
	}
	return out
}
