package controller

import (
	"errors"

	"masq/internal/simtime"
	"masq/internal/trace"
)

// ErrFenced is returned by a write RPC that raced a shard failover: the
// shard promoted its standby while the request was in flight, so the
// caller cannot know which incarnation holds its write. Fencing turns the
// ambiguity into an explicit failure — the caller retries against the new
// primary (renewals and moves are idempotent), and a deposed primary can
// never silently confirm a write the promoted table does not hold.
var ErrFenced = errors.New("controller: write fenced by shard failover")

// Sharded partitions the mapping table across N controller shards by
// consistent hash of (VNI, vGID). Each shard is a full Controller — its
// own epoch, lease table, fault plan, and push queues — so a crash, a
// partition, or a failover touches one slice of the keyspace while
// connections owned by other shards never notice. With Params.Replicate
// set, every shard also runs a standby Replica fed by a push-replicated
// mutation log; a primary unreachable for FailoverDetect is promoted
// automatically: the replicated prefix becomes the new table under a
// bumped epoch, and the un-replicated tail is fenced.
type Sharded struct {
	p      Params
	sm     *ShardMap
	shards []*Shard
}

// Shard is one keyspace slice: the serving primary (which owns the shard's
// service queue), its optional standby, and the front door's per-shard
// bookkeeping (fencing generation, failover accounting).
type Shard struct {
	pri *Controller
	rep *Replica
	eng *simtime.Engine

	// gen is the promotion generation — the fencing token. Write RPCs
	// capture it at send and fail with ErrFenced when it moved by reply.
	gen uint64

	genFenced  uint64 // write RPCs rejected by the gen fence
	failovers  uint64 // standby promotions
	partitions uint64 // partition events begun

	// outage numbers the primary's outages (crashes and partitions), with
	// or without replication. A failover timer promotes, and a partition's
	// heal ends the partition, only if the outage it was armed for is still
	// the current one: an outage that ended, through a promotion, a heal or
	// a restart, must not promote the standby early in the next, nor end it.
	outage uint64
}

// ShardStats is one shard's observability snapshot (masqctl's per-shard
// counter table).
type ShardStats struct {
	Epoch        uint64 // current incarnation
	Leases       int    // live table entries
	Down         bool   // primary currently unreachable
	QueueHWM     int    // deepest the service queue has been
	ReplLag      int    // replication-log records not yet applied on the standby
	FencedWrites uint64 // gen-fenced RPCs + truncated log records
	Failovers    uint64 // standby promotions
	Partitions   uint64 // partitions injected
}

// NewSharded builds an N-shard controller. engines supplies the DES engine
// for each shard: shard s runs on engines[s % len(engines)]. All shards
// share the same Params; per-shard notification-loss PRNGs are
// decorrelated by offsetting the seed with the shard index (shard 0 keeps
// the configured seed).
func NewSharded(engines []*simtime.Engine, p Params, n int) *Sharded {
	if n < 1 {
		n = 1
	}
	if len(engines) == 0 {
		panic("controller: NewSharded needs at least one engine")
	}
	s := &Sharded{p: p, sm: NewShardMap(n), shards: make([]*Shard, n)}
	for i := 0; i < n; i++ {
		eng := engines[i%len(engines)]
		sp := p
		sp.Seed = p.Seed + int64(i)
		sh := &Shard{pri: New(eng, sp), eng: eng}
		if p.Replicate {
			sh.rep = newReplica(eng, p.ReplDelay, sh.pri.slots)
			sh.pri.standby = sh.rep
		}
		s.shards[i] = sh
	}
	return s
}

// SetRecorder attaches a trace recorder to every shard primary.
func (s *Sharded) SetRecorder(r *trace.Recorder) {
	for _, sh := range s.shards {
		sh.pri.SetRecorder(r)
	}
}

// SetFaultPlan arms the same fault plan on every shard primary.
func (s *Sharded) SetFaultPlan(fp FaultPlan) {
	for _, sh := range s.shards {
		sh.pri.SetFaultPlan(fp)
	}
}

// Primary returns shard i's serving controller (tests, fault injection,
// per-shard stats).
func (s *Sharded) Primary(i int) *Controller { return s.shards[i].pri }

// SetLagWindow injects replication lag on shard i until the given instant
// (chaos replica-lag event). No-op without replication.
func (s *Sharded) SetLagWindow(i int, until simtime.Time, extra simtime.Duration) {
	if rep := s.shards[i].rep; rep != nil {
		rep.SetLagWindow(until, extra)
	}
}

// ShardStats snapshots shard i's counters.
func (s *Sharded) ShardStats(i int) ShardStats {
	sh := s.shards[i]
	st := ShardStats{
		Epoch:      sh.pri.epoch,
		Down:       sh.pri.down,
		QueueHWM:   sh.pri.queueHWM,
		Failovers:  sh.failovers,
		Partitions: sh.partitions,
	}
	now := sh.eng.Now()
	for _, e := range sh.pri.table {
		if e.live(now) {
			st.Leases++
		}
	}
	st.FencedWrites = sh.genFenced
	if sh.rep != nil {
		st.ReplLag = sh.rep.Lag()
		st.FencedWrites += sh.rep.Fenced()
	}
	return st
}

// Dump unions every shard's live mappings for a tenant — the omniscient
// test/ops oracle (see Controller.Dump).
func (s *Sharded) Dump(vni uint32) map[Key]Mapping {
	out := make(map[Key]Mapping)
	for _, sh := range s.shards {
		for k, m := range sh.pri.Dump(vni) {
			out[k] = m
		}
	}
	return out
}

// ─── Front door ───────────────────────────────────────────────────────────
//
// Shard-indexed calls (BatchLookupShard, FetchShardDump) keep failure
// isolation: a batch is per owning shard, so one dark shard cannot fail
// another shard's keys, and the retry policy stays at the edge. Every RPC
// that reaches a shard returns that shard's epoch as of the reply instant.

// NumShards returns the keyspace shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Owner returns the shard owning k (pure consistent-hash routing).
func (s *Sharded) Owner(k Key) int { return s.sm.Owner(k) }

// Register routes a fire-and-forget registration to the owning shard.
func (s *Sharded) Register(k Key, m Mapping) {
	s.shards[s.sm.Owner(k)].pri.Register(k, m)
}

// Unregister routes a fire-and-forget removal to the owning shard.
func (s *Sharded) Unregister(k Key) {
	s.shards[s.sm.Owner(k)].pri.Unregister(k)
}

// Resolve looks k up on its owning shard and returns the shard's epoch.
func (s *Sharded) Resolve(p *simtime.Proc, k Key) (Mapping, bool, uint64, error) {
	sh := s.shards[s.sm.Owner(k)]
	sh.pri.enter(p)
	m, ok, err := sh.pri.Lookup(p, k)
	return m, ok, sh.pri.epoch, err
}

// Renew re-asserts a lease on the owning shard, fenced against failover.
func (s *Sharded) Renew(p *simtime.Proc, k Key, m Mapping) (uint64, error) {
	sh := s.shards[s.sm.Owner(k)]
	sh.pri.enter(p)
	gen := sh.gen
	ep, err := sh.pri.Renew(p, k, m)
	if err == nil && sh.gen != gen {
		sh.genFenced++
		return 0, ErrFenced
	}
	return ep, err
}

// BatchLookupShard resolves many keys owned by one shard in one RPC,
// applying the piggybacked renewals (which must be owned by the same
// shard) first. It is fenced against failover because the batch writes.
func (s *Sharded) BatchLookupShard(p *simtime.Proc, shard int, keys []Key, renew []RenewReq) ([]BatchResult, uint64, error) {
	sh := s.shards[shard]
	sh.pri.enter(p)
	gen := sh.gen
	res, ep, err := sh.pri.BatchLookup(p, keys, renew)
	if err == nil && len(renew) > 0 && sh.gen != gen {
		sh.genFenced++
		return nil, 0, ErrFenced
	}
	return res, ep, err
}

// FetchShardDump returns one shard's live mappings for a tenant — a
// shard-scoped resync snapshot.
func (s *Sharded) FetchShardDump(p *simtime.Proc, shard int, vni uint32) (map[Key]Mapping, uint64, error) {
	sh := s.shards[shard]
	sh.pri.enter(p)
	return sh.pri.FetchDump(p, vni)
}

// Suspend routes the migration freeze announcement to the owning shard.
func (s *Sharded) Suspend(p *simtime.Proc, k Key) error {
	sh := s.shards[s.sm.Owner(k)]
	sh.pri.enter(p)
	return sh.pri.Suspend(p, k)
}

// Move routes the migration commit to the owning shard, fenced against
// failover.
func (s *Sharded) Move(p *simtime.Proc, k Key, m Mapping, qpnMap map[uint32]uint32) error {
	sh := s.shards[s.sm.Owner(k)]
	sh.pri.enter(p)
	gen := sh.gen
	err := sh.pri.Move(p, k, m, qpnMap)
	if err == nil && sh.gen != gen {
		sh.genFenced++
		return ErrFenced
	}
	return err
}

// SubscribeShards subscribes fn to every shard's push channel (invoked
// with the shard index) and returns the subscriptions in shard order.
func (s *Sharded) SubscribeShards(fn func(shard int, n Notify)) []*Subscription {
	out := make([]*Subscription, len(s.shards))
	for i, sh := range s.shards {
		i := i
		out[i] = sh.pri.Subscribe(func(n Notify) { fn(i, n) })
	}
	return out
}

// ─── Failover, fencing, partition ────────────────────────────────────────

// CrashShard kills shard i's primary: its slice of the table and its
// queued pushes are gone, and RPCs to it time out. With replication the
// standby is promoted after FailoverDetect; without, the shard stays dark
// until RestartShard.
func (s *Sharded) CrashShard(i int) {
	sh := s.shards[i]
	if sh.pri.down {
		return
	}
	sh.pri.Crash()
	s.beginOutage(i)
}

// RestartShard brings a crashed shard primary back empty under a bumped
// epoch (the no-replication recovery path — leases rebuild the slice). A
// standby, if any, is re-imaged from the restarted (empty) table.
func (s *Sharded) RestartShard(i int) {
	sh := s.shards[i]
	if !sh.pri.down {
		return
	}
	sh.pri.Restart()
	sh.gen++
	if sh.rep != nil {
		sh.rep.reset(sh.pri.table)
	}
}

// PartitionShard makes shard i's primary unreachable for heal. Unlike a
// crash nothing is lost on the primary — its table and queued pushes
// survive — but clients cannot tell the difference. Healing before
// FailoverDetect is a blip: the primary resumes in place. Healing after
// it finds the standby already promoted; the deposed primary rejoins as a
// fresh standby (its un-replicated writes were fenced at promotion).
func (s *Sharded) PartitionShard(i int, heal simtime.Duration) {
	sh := s.shards[i]
	if sh.pri.down {
		return
	}
	sh.pri.down = true
	sh.partitions++
	outage := s.beginOutage(i)
	sh.eng.After(heal, func() { s.healPartition(i, outage) })
}

func (s *Sharded) healPartition(i int, outage uint64) {
	sh := s.shards[i]
	if sh.outage != outage {
		return // a later outage began; this heal is not its end
	}
	if sh.pri.down {
		// Healed before the failover detector fired: no promotion happened,
		// the primary picks up where it left off.
		sh.pri.down = false
		return
	}
	// The standby was promoted while we were dark: the deposed primary's
	// state is obsolete. It rejoins as a fresh standby imaged from the
	// promoted table.
	if sh.rep != nil {
		sh.rep.reset(sh.pri.table)
	}
}

// beginOutage stamps a new outage of shard i and returns its number. With
// replication it also arms the outage's promotion timer; without a standby
// there is nothing to promote.
func (s *Sharded) beginOutage(i int) uint64 {
	sh := s.shards[i]
	sh.outage++
	outage := sh.outage
	if s.p.Replicate {
		sh.eng.After(s.p.failoverDetect(), func() { s.promote(i, outage) })
	}
	return outage
}

// promote installs shard i's standby as the new primary: the replicated
// prefix becomes the serving table under a bumped epoch, the un-applied
// log tail is truncated (fenced writes), and the fencing generation moves
// so in-flight writes spanning the promotion fail explicitly. The lag
// tail's mappings are repaired the same way a crash is: lease renewals
// re-assert them against the new incarnation. The timer armed for an
// earlier outage promotes nothing.
func (s *Sharded) promote(i int, outage uint64) {
	sh := s.shards[i]
	c := sh.pri
	if !c.down || sh.outage != outage {
		return // healed or manually restarted before the detector fired
	}
	c.down = false
	c.Stats.Restarts++
	c.epoch++
	sh.rep.truncate()
	c.table = sh.rep.snapshot()
	sh.gen++
	sh.failovers++
}

// CrashAll crashes every shard primary (total control-plane outage — the
// chaos CtrlOutage event on a sharded deployment).
func (s *Sharded) CrashAll() {
	for i := range s.shards {
		s.CrashShard(i)
	}
}

// RestartAll restarts every crashed shard primary.
func (s *Sharded) RestartAll() {
	for i := range s.shards {
		s.RestartShard(i)
	}
}
