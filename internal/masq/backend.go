package masq

import (
	"fmt"
	"sort"

	"masq/internal/controller"
	"masq/internal/hyper"
	"masq/internal/mem"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/trace"
	"masq/internal/verbs"
	"masq/internal/virtio"
)

// Backend is MasQ's host-side driver: one per host. It executes forwarded
// control-path commands on the RNIC, applies RConnrename and RConntrack,
// and implements the QoS grouping policy that maps tenants onto VFs.
type Backend struct {
	P    Params
	Mode Mode

	Host *hyper.Host
	Ctrl *controller.Sharded
	Fab  *overlay.Fabric
	CT   *RConntrack

	// Rec, when set, records backend command handling, RConnrename and
	// RConntrack work as trace spans. Nil is valid and free.
	Rec *trace.Recorder

	cache   map[controller.Key]cacheEntry
	tenants map[uint32]*rnic.Func // QoS grouping: tenant → VF
	qpOwner map[uint32]*session   // QPN → owning frontend (wire diagnosis)

	// Controller-survival state. The backend tracks each controller
	// shard's reachability and epoch independently — a crashed shard arms
	// grace mode and reconciliation for its slice of the keyspace only —
	// and funnels all recovery through one serialized reconcile process.
	bonds   []*VBond        // every vBond this backend created (lease holders)
	shards  []*ctrlShard    // per controller shard survival state (len = Ctrl.NumShards())
	seeded  map[uint32]bool // VNIs whose cache is push-down seeded
	leasing bool            // lease-renewal process running

	// Reconciliation state, drained by the single reconcile process.
	reconciling bool
	graceConns  []graceConn         // grace-established connections awaiting re-validation
	graceSeen   map[ConnID]struct{} // dedup for graceConns

	// Setup fast-path state (see batch.go / pool.go / shared.go).
	inflight map[controller.Key]*simtime.Event[lookupOutcome] // single-flight per key
	batchQ   []controller.Key                                 // keys awaiting the next batch RPC
	batching bool                                             // batch-leader process running

	pools      map[uint32]*qpPool // warm QP/CQ pools, one per tenant VNI
	pooledInit map[uint32]bool    // pooled QPs handed out already in INIT

	shared      map[sharedKey]*sharedConn // shared host connections by (VNI, peer host)
	sharedFlows map[uint32]sharedFlow     // QPN → its shared-connection membership

	// migrSusp tracks the peer QPs this backend quiesced per migration
	// Suspend push, so the matching Moved (or rollback-resume) push — or
	// the suspend TTL — wakes exactly those (see migrate.go).
	migrSusp map[controller.Key]*suspendSet

	Stats struct {
		CacheHits, CacheMisses uint64
		Renames                uint64

		// Control-plane robustness accounting.
		QueryRetries  uint64 // controller lookups repeated after a timeout
		QueryFailures uint64 // resolutions abandoned after the retry budget
		StaleRenames  uint64 // establishments that hit a stale cached mapping
		Invalidations uint64 // cache entries dropped (push or stale detection)

		// Failure-chain accounting.
		FatalEvents   uint64 // QP-fatal async events on QPs this backend owns
		AsyncCleanups uint64 // RConntrack erasures triggered by fatal events
		Crashes       uint64 // VMs torn down by Crash

		// Controller crash/outage accounting.
		GraceRenames       uint64 // renames served from a within-TTL cache entry during an outage
		GraceExpired       uint64 // grace candidates rejected: entry older than GraceTTL
		GraceRevalidated   uint64 // grace connections confirmed after the controller returned
		GraceResets        uint64 // grace connections reset: the authoritative mapping had changed
		FencedNotifies     uint64 // pushes dropped (stale epoch or superseded by a resync)
		NotifyGaps         uint64 // lost-push detections (seq gap or lease-round audit)
		Resyncs            uint64 // full FetchDump reconciliations performed
		LeaseRenewals      uint64 // successful per-bond Renew RPCs
		LeaseRenewFailures uint64 // Renew RPCs that timed out
		EpochBumps         uint64 // controller restarts observed (epoch changes)

		// Setup fast-path accounting.
		BatchRPCs      uint64 // coalesced BatchLookup RPCs issued
		BatchedLookups uint64 // cache misses resolved through a batch
		BatchMax       uint64 // largest key count coalesced into one batch
		PoolHits       uint64 // CQ/QP creations served from the warm pool
		PoolMisses     uint64 // pool enabled but empty (or unsuitable) at take
		PoolRefills    uint64 // pooled resources created by the refill process
		PoolFlushes    uint64 // pooled resources destroyed (crash, epoch bump)
		SharedCarriers uint64 // host connections established (first flow to a peer)
		SharedAttaches uint64 // flows attached to an existing host connection
		SharedFlushes  uint64 // shared-connection table clears (epoch bump)

		// Live-migration accounting (see migrate.go).
		MigrOut            uint64 // sessions frozen and captured off this backend
		MigrIn             uint64 // sessions restored onto this backend
		MigrRollbacks      uint64 // captures re-adopted at the source after a failed commit
		MigrSuspends       uint64 // Suspend pushes that quiesced at least one peer QP
		MigrSuspendedQPs   uint64 // peer QPs quiesced by Suspend pushes
		MigrRenames        uint64 // peer connections renamed in place by Moved pushes
		MigrResumes        uint64 // peer QPs resumed by Moved pushes
		MigrSuspendExpiry  uint64 // suspend TTLs fired (commit and rollback push both lost)
		MigrValidateResets uint64 // migrated connections denied by the destination's policy
	}
}

// cacheEntry is one rename-cache row: the mapping plus the instant the
// controller last confirmed it (registration push, query reply, or dump).
// The freshness timestamp is what grace mode trusts during outages.
type cacheEntry struct {
	m     controller.Mapping
	fresh simtime.Time
}

// graceConn remembers a connection established from a grace-served cache
// entry: the RCT identity plus the mapping the QPC was programmed with,
// so re-validation can tell "still correct" from "moved while the
// controller was dark".
type graceConn struct {
	id ConnID
	k  controller.Key
	m  controller.Mapping
}

// ctrlShard is the backend's survival state for one controller shard.
// Reachability, epoch, and push-stream bookkeeping are per shard, so one
// shard's crash arms grace mode and reconciliation for its slice of the
// keyspace while the other shards' leases and caches stay undisturbed.
type ctrlShard struct {
	sub          *controller.Subscription
	resyncBase   map[uint32]uint64 // per-VNI seq superseded by the last resync snapshot
	epoch        uint64            // highest epoch observed from this shard
	notifSeen    uint64            // highest notification seq observed (gap detection)
	down         bool              // last RPC to this shard timed out, none succeeded since
	needReassert bool              // re-register this shard's vBonds (epoch bump seen)
	needResync   bool              // replay this shard's table slice over the cache
}

// NewBackend creates the host driver and hooks it to the controller.
func NewBackend(host *hyper.Host, ctrl *controller.Sharded, fab *overlay.Fabric, p Params, mode Mode) *Backend {
	b := &Backend{
		P:         p,
		Mode:      mode,
		Host:      host,
		Ctrl:      ctrl,
		Fab:       fab,
		CT:        NewRConntrack(host.Dev),
		cache:     make(map[controller.Key]cacheEntry),
		tenants:   make(map[uint32]*rnic.Func),
		qpOwner:   make(map[uint32]*session),
		seeded:    make(map[uint32]bool),
		graceSeen: make(map[ConnID]struct{}),

		inflight:    make(map[controller.Key]*simtime.Event[lookupOutcome]),
		pools:       make(map[uint32]*qpPool),
		pooledInit:  make(map[uint32]bool),
		shared:      make(map[sharedKey]*sharedConn),
		sharedFlows: make(map[uint32]sharedFlow),
		migrSusp:    make(map[controller.Key]*suspendSet),
	}
	// The failure-reaction chain, backend half: when the RNIC moves an
	// owned QP to ERROR on its own (retry exhaustion — typically a dead or
	// partitioned peer), the connection no longer exists, so its
	// RConntrack state is erased without waiting for the guest to destroy
	// the QP. The erase runs as a proc to pay the delete cost; it is
	// idempotent against the guest's own destroy_qp racing it.
	host.Dev.SubscribeAsync(func(ev rnic.AsyncEvent) {
		if ev.Type != rnic.EventQPFatal {
			return
		}
		if _, ok := b.qpOwner[ev.QPN]; !ok {
			return
		}
		b.Stats.FatalEvents++
		qpn := ev.QPN
		host.Eng.Spawn("masq.fatal-cleanup", func(p *simtime.Proc) {
			b.Stats.AsyncCleanups++
			b.CT.Delete(p, qpn)
		})
	})
	for i := 0; i < ctrl.NumShards(); i++ {
		b.shards = append(b.shards, &ctrlShard{resyncBase: make(map[uint32]uint64)})
	}
	for i, sub := range ctrl.SubscribeShards(b.onNotify) {
		b.shards[i].sub = sub
	}
	return b
}

// onNotify applies one controller push. Before touching the cache it runs
// the fencing protocol:
//
//   - epoch fence: a notification stamped with an epoch older than one we
//     have already observed is from a dead controller incarnation and is
//     dropped — a stale-epoch mapping must never be applied;
//   - gap detection: the per-subscriber seq counts every notification
//     addressed to us, so a jump reveals pushes lost in flight and
//     schedules a resync;
//   - supersede fence: a notification older than the last resync snapshot
//     for its VNI is already folded into the cache (applying it would
//     regress the entry), so it is dropped.
//
// All fencing state is per controller shard: epochs, sequence numbers, and
// resync fences from different shards are independent counters.
func (b *Backend) onNotify(shard int, n controller.Notify) {
	cs := b.shards[shard]
	if n.Epoch < cs.epoch {
		b.Stats.FencedNotifies++
		return
	}
	if n.Epoch > cs.epoch {
		b.observeEpoch(shard, n.Epoch)
	}
	if n.Seq > cs.notifSeen {
		if n.Seq != cs.notifSeen+1 {
			b.Stats.NotifyGaps++
			cs.needResync = true
			b.kickReconcile()
		}
		cs.notifSeen = n.Seq
	}
	if n.Seq <= cs.resyncBase[n.Key.VNI] {
		b.Stats.FencedNotifies++
		return
	}
	k := n.Key
	if n.Suspend {
		// A peer endpoint is freezing for live migration: quiesce every
		// established connection toward it so the transport does not burn
		// its retry budget into the blackout (see migrate.go).
		b.migrSuspend(k)
		return
	}
	if n.Moved {
		// The migration committed (mapping + QPN translations) or rolled
		// back (original mapping, no translations): rename the quiesced
		// connections in place and wake them (see migrate.go).
		b.migrMoved(n)
		return
	}
	if n.Removed {
		if _, ok := b.cache[k]; ok {
			b.Stats.Invalidations++
		}
		delete(b.cache, k)
		return
	}
	if b.P.PushDown {
		b.cacheStore(k, n.Mapping) // controller pushes mappings down in advance
	} else if _, ok := b.cache[k]; ok {
		b.cacheStore(k, n.Mapping) // keep cached entries fresh
	}
}

// cacheStore writes a controller-confirmed mapping, stamping it fresh now.
func (b *Backend) cacheStore(k controller.Key, m controller.Mapping) {
	b.cache[k] = cacheEntry{m: m, fresh: b.Host.Eng.Now()}
}

// SetRecorder attaches a trace recorder to the backend and its conntrack.
// It must be called before NewFrontend so the virtio ring picks it up.
func (b *Backend) SetRecorder(r *trace.Recorder) {
	b.Rec = r
	b.CT.rec = r
}

// physIdentity is the mapping vBond registers for endpoints on this host:
// the RNIC's physical addressing (footnote 2 of the paper: source
// addresses are always the physical ones).
func (b *Backend) physIdentity() controller.Mapping {
	return controller.Mapping{
		PGID: packet.GIDFromIP(b.Host.IP),
		PIP:  b.Host.IP,
		PMAC: b.Host.MAC,
	}
}

// fnFor applies the QP-grouping policy: in VF mode each tenant gets a
// dedicated VF (and thereby a hardware rate limiter); PF mode is
// best-effort on the physical function.
func (b *Backend) fnFor(vni uint32) (*rnic.Func, error) {
	if b.Mode == ModePF {
		return b.Host.Dev.PF(), nil
	}
	if fn, ok := b.tenants[vni]; ok {
		return fn, nil
	}
	fn, err := b.Host.Dev.AddVF()
	if err != nil {
		return nil, fmt.Errorf("masq: no VF for tenant %d: %w", vni, err)
	}
	// MasQ VFs are not passed through: they keep the host's network
	// identity and need no IOMMU (the backend programs HPAs directly).
	fn.SetAddr(b.Host.IP, b.Host.MAC)
	fn.IOMMU = false
	b.tenants[vni] = fn
	return fn, nil
}

// SetTenantRateLimit installs a QoS policy on the tenant's QP group.
func (b *Backend) SetTenantRateLimit(vni uint32, bps float64) error {
	fn, err := b.fnFor(vni)
	if err != nil {
		return err
	}
	fn.SetRateLimit(bps)
	return nil
}

// WireInfo is the Sec. 5 diagnosis feature: underlay packets carry only
// physical addresses, but operators sometimes need the overlay identity
// behind a flow. Given the destination QPN observed in a packet addressed
// to this host, WireInfo returns the tenant and virtual IP it belongs to
// ("maintaining a mapping table between the (physical IP, QPN) and the
// virtual IP" — no extra headers needed, so no MTU tax).
func (b *Backend) WireInfo(qpn uint32) (vni uint32, vip packet.IP, ok bool) {
	sess, ok := b.qpOwner[qpn]
	if !ok {
		return 0, packet.IP{}, false
	}
	return sess.vni, sess.vbond.VIP(), true
}

// resolveGID is RConnrename's mapping lookup: local cache first, then the
// controller (with retry/backoff under control-plane faults). The graced
// result is true when the mapping was served under grace mode — the
// controller is unreachable but the entry was confirmed within GraceTTL —
// in which case the caller must register the connection for re-validation
// once the controller returns.
func (b *Backend) resolveGID(p *simtime.Proc, vni uint32, vgid packet.GID) (controller.Mapping, bool, error) {
	k := controller.Key{VNI: vni, VGID: vgid}
	sp := b.Rec.Begin(p, trace.LayerRConnrename, "cache_lookup")
	p.Sleep(cacheLookupCost)
	e, ok := b.cache[k]
	sp.End(p)
	if ok {
		if !b.shards[b.Ctrl.Owner(k)].down || b.P.GraceTTL <= 0 {
			b.Stats.CacheHits++
			return e.m, false, nil
		}
		// The controller is unreachable: trust the cache only within the
		// grace TTL. Anything older falls through to the (most likely
		// failing) lookup — better to refuse a connection than to rename
		// onto an address nobody has vouched for recently.
		if p.Now().Sub(e.fresh) <= b.P.GraceTTL {
			b.Stats.GraceRenames++
			return e.m, true, nil
		}
		b.Stats.GraceExpired++
	}
	b.Stats.CacheMisses++
	if b.P.BatchLookups {
		m, err := b.batchResolve(p, k)
		return m, false, err
	}
	m, err := b.lookupWithRetry(p, k)
	return m, false, err
}

// The controller-lookup retry schedule: the wait before the second attempt
// is retryBackoff, and it doubles on every further attempt up to
// retryBackoffMax.
const (
	retryBackoff    = 200 * simtime.Microsecond
	retryBackoffMax = 10 * simtime.Millisecond
)

// nextBackoff doubles a retry backoff under the clamp, without overflow.
func nextBackoff(backoff, limit simtime.Duration) simtime.Duration {
	if backoff <= limit/2 {
		return backoff * 2
	}
	return limit
}

// withRetry runs one controller RPC against shard until it succeeds or
// the QueryRetries budget is spent, backing off exponentially between
// attempts. call returns the answering epoch. withRetry returns the number
// of attempts made and the last attempt's error.
func (b *Backend) withRetry(p *simtime.Proc, shard int, call func() (uint64, error)) (int, error) {
	attempts := max(b.P.QueryRetries, 1)
	backoff := retryBackoff
	for i := 1; ; i++ {
		ep, err := call()
		if err == nil {
			b.ctrlOK(shard, ep)
			return i, nil
		}
		b.ctrlFail(shard)
		if i >= attempts {
			b.Stats.QueryFailures++
			return i, err
		}
		b.Stats.QueryRetries++
		p.Sleep(backoff)
		backoff = nextBackoff(backoff, retryBackoffMax)
	}
}

// lookupWithRetry queries the controller directly (no cache read), backing
// off exponentially while queries time out, and caches the answer.
func (b *Backend) lookupWithRetry(p *simtime.Proc, k controller.Key) (controller.Mapping, error) {
	var m controller.Mapping
	var found bool
	n, err := b.withRetry(p, b.Ctrl.Owner(k), func() (ep uint64, err error) {
		m, found, ep, err = b.Ctrl.Resolve(p, k)
		return ep, err
	})
	if err != nil {
		return controller.Mapping{}, fmt.Errorf("masq: resolving vGID %v in VNI %d (%d attempts): %w", k.VGID, k.VNI, n, err)
	}
	if !found {
		return controller.Mapping{}, fmt.Errorf("masq: no mapping for vGID %v in VNI %d", k.VGID, k.VNI)
	}
	b.cacheStore(k, m)
	return m, nil
}

// invalidate drops a cache entry (stale-mapping detection).
func (b *Backend) invalidate(k controller.Key) {
	if _, ok := b.cache[k]; ok {
		b.Stats.Invalidations++
		delete(b.cache, k)
	}
}

// mappingLive reports whether the overlay still hosts (vni, vip) at the
// physical address the mapping names. It is the DES stand-in for the
// connection-establishment handshake actually reaching a live peer: a
// mapping pointing at a host the endpoint has left (migration) or a vGID
// that was retired (vBond IP churn) fails here, exactly where a real
// connect would time out.
func (b *Backend) mappingLive(vni uint32, vip packet.IP, m controller.Mapping) bool {
	ep := b.Fab.Lookup(vni, vip)
	return ep != nil && ep.HostIP == m.PIP
}

// ─── Controller-crash survival: epochs, leases, reconciliation ───────────
//
// The controller keeps no persistent state; after a crash its table is
// rebuilt from the edge. Each backend (1) holds its vBonds' registrations
// as leases renewed by StartLeaseRenewal, (2) fences push notifications by
// epoch and sequence number, and (3) funnels all recovery work — lease
// re-assertion after an epoch bump, cache resync after lost pushes, grace
// connection re-validation after an outage — through one reconcile
// process, so recovery actions never interleave.

// Epoch returns the highest controller epoch this backend has observed on
// any shard (zero before first contact).
func (b *Backend) Epoch() uint64 {
	var max uint64
	for _, cs := range b.shards {
		if cs.epoch > max {
			max = cs.epoch
		}
	}
	return max
}

// ShardEpoch returns the highest epoch observed from one controller shard.
func (b *Backend) ShardEpoch(shard int) uint64 { return b.shards[shard].epoch }

// CtrlDown reports the backend's current view of controller liveness: true
// while any controller shard is between a timed-out RPC and its next
// successful contact.
func (b *Backend) CtrlDown() bool {
	for _, cs := range b.shards {
		if cs.down {
			return true
		}
	}
	return false
}

// CacheSnapshot copies the mapping cache — masqctl inspection and test
// assertions that cached state agrees with the controller's table.
func (b *Backend) CacheSnapshot() map[controller.Key]controller.Mapping {
	out := make(map[controller.Key]controller.Mapping, len(b.cache))
	for k, e := range b.cache {
		out[k] = e.m
	}
	return out
}

// observeEpoch folds a controller shard's epoch, stamped on an RPC reply or
// push notification, into the backend's view. The first contact just
// records the epoch; any later bump is that shard restarting (or failing
// over): every mapping it knew is gone, so the backend must re-assert the
// registrations it owns and (in push-down mode) resynchronize its slice of
// the cache. Other shards' state is untouched.
func (b *Backend) observeEpoch(shard int, ep uint64) {
	cs := b.shards[shard]
	if ep <= cs.epoch {
		return
	}
	first := cs.epoch == 0
	cs.epoch = ep
	if first {
		return
	}
	b.Stats.EpochBumps++
	cs.needReassert = true
	if b.P.PushDown {
		cs.needResync = true
	}
	// A restarted shard may re-key its slice of the world: warm QPs were
	// pre-staged against the old epoch's view, and shared connections
	// multiplex flows the new incarnation has never vouched for. Drop both
	// (coarse — pools and shared carriers are not keyed by shard).
	b.flushSharedConns()
	b.spawnPoolFlush()
	b.kickReconcile()
}

// ctrlOK records a successful contact with one controller shard: its
// outage (if any) is over, the reply's epoch may reveal a restart, and
// pending recovery work against it can proceed.
func (b *Backend) ctrlOK(shard int, ep uint64) {
	b.shards[shard].down = false
	b.observeEpoch(shard, ep)
	b.kickReconcile()
}

// ctrlFail records a timed-out RPC against one controller shard. While the
// shard is down, grace mode serves its keys from fresh cache entries and
// the reconcile process skips its work (retrying into a dead shard only
// burns time). Other shards keep operating normally.
func (b *Backend) ctrlFail(shard int) { b.shards[shard].down = true }

// pendingReconcile reports whether recovery work is actionable now: any
// reachable shard with reassert/resync work, or any grace connection whose
// owning shard is reachable again.
func (b *Backend) pendingReconcile() bool {
	for _, cs := range b.shards {
		if cs.down {
			continue
		}
		if cs.needReassert || cs.needResync {
			return true
		}
	}
	for _, g := range b.graceConns {
		if !b.shards[b.Ctrl.Owner(g.k)].down {
			return true
		}
	}
	return false
}

// kickReconcile starts the reconciliation process unless it is already
// running or there is nothing actionable. A single process serializes all
// recovery so concurrent triggers — an epoch bump racing a notification
// gap racing a returning outage — cannot interleave their table walks.
func (b *Backend) kickReconcile() {
	if b.reconciling || !b.pendingReconcile() {
		return
	}
	b.reconciling = true
	b.Host.Eng.Spawn("masq.reconcile", func(p *simtime.Proc) {
		defer func() { b.reconciling = false }()
		for b.pendingReconcile() {
			progressed := false
			for shard, cs := range b.shards {
				if cs.down {
					continue
				}
				switch {
				case cs.needReassert:
					cs.needReassert = false
					b.reassert(p, shard)
					progressed = true
				case cs.needResync:
					cs.needResync = false
					b.resync(p, shard)
					progressed = true
				}
			}
			if !progressed {
				b.revalidateGrace(p)
			}
		}
		// If work remains it is because a shard went down again; the next
		// successful contact re-kicks us.
	})
}

// renewBond re-asserts one registration via the lease-renewal RPC to the
// key's owning shard.
func (b *Backend) renewBond(p *simtime.Proc, k controller.Key, m controller.Mapping) bool {
	shard := b.Ctrl.Owner(k)
	ep, err := b.Ctrl.Renew(p, k, m)
	if err != nil {
		b.Stats.LeaseRenewFailures++
		b.ctrlFail(shard)
		return false
	}
	b.Stats.LeaseRenewals++
	b.ctrlOK(shard, ep)
	return true
}

// reassert re-registers every live vBond owned by one (restarted)
// controller shard — the edge-driven half of reconvergence: the union of
// these renewals across all hosts rebuilds that shard's table.
func (b *Backend) reassert(p *simtime.Proc, shard int) {
	for _, vb := range b.bonds {
		k, m, ok := vb.Registration()
		if !ok || b.Ctrl.Owner(k) != shard {
			continue
		}
		if !b.renewBond(p, k, m) {
			// Down again: keep the flag so the next contact retries the
			// whole pass (renewals are idempotent).
			b.shards[shard].needReassert = true
			return
		}
	}
}

// resyncVNIs lists every VNI whose cache content this backend owes a
// resync: push-down-seeded tenants plus anything currently cached.
func (b *Backend) resyncVNIs() []uint32 {
	set := make(map[uint32]bool)
	for vni := range b.seeded {
		set[vni] = true
	}
	for k := range b.cache {
		set[k.VNI] = true
	}
	out := make([]uint32, 0, len(set))
	for vni := range set {
		out = append(out, vni)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// resync replays one controller shard's table slice over the cache, one
// charged dump per tenant: entries the shard no longer has are dropped,
// the rest are folded in fresh. Only cache keys the shard owns are
// touched, so a resync against a failed-over shard cannot disturb
// mappings vouched for by healthy shards. It runs after a notification
// gap (lost pushes), after an epoch bump in push-down mode, and as the
// initial push-down seeding.
func (b *Backend) resync(p *simtime.Proc, shard int) {
	cs := b.shards[shard]
	for _, vni := range b.resyncVNIs() {
		dump, ep, err := b.Ctrl.FetchShardDump(p, shard, vni)
		if err != nil {
			cs.needResync = true
			b.ctrlFail(shard)
			return
		}
		// The snapshot supersedes every notification addressed before this
		// instant: record the fence so late deliveries for this VNI cannot
		// regress the cache (see onNotify), and close any seq gap opened
		// by wiped or dropped pushes.
		cs.resyncBase[vni] = cs.sub.Seq()
		if cs.sub.Seq() > cs.notifSeen {
			cs.notifSeen = cs.sub.Seq()
		}
		b.ctrlOK(shard, ep)
		for k := range b.cache {
			if k.VNI != vni || b.Ctrl.Owner(k) != shard {
				continue
			}
			if _, ok := dump[k]; !ok {
				b.invalidate(k)
			}
		}
		for k, m := range dump {
			if b.P.PushDown {
				b.cacheStore(k, m)
			} else if _, ok := b.cache[k]; ok {
				b.cacheStore(k, m)
			}
		}
	}
	b.Stats.Resyncs++
}

// recordGraceConn remembers a connection established on a grace-served
// mapping, for re-validation once the controller returns.
func (b *Backend) recordGraceConn(id ConnID, k controller.Key, m controller.Mapping) {
	if _, ok := b.graceSeen[id]; ok {
		return
	}
	b.graceSeen[id] = struct{}{}
	b.graceConns = append(b.graceConns, graceConn{id: id, k: k, m: m})
}

// revalidateGrace re-checks every grace-established connection against the
// returned controller: if the authoritative mapping still equals the one
// the QPC was programmed with (and the endpoint is live there), the
// connection survives; otherwise RConntrack resets it — the peer moved
// while the controller was dark, so the programmed address is wrong.
func (b *Backend) revalidateGrace(p *simtime.Proc) {
	pending := b.graceConns
	b.graceConns = nil
	for i, g := range pending {
		if !b.CT.Has(g.id) {
			delete(b.graceSeen, g.id)
			continue // already torn down through another path
		}
		shard := b.Ctrl.Owner(g.k)
		if b.shards[shard].down {
			// This connection's owning shard is still dark: keep it queued
			// for the shard's return without blocking the others.
			b.graceConns = append(b.graceConns, g)
			continue
		}
		m, ok, ep, err := b.Ctrl.Resolve(p, g.k)
		if err != nil {
			b.ctrlFail(shard)
			// Down again mid-pass: requeue the unprocessed tail.
			b.graceConns = append(pending[i:], b.graceConns...)
			return
		}
		b.ctrlOK(shard, ep)
		delete(b.graceSeen, g.id)
		if ok && m == g.m && b.mappingLive(g.id.VNI, g.id.DstVIP, m) {
			b.Stats.GraceRevalidated++
			b.cacheStore(g.k, m)
			continue
		}
		b.Stats.GraceResets++
		b.invalidate(g.k)
		b.CT.ResetConn(p, g.id)
	}
}

// StartLeaseRenewal runs the per-host lease-renewal process until the
// given horizon: every LeaseRenewEvery, each live vBond re-asserts its
// registration via Renew against its owning controller shard. Renewal
// waves fan out per shard — bonds are grouped by owner, and a timed-out
// renewal stops hammering only that shard (arming grace mode for its
// keys) while the other shards' renewals proceed. Renewal doubles as the
// backend's failure detector: the first success after an outage reveals
// epoch bumps, and a round whose subscription seq is ahead of everything
// received with no push still on its way means pushes were lost in
// flight, scheduling a shard-scoped resync. The process is bounded by
// the horizon so Engine.Run still quiesces.
func (b *Backend) StartLeaseRenewal(until simtime.Time) {
	if b.leasing {
		return
	}
	b.leasing = true
	period := b.P.LeaseRenewEvery
	if period <= 0 {
		period = simtime.Ms(1)
	}
	b.Host.Eng.Spawn("masq.lease-renew", func(p *simtime.Proc) {
		for {
			if p.Now().Add(period) > until {
				b.leasing = false
				return
			}
			p.Sleep(period)
			for shard, cs := range b.shards {
				contacted := false
				for _, vb := range b.bonds {
					k, m, ok := vb.Registration()
					if !ok || b.Ctrl.Owner(k) != shard {
						continue
					}
					if !b.renewBond(p, k, m) {
						break // shard down: stop hammering it, try next round
					}
					contacted = true
				}
				if contacted && cs.sub.Seq() > cs.notifSeen && cs.sub.Pending() == 0 {
					// Everything addressed to us should be delivered or
					// still on its way; an advanced seq with nothing
					// pending means pushes were dropped in flight or
					// wiped. Lease-driven repair: resync this shard's
					// slice.
					b.Stats.NotifyGaps++
					cs.needResync = true
					b.kickReconcile()
				}
			}
		}
	})
}

// session is the backend's per-frontend state.
type session struct {
	vm    *hyper.VM
	vni   uint32
	vbond *VBond
	fn    *rnic.Func

	// owner is the backend currently hosting the session; it changes when
	// the VM live-migrates. Async-event subscriptions on every host the
	// session ever lived on check it so only the current host delivers.
	owner *Backend
	// subs records which backends have hooked this session's async-event
	// delivery, so re-migration onto a previous host does not subscribe a
	// duplicate (which would double-deliver events).
	subs map[*Backend]bool

	// events is the guest-visible async event channel (ibv_get_async_event
	// via the frontend); the backend injects events after the interrupt
	// latency.
	events *simtime.Queue[rnic.AsyncEvent]
	dead   bool

	// Live resources, tracked so Crash can tear the session down without
	// guest cooperation. Slices (not maps) keep teardown order — and thus
	// the simulation — deterministic.
	qps []*rnic.QP
	mrs []sessMR
}

// sessMR remembers what it takes to undo one registration.
type sessMR struct {
	mr  *rnic.MR
	gpa []mem.Extent
}

// NewFrontend plugs a MasQ virtual RoCE device into a VM: it creates the
// virtio ring, the vBond over the VM's vNIC, starts the backend service
// loop, and subscribes RConntrack to the tenant's policy.
func (b *Backend) NewFrontend(vm *hyper.VM, vni uint32) (*Frontend, error) {
	if vm.VNIC == nil {
		return nil, fmt.Errorf("masq: VM %s has no virtual Ethernet interface to bond", vm.Name)
	}
	fn, err := b.fnFor(vni)
	if err != nil {
		return nil, err
	}
	if b.P.QPPoolSize > 0 {
		b.ensurePool(vni, fn)
	}
	tenant := b.Fab.Tenant(vni)
	if tenant == nil {
		return nil, fmt.Errorf("masq: unknown tenant VNI %d", vni)
	}
	b.CT.Watch(tenant)
	if b.P.PushDown && !b.seeded[vni] {
		// Seed the cache with the tenant's pre-existing mappings: the
		// subscription only covers registrations made after the backend
		// was created, so a late-created backend would otherwise miss
		// every earlier endpoint until its first query. Seeding is just
		// the first resync: it pays the charged FetchDump RPC (round trip
		// + per-entry serialization) and fails like any RPC if the
		// controller is unreachable — a later reconciliation retries.
		b.seeded[vni] = true
		for _, cs := range b.shards {
			cs.needResync = true
		}
		b.kickReconcile()
	}

	vbond := NewVBond(vni, vm.VNIC, b.Ctrl, b.physIdentity())
	b.bonds = append(b.bonds, vbond)
	sess := &session{vm: vm, vni: vni, vbond: vbond, fn: fn, owner: b,
		subs:   make(map[*Backend]bool),
		events: simtime.NewQueue[rnic.AsyncEvent](b.Host.Eng)}
	b.subscribeSession(sess)
	return &Frontend{b: b, sess: sess, ring: b.serveRing()}, nil
}

// subscribeSession hooks a session's guest-visible async-event delivery to
// this backend's device (once per backend, surviving re-migration). QP
// fatals are steered to the owning session only, port state changes fan out
// to every guest on the device, each delivery pays the injection latency —
// and nothing is delivered from hosts the session has migrated away from.
func (b *Backend) subscribeSession(sess *session) {
	if sess.subs[b] {
		return
	}
	sess.subs[b] = true
	b.Host.Dev.SubscribeAsync(func(ev rnic.AsyncEvent) {
		if sess.dead || sess.owner != b {
			return
		}
		if ev.Type == rnic.EventQPFatal && b.qpOwner[ev.QPN] != sess {
			return
		}
		b.Host.Eng.After(virtio.IRQCost, func() { sess.events.Put(ev) })
	})
}

// serveRing builds a frontend↔backend virtio ring served by this backend.
func (b *Backend) serveRing() *virtio.Ring {
	ring := virtio.NewRing(b.Host.Eng)
	ring.Rec = b.Rec
	return ring
}

// regMR finishes the pinning walk: the frontend pinned GVA→GPA; the
// backend pins GPA→HVA→HPA and programs the MTT (Appendix B).
func (b *Backend) regMR(p *simtime.Proc, sess *session, pd *rnic.PD, va uint64, length int, gpa []mem.Extent, access rnic.Access) (*rnic.MR, error) {
	var hpa []mem.Extent
	for _, e := range gpa {
		sub, err := sess.vm.GPA.PinToPhys(e.Addr, e.Len)
		if err != nil {
			return nil, err
		}
		hpa = append(hpa, sub...)
	}
	mr := b.Host.Dev.RegMR(p, sess.fn, pd, va, length, hpa, access)
	sess.mrs = append(sess.mrs, sessMR{mr: mr, gpa: gpa})
	return mr, nil
}

// deregMR deregisters mr and unpins its GPA→HPA walk.
func (b *Backend) deregMR(p *simtime.Proc, sess *session, mr *rnic.MR, gpa []mem.Extent) error {
	b.Host.Dev.DeregMR(p, nil, mr)
	for i, r := range sess.mrs {
		if r.mr == mr {
			sess.mrs = append(sess.mrs[:i], sess.mrs[i+1:]...)
			break
		}
	}
	for _, e := range gpa {
		if err := sess.vm.GPA.UnpinToPhys(e.Addr, e.Len); err != nil {
			return err
		}
	}
	return nil
}

// createCQ serves a CQ from the tenant's warm pool when it can, and
// creates one on the session's function otherwise.
func (b *Backend) createCQ(p *simtime.Proc, sess *session, cqe int) *rnic.CQ {
	if pool := b.pools[sess.vni]; pool != nil {
		if cq := pool.takeCQ(cqe); cq != nil {
			p.Sleep(poolReuseCost)
			b.Stats.PoolHits++
			pool.noteTake(p.Now())
			return cq
		}
		b.Stats.PoolMisses++
	}
	return b.Host.Dev.CreateCQ(p, sess.fn, cqe)
}

// createQP serves an RC QP from the tenant's warm pool when it can, and
// creates one on the session's function otherwise; either way the session
// owns it.
func (b *Backend) createQP(p *simtime.Proc, sess *session, pd *rnic.PD, scq, rcq *rnic.CQ, typ rnic.QPType, caps rnic.QPCaps) (*rnic.QP, error) {
	if pool := b.pools[sess.vni]; pool != nil && typ == rnic.RC {
		if qp := pool.takeQP(); qp != nil {
			p.Sleep(poolReuseCost)
			if err := qp.Rebind(pd, scq, rcq, caps); err != nil {
				return nil, err
			}
			b.Stats.PoolHits++
			// The pooled QP is already in INIT with its source
			// addressing latched; modifyQP skips the guest's INIT verb.
			b.pooledInit[qp.Num] = true
			b.qpOwner[qp.Num] = sess
			sess.qps = append(sess.qps, qp)
			pool.noteTake(p.Now())
			return qp, nil
		}
		b.Stats.PoolMisses++
	}
	qp := b.Host.Dev.CreateQP(p, sess.fn, pd, scq, rcq, typ, caps)
	b.qpOwner[qp.Num] = sess
	sess.qps = append(sess.qps, qp)
	return qp, nil
}

// destroyQP erases the QP's RConntrack and ownership state, then destroys
// it on the RNIC.
func (b *Backend) destroyQP(p *simtime.Proc, sess *session, qp *rnic.QP) {
	b.CT.Delete(p, qp.Num)
	delete(b.qpOwner, qp.Num)
	delete(b.pooledInit, qp.Num)
	b.sharedDetach(qp.Num)
	for i, q := range sess.qps {
		if q == qp {
			sess.qps = append(sess.qps[:i], sess.qps[i+1:]...)
			break
		}
	}
	b.Host.Dev.DestroyQP(p, qp)
}

// modifyQP is where RConnrename and RConntrack intercept the control path.
func (b *Backend) modifyQP(p *simtime.Proc, sess *session, qp *rnic.QP, a verbs.Attr) error {
	attr := rnic.Attr{ToState: a.ToState, QKey: a.QKey}
	if a.ToState == rnic.StateRTR && qp.Type == rnic.RC && (a.DQPN == 0 || a.DGID.IsZero()) {
		// A connected QP cannot reach RTR without a complete remote
		// address; programming it half-configured would only fail later
		// on the wire.
		return fmt.Errorf("masq: modify_qp(RTR) on RC QP %d: malformed address vector (DGID %v, DQPN %d)",
			qp.Num, a.DGID, a.DQPN)
	}
	if a.ToState == rnic.StateRTR && a.DQPN != 0 && !a.DGID.IsZero() {
		dstIP, _ := a.DGID.IP()
		id := ConnID{VNI: sess.vni, SrcVIP: sess.vbond.VIP(), DstVIP: dstIP, QPN: qp.Num}
		if err := b.CT.Validate(p, id); err != nil {
			return err
		}
		sp := b.Rec.Begin(p, trace.LayerRConnrename, "rename")
		err := b.renameRTR(p, sess, qp, a, attr, id, dstIP)
		sp.End(p)
		return err
	}
	if a.ToState == rnic.StateInit && b.pooledInit[qp.Num] {
		// Pooled QP: the refiller pre-applied INIT on the same function, so
		// the guest's verb is satisfied by bookkeeping instead of firmware.
		delete(b.pooledInit, qp.Num)
		p.Sleep(poolReuseCost)
		return nil
	}
	if a.ToState == rnic.StateRTS {
		if fl, ok := b.sharedFlows[qp.Num]; ok && fl.attached {
			// Attached flow of a shared connection: the carrier already paid
			// the firmware RTS; this flow's QPC flips in host memory.
			return b.Host.Dev.SoftModify(p, qp, attr, sharedAttachCost)
		}
	}
	return b.Host.Dev.ModifyQP(p, qp, attr)
}

// renameRTR resolves the virtual destination, handles stale mappings, and
// programs the QPC with physical addressing — the RConnrename core.
func (b *Backend) renameRTR(p *simtime.Proc, sess *session, qp *rnic.QP, a verbs.Attr, attr rnic.Attr, id ConnID, dstIP packet.IP) error {
	k := controller.Key{VNI: sess.vni, VGID: a.DGID}
	m, graced, err := b.resolveGID(p, sess.vni, a.DGID)
	if err != nil {
		return err
	}
	if !b.mappingLive(sess.vni, dstIP, m) {
		// Establishment toward the resolved address fails: the peer
		// moved (migration) or retired its vGID before our
		// invalidation arrived. Pay the detection timeout, drop the
		// stale entry, re-query the controller, and retry the rename
		// once — this is what makes live migration + reconnect
		// correct under delayed invalidation.
		b.Stats.StaleRenames++
		p.Sleep(StaleDetectCost)
		b.invalidate(k)
		if m, err = b.lookupWithRetry(p, k); err != nil {
			return err
		}
		if !b.mappingLive(sess.vni, dstIP, m) {
			b.invalidate(k)
			return fmt.Errorf("masq: mapping for vGID %v in VNI %d is stale even after re-query", a.DGID, sess.vni)
		}
	}
	// The rename: the application's QPC view keeps the virtual GID;
	// the hardware sees only physical addresses.
	b.Stats.Renames++
	attr.AV = rnic.AddressVector{DGID: m.PGID, DIP: m.PIP, DMAC: m.PMAC, DQPN: a.DQPN}
	if b.Mode == ModeVFShared {
		if err := b.sharedRTR(p, qp, sess.vni, m, attr); err != nil {
			return err
		}
	} else if err := b.Host.Dev.ModifyQP(p, qp, attr); err != nil {
		return err
	}
	b.CT.Insert(p, id, qp)
	if graced {
		// Established on the controller's old word: once it is reachable
		// again, the reconcile process re-validates this connection and
		// resets it if the mapping changed during the outage.
		b.recordGraceConn(id, k, m)
	}
	return nil
}

// Crash models abrupt VM death for one frontend: no guest cooperation, no
// application-assisted teardown. The host driver erases the RConntrack
// state of every QP the session owns, destroys the QPs, deregisters and
// unpins the session's MRs, and withdraws the vBond's (VNI, vGID) mapping
// from the controller — nothing of the tenant's connection state may
// outlive the VM. Surviving peers are not told: they discover the death
// through retry exhaustion and the resulting fatal async event.
func (b *Backend) Crash(p *simtime.Proc, f *Frontend) {
	sess := f.sess
	if sess.dead {
		return
	}
	sess.dead = true
	b.Stats.Crashes++
	dev := b.Host.Dev
	for _, qp := range sess.qps {
		b.CT.Delete(p, qp.Num)
		delete(b.qpOwner, qp.Num)
		delete(b.pooledInit, qp.Num)
		b.sharedDetach(qp.Num)
		dev.DestroyQP(p, qp)
	}
	sess.qps = nil
	for _, r := range sess.mrs {
		dev.DeregMR(p, nil, r.mr)
		for _, e := range r.gpa {
			// Best effort: the VM's address space dies with it anyway.
			_ = sess.vm.GPA.UnpinToPhys(e.Addr, e.Len)
		}
	}
	sess.mrs = nil
	// Warm QPs pre-created for the dead VM's tenant must not survive it:
	// flush the VNI's pool (the refiller rebuilds for surviving frontends).
	if pool := b.pools[sess.vni]; pool != nil {
		b.flushPool(p, pool)
	}
	sess.vbond.Shutdown()
}

// postUD renames and posts a datagram WQE that the frontend routed through
// the control path (Sec. 3.3.4).
func (b *Backend) postUD(p *simtime.Proc, sess *session, qp *rnic.QP, wr rnic.SendWR, dgid packet.GID, dqpn uint32) error {
	dstIP, _ := dgid.IP()
	id := ConnID{VNI: sess.vni, SrcVIP: sess.vbond.VIP(), DstVIP: dstIP, QPN: qp.Num}
	if err := b.CT.Validate(p, id); err != nil {
		return err
	}
	m, _, err := b.resolveGID(p, sess.vni, dgid)
	if err != nil {
		return err
	}
	wr.Remote = &rnic.AddressVector{DGID: m.PGID, DIP: m.PIP, DMAC: m.PMAC, DQPN: dqpn}
	return qp.PostSend(p, wr)
}
