// Package masq implements MasQ ("queue masquerade"), the paper's software-
// defined RDMA virtualization for virtual private clouds. Software defines
// the communication rules on the control path; hardware executes the
// communication operations on the data path.
//
// The pieces map one-to-one onto Sec. 3 of the paper:
//
//   - Frontend: the paravirtual driver inside the VM. Control-path verbs
//     are forwarded to the backend over a virtio ring; data-path verbs
//     (post_send, post_recv, poll_cq) go straight to the memory-mapped
//     hardware queues, so the data path has zero virtualization overhead.
//   - Backend: the host driver. It owns resource creation on the RNIC's
//     functions, performs the GVA→GPA→HVA→HPA pinning walk for memory
//     registration, and hosts RConnrename and RConntrack.
//   - vBond: binds the VM's virtual Ethernet interface and virtual RDMA
//     interface into one virtual RoCE device; derives the virtual GID from
//     the interface's IP, keeps it synchronized via the inetaddr
//     notification chain, and registers it with the SDN controller.
//   - RConnrename: per-connection address virtualization. At
//     modify_qp(RTR) the peer's virtual GID in the QP context is replaced
//     by its physical GID, resolved through the controller (with a local
//     cache), so the RNIC encapsulates every subsequent packet with
//     physical addresses at zero per-packet cost.
//   - RConntrack: RDMA connection tracking. Connection requests are
//     checked against the tenant's security policy, established
//     connections are recorded in the RCT table, and when rules change,
//     connections that are no longer allowed are torn down by forcing
//     their QPs into the ERROR state.
//   - QoS: QPs are grouped (by tenant, by default) onto SR-IOV VFs, whose
//     hardware token-bucket rate limiters enforce per-group bandwidth.
package masq

import (
	"masq/internal/simtime"
)

// RConntrack's basic operation costs (Table 4).
const (
	ValidConnCost  = 2500 * simtime.Nanosecond // valid_conn(): policy check at RTR
	InsertConnCost = 1500 * simtime.Nanosecond // insert_conn(): RCT table insert
	deleteConnCost = 1500 * simtime.Nanosecond // delete_conn(): RCT table remove
	InsertRuleCost = 1500 * simtime.Nanosecond // insert_rule(): rule-chain update

	// ruleEvalCost is charged per rule-evaluation work unit beyond the
	// first during valid_conn and enforcement re-validation: chain entries
	// scanned by the linear oracle, or index buckets probed by the
	// decision index. The first unit is folded into ValidConnCost /
	// enforceScanCost, so the canonical single-allow-all policy costs
	// exactly its Table 4 value.
	ruleEvalCost = 300 * simtime.Nanosecond

	// enforceScanCost is the base cost of re-validating one RCT entry
	// during rule-change enforcement (entry fetch + verdict application);
	// the policy evaluation on top scales via ruleEvalCost.
	enforceScanCost = 500 * simtime.Nanosecond

	// verdictCacheCost is a valid_conn verdict-cache hit: the same
	// connection re-validated while the tenant's rule version is
	// unchanged skips the policy walk entirely.
	verdictCacheCost = 500 * simtime.Nanosecond
)

// RConnrename and connection-setup fast-path costs.
const (
	// cacheLookupCost is a local mapping-cache hit ("completed within a
	// few microseconds").
	cacheLookupCost = 2 * simtime.Microsecond

	// StaleDetectCost is the time to discover that connection
	// establishment toward a stale mapping failed (the probe/retransmit
	// timeout before the backend invalidates the entry and re-queries).
	StaleDetectCost = simtime.Millisecond

	// batchWindow is how long the batch leader waits for stragglers
	// before issuing the coalesced RPC (Params.BatchLookups).
	batchWindow = 20 * simtime.Microsecond

	// poolReuseCost is the host-software cost of handing out one pooled
	// resource (table lookup + handle rebind) in place of the firmware
	// verb it replaces.
	poolReuseCost = 2 * simtime.Microsecond

	// poolRefillIdle is how long the pool refiller waits after the last
	// pooled take before creating replacements, keeping the RNIC
	// firmware free for foreground verbs during a setup storm.
	poolRefillIdle = simtime.Millisecond

	// sharedAttachCost is the host-software cost of attaching one guest
	// flow to an already-established shared host connection
	// (ModeVFShared): allocate a flow tag, rewrite the QP context in
	// host memory — no firmware verb.
	sharedAttachCost = 5 * simtime.Microsecond
)

// Live-migration costs.
const (
	// migrSuspendTTL bounds how long a peer QP stays quiesced after a
	// migration Suspend push: if neither the Moved (commit) nor the
	// rollback-resume push arrives within the TTL — both were lost, or
	// the controller died mid-migration — the QP auto-resumes toward
	// whatever address it has programmed and lives or dies by the normal
	// transport retry budget.
	migrSuspendTTL = 50 * simtime.Millisecond

	// migrRenameCost is the host-software cost of renaming one peer
	// connection in place when a Moved push lands: rewrite the QP
	// context's address vector (new physical GID/IP/MAC, translated
	// destination QPN) in host memory.
	migrRenameCost = simtime.Microsecond

	// migrQPCost is the per-QP host cost of capturing or restoring
	// transport state during a live migration's freeze/restore (detach or
	// adopt plus the conntrack rewrite bookkeeping).
	migrQPCost = 3 * simtime.Microsecond

	// migrMRCost is the per-MR host cost of moving a registration across
	// hosts beyond the page-table work itself: MTT capture on the source,
	// adoption under preserved keys on the destination.
	migrMRCost = 2 * simtime.Microsecond
)

// Params hold the MasQ settings that callers vary: the controller retry
// budget, cache behaviour and the setup fast path.
type Params struct {
	// PushDown pre-populates each backend's cache from the controller and
	// keeps it updated, avoiding even first-query misses (Sec. 3.3.1).
	PushDown bool

	// QueryRetries bounds how many controller lookup attempts RConnrename
	// makes while resolving a mapping before failing the verb (>= 1).
	// Lookups only fail when the controller is unavailable or replies are
	// lost, so retries pace recovery from control-plane faults.
	QueryRetries int

	// BatchLookups enables the connection-setup fast path's batched
	// controller queries: concurrent cache misses coalesce into one
	// BatchLookup RPC resolving every pending key in a single query round
	// trip (and piggybacking the host's lease renewals). Off by default —
	// each miss pays its own Lookup RPC, the historical behaviour.
	BatchLookups bool

	// QPPoolSize, when positive, arms the warm QP pool: the backend
	// pre-creates up to this many RC QPs (already in INIT) and CQs per
	// tenant VNI, so a new connection is a pooled-handle rename plus an
	// RTR rewrite instead of the full create/modify firmware chain.
	// Zero disables pooling.
	QPPoolSize int

	// GraceTTL lets RConnrename keep serving renames while the controller
	// is unreachable: a cache entry last confirmed within the TTL is
	// grace-served (counted in Stats.GraceRenames) instead of failing the
	// verb, and the resulting connection is re-validated once the
	// controller returns. Zero disables grace mode — an outage fails every
	// cache miss and expired entry (the historical behaviour).
	GraceTTL simtime.Duration

	// LeaseRenewEvery is the period of the backend's lease-renewal process
	// (Backend.StartLeaseRenewal): each round every live vBond re-asserts
	// its registration, which doubles as the failure detector — renewals
	// reveal controller outages, restarts (epoch bumps), and dropped push
	// notifications.
	LeaseRenewEvery simtime.Duration
}

// DefaultParams returns the paper's measured costs and the default retry
// policy, with the setup fast path off.
func DefaultParams() Params {
	return Params{
		QueryRetries:    4,
		LeaseRenewEvery: simtime.Ms(1),
	}
}

// Mode selects which RNIC function MasQ places a VM's queues on.
type Mode int

// Placement modes.
const (
	// ModeVF groups each tenant's QPs onto a dedicated SR-IOV VF whose
	// rate limiter provides tenant-level QoS (the default policy).
	ModeVF Mode = iota
	// ModePF places queues on the physical function: best-effort service
	// with the lowest latency (Fig. 9).
	ModePF
	// ModeVFShared is ModeVF with shared host connections (the
	// RDMAvisor/DCT idea): guest RC flows toward the same (VNI, peer
	// host) multiplex one host RC connection, demuxed by a flow tag in
	// the overlay header, so only the first flow to a peer pays the
	// firmware connect.
	ModeVFShared
)

func (m Mode) String() string {
	switch m {
	case ModePF:
		return "masq-pf"
	case ModeVFShared:
		return "masq-vf-shared"
	}
	return "masq-vf"
}
