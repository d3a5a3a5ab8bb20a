package masq

import (
	"bytes"
	"fmt"
	"sort"

	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/trace"
)

// ConnID is an RCT table key: (vni, src_vip, dst_vip, qpn), exactly the
// tuple of Fig. 3.
type ConnID struct {
	VNI    uint32
	SrcVIP packet.IP
	DstVIP packet.IP
	QPN    uint32
}

func (id ConnID) String() string {
	return fmt.Sprintf("<VNI %d: %v -> %v, QP %d>", id.VNI, id.SrcVIP, id.DstVIP, id.QPN)
}

// trackedConn is one RCT table entry. It is also a node of two intrusive
// lists: its QPN's entries, and its VNI's entries with its (SrcVIP,
// DstVIP) pair. An entry is never reused once removed, so a pointer to a
// removed entry never aliases a live one.
type trackedConn struct {
	id ConnID
	qp *rnic.QP

	qpNext             *trackedConn // next entry of the same QPN
	pairPrev, pairNext *trackedConn // neighbours with the same VNI and pair
}

// vipPair is the (SrcVIP, DstVIP) endpoint pair of an RCT entry — the key
// of the per-VNI footprint index incremental enforcement scans.
type vipPair struct {
	src, dst packet.IP
}

// verdict is one cached policy decision, valid while the tenant's combined
// rule version is unchanged.
type verdict struct {
	version uint64
	allow   bool
}

// enforceJob is one queued rule-change enforcement: the tenant whose
// policy changed and the change's footprint.
type enforceJob struct {
	t  *overlay.Tenant
	ch overlay.RuleChange
}

// RConntrack performs connection tracking for RDMA flows (Sec. 3.3.2).
// One instance runs per backend (per host). It enforces three properties:
// a connection cannot be established unless a rule allows it; every data
// packet belongs to an established connection (guaranteed by the RNIC's
// RC semantics once establishment is gated); and when rules change,
// connections that are no longer allowed are disconnected by moving their
// QPs to ERROR.
//
// Two structures keep that sub-linear in table and rule count: a verdict
// cache (ConnID → decision at a rule version) short-circuits repeat
// valid_conn calls on an unchanged policy, and a per-VNI (SrcVIP, DstVIP)
// index lets enforcement scan only the entries inside a changed rule's
// CIDR footprint instead of the whole table.
type RConntrack struct {
	Stats struct {
		Validated, Denied, Inserted, Deleted, Resets uint64

		// Rule-engine observability (masqctl's stats table).
		VerdictHits   uint64 // valid_conn answered from the verdict cache
		VerdictMisses uint64 // valid_conn that evaluated the rule chains
		IncrScans     uint64 // enforcements scanning only the change footprint
		FullScans     uint64 // enforcements scanning the whole VNI (bulk/linear)
		SkippedScans  uint64 // enforcements skipped: change cannot revoke
		Revalidated   uint64 // RCT entries re-evaluated by enforcement
	}

	dev      *rnic.Device
	rec      *trace.Recorder
	table    map[ConnID]*trackedConn
	byQPN    map[uint32]*trackedConn             // QPN → head of its entries (O(1) delete_conn)
	byPair   map[uint32]map[vipPair]*trackedConn // VNI → endpoints → head of their entries
	verdicts map[ConnID]verdict
	tenant   map[uint32]*overlay.Tenant // tenants this host has seen

	// enforceQ serializes rule-change enforcement: every policy update is
	// queued here and drained by one process, so a later change can never
	// race an earlier scan.
	enforceQ *simtime.Queue[enforceJob]
}

// NewRConntrack returns an empty tracker bound to the host's device.
func NewRConntrack(dev *rnic.Device) *RConntrack {
	return &RConntrack{
		dev:      dev,
		table:    make(map[ConnID]*trackedConn),
		byQPN:    make(map[uint32]*trackedConn),
		byPair:   make(map[uint32]map[vipPair]*trackedConn),
		verdicts: make(map[ConnID]verdict),
		tenant:   make(map[uint32]*overlay.Tenant),
	}
}

// Watch subscribes the tracker to a tenant's security stack (security
// group and FWaaS, including a firewall enabled later) so rule updates
// trigger re-validation of established connections.
func (ct *RConntrack) Watch(t *overlay.Tenant) {
	if ct.tenant[t.VNI] != nil {
		return
	}
	ct.tenant[t.VNI] = t
	t.SubscribeRules(func(ch overlay.RuleChange) { ct.rulesChanged(t, ch) })
}

// Validate is valid_conn(): called while handling modify_qp(RTR), it
// checks the request against the tenant's security rules. Denied requests
// never reach RConnrename, so the QPC is never configured.
//
// The cost charged scales with the rule-evaluation work actually done:
// ValidConnCost covers the call plus the first rule evaluation; each
// further unit (chain entries scanned, or index buckets probed) adds
// ruleEvalCost. A verdict-cache hit — same connection, unchanged policy —
// pays only verdictCacheCost.
func (ct *RConntrack) Validate(p *simtime.Proc, id ConnID) error {
	sp := ct.rec.Begin(p, trace.LayerRConntrack, "valid_conn")
	defer sp.End(p)
	ct.Stats.Validated++
	t := ct.tenant[id.VNI]
	if t == nil {
		p.Sleep(ValidConnCost)
		ct.Stats.Denied++
		return fmt.Errorf("masq: connection %v denied by security rules", id)
	}
	ver := t.RuleVersion()
	if v, ok := ct.verdicts[id]; ok && v.version == ver {
		ct.Stats.VerdictHits++
		p.Sleep(verdictCacheCost)
		if !v.allow {
			ct.Stats.Denied++
			return fmt.Errorf("masq: connection %v denied by security rules", id)
		}
		return nil
	}
	ct.Stats.VerdictMisses++
	allow, units := t.AllowsCost(overlay.ProtoRDMA, id.SrcVIP, id.DstVIP)
	p.Sleep(ValidConnCost + simtime.Duration(extraUnits(units))*ruleEvalCost)
	ct.verdicts[id] = verdict{version: ver, allow: allow}
	if !allow {
		ct.Stats.Denied++
		return fmt.Errorf("masq: connection %v denied by security rules", id)
	}
	return nil
}

// extraUnits converts a rule-evaluation unit count into billable extra
// units: the first unit is included in the base operation cost, so the
// canonical single-allow-all chain costs exactly what it always has.
func extraUnits(units int) int {
	if units <= 1 {
		return 0
	}
	return units - 1
}

// Insert is insert_conn(): record an established connection in the RCT
// table.
func (ct *RConntrack) Insert(p *simtime.Proc, id ConnID, qp *rnic.QP) {
	sp := ct.rec.Begin(p, trace.LayerRConntrack, "insert_conn")
	defer sp.End(p)
	p.Sleep(InsertConnCost)
	ct.Stats.Inserted++
	if old := ct.table[id]; old != nil {
		ct.unlink(old) // a re-insert replaces the entry
	}
	c := &trackedConn{id: id, qp: qp, qpNext: ct.byQPN[id.QPN]}
	ct.table[id] = c
	ct.byQPN[id.QPN] = c
	pairs := ct.byPair[id.VNI]
	if pairs == nil {
		pairs = make(map[vipPair]*trackedConn)
		ct.byPair[id.VNI] = pairs
	}
	pp := vipPair{id.SrcVIP, id.DstVIP}
	if head := pairs[pp]; head != nil {
		c.pairNext, head.pairPrev = head, c
	}
	pairs[pp] = c
}

// remove drops one entry from the table and every index.
func (ct *RConntrack) remove(id ConnID) {
	c, ok := ct.table[id]
	if !ok {
		return
	}
	delete(ct.table, id)
	delete(ct.verdicts, id)
	ct.Stats.Deleted++
	ct.unlink(c)
}

// unlink takes c off its QPN's list and its pair's list. A VNI's pair map
// stays once made, so the next connection of the VNI reuses it.
func (ct *RConntrack) unlink(c *trackedConn) {
	id := c.id
	if head := ct.byQPN[id.QPN]; head != c {
		for prev := head; prev != nil; prev = prev.qpNext {
			if prev.qpNext == c {
				prev.qpNext = c.qpNext
				break
			}
		}
	} else if c.qpNext != nil {
		ct.byQPN[id.QPN] = c.qpNext
	} else {
		delete(ct.byQPN, id.QPN)
	}
	if c.pairNext != nil {
		c.pairNext.pairPrev = c.pairPrev
	}
	if c.pairPrev != nil {
		c.pairPrev.pairNext = c.pairNext
	} else {
		pairs, pp := ct.byPair[id.VNI], vipPair{id.SrcVIP, id.DstVIP}
		if c.pairNext != nil {
			pairs[pp] = c.pairNext
		} else {
			delete(pairs, pp)
		}
	}
	c.qpNext, c.pairPrev, c.pairNext = nil, nil, nil
}

// Delete is delete_conn(): called from destroy_qp. The QPN index makes it
// O(entries for this QPN), and every entry the QPN owns is removed — a QP
// reconnected to several peers over its lifetime leaves no residue.
func (ct *RConntrack) Delete(p *simtime.Proc, qpn uint32) {
	sp := ct.rec.Begin(p, trace.LayerRConntrack, "delete_conn")
	defer sp.End(p)
	p.Sleep(deleteConnCost)
	for c := ct.byQPN[qpn]; c != nil; c = ct.byQPN[qpn] {
		ct.remove(c.id)
	}
}

// Conns returns a snapshot of the RCT table (masqctl inspection).
func (ct *RConntrack) Conns() []ConnID {
	out := make([]ConnID, 0, len(ct.table))
	for id := range ct.table {
		out = append(out, id)
	}
	return out
}

// Has reports whether id is currently tracked.
func (ct *RConntrack) Has(id ConnID) bool {
	_, ok := ct.table[id]
	return ok
}

// ResetConn forcibly disconnects one tracked connection: its QP is moved
// to ERROR and the entry removed. It reports whether an entry existed.
// RConnrename uses it to kill grace-mode connections whose mapping turns
// out to have changed once the controller returns.
func (ct *RConntrack) ResetConn(p *simtime.Proc, id ConnID) bool {
	c, ok := ct.table[id]
	if !ok {
		return false
	}
	if c.qp.State() != rnic.StateError {
		sp := ct.rec.Begin(p, trace.LayerRConntrack, "reset_conn")
		if err := ct.dev.ModifyQP(p, c.qp, rnic.Attr{ToState: rnic.StateError}); err == nil {
			ct.Stats.Resets++
		}
		sp.End(p)
	}
	ct.remove(id)
	return true
}

// rulesChanged runs on every policy update. Enforcement is serialized
// through one per-tracker queue drained by a single process: concurrent
// updates used to each spawn their own enforcement process, whose
// snapshots and resets could interleave; now updates are applied strictly
// in arrival order, and each scan sees the policy as it stands when the
// chain update lands — a later rule change can never race an earlier scan.
func (ct *RConntrack) rulesChanged(t *overlay.Tenant, ch overlay.RuleChange) {
	if ct.enforceQ == nil {
		ct.enforceQ = simtime.NewQueue[enforceJob](ct.dev.Engine())
		ct.dev.Engine().Spawn("rconntrack.enforce", func(p *simtime.Proc) {
			for {
				ct.enforce(p, ct.enforceQ.Get(p))
			}
		})
	}
	ct.enforceQ.Put(enforceJob{t: t, ch: ch})
}

// revocable reports whether a rule change can possibly flip an
// established (allowed) connection to denied. First-match chains are
// monotone here: adding an Allow rule or removing a Deny rule can only
// widen what is allowed, and a TCP-only rule never matches an RDMA
// connection — such changes need no RCT scan at all.
func revocable(ch overlay.RuleChange) bool {
	if ch.Full {
		return true
	}
	if ch.Rule.Proto == overlay.ProtoTCP {
		return false
	}
	if ch.Added {
		return ch.Rule.Action == overlay.Deny
	}
	return ch.Rule.Action == overlay.Allow
}

// enforce applies one queued rule-chain update: pay the maintenance cost,
// then re-validate the RCT entries the change can affect against the
// policy's CURRENT state and reset every connection it no longer allows.
// Scanning at enforcement time (not at notification time) means a revoke
// that was re-allowed before its update reached the chain resets nothing.
//
// The scan is incremental by default: a change that cannot revoke is
// skipped outright, and otherwise only entries whose (SrcVIP, DstVIP)
// fall inside the changed rule's CIDR footprint are re-validated, found
// through the byPair index. A bulk change (no single-rule footprint), or
// a tenant on the linear engine (Tenant.SetLinear), scans the whole VNI.
// Cost is charged per entry actually re-validated, scaling with the
// policy engine's work units — walking the pair index itself is free at
// this granularity.
func (ct *RConntrack) enforce(p *simtime.Proc, job enforceJob) {
	p.Sleep(InsertRuleCost) // insert_rule(): update the local chain
	t, ch := job.t, job.ch

	var cands []*trackedConn
	switch {
	case ch.Full || t.Policy.Linear():
		ct.Stats.FullScans++
		for _, c := range ct.table {
			if c.id.VNI == t.VNI {
				cands = append(cands, c)
			}
		}
	case !revocable(ch):
		ct.Stats.SkippedScans++
		return
	default:
		ct.Stats.IncrScans++
		for pair, head := range ct.byPair[t.VNI] {
			if ch.Rule.Src.Contains(pair.src) && ch.Rule.Dst.Contains(pair.dst) {
				for c := head; c != nil; c = c.pairNext {
					cands = append(cands, c)
				}
			}
		}
	}
	// Map iteration order must not leak into the simulation: re-validate in
	// a deterministic order.
	sort.Slice(cands, func(a, b int) bool { return connLess(cands[a].id, cands[b].id) })
	for _, c := range cands {
		// Re-check table membership: the QP may have been destroyed (and
		// its entry deleted) while earlier work was paying its cost, in
		// which case the stale *rnic.QP must not be touched.
		if cur, ok := ct.table[c.id]; !ok || cur != c {
			continue
		}
		allow, units := t.AllowsCost(overlay.ProtoRDMA, c.id.SrcVIP, c.id.DstVIP)
		p.Sleep(enforceScanCost + simtime.Duration(extraUnits(units))*ruleEvalCost)
		ct.Stats.Revalidated++
		if allow {
			continue
		}
		if c.qp.State() == rnic.StateError {
			ct.remove(c.id)
			continue
		}
		// reset_conn(): the dominant cost is the RNIC's modify_qp(ERR)
		// (Fig. 18); it flushes outstanding work and stops the flow.
		sp := ct.rec.Begin(p, trace.LayerRConntrack, "reset_conn")
		if err := ct.dev.ModifyQP(p, c.qp, rnic.Attr{ToState: rnic.StateError}); err == nil {
			ct.Stats.Resets++
		}
		sp.End(p)
		ct.remove(c.id)
	}
}

// connLess is a total order over ConnIDs (deterministic victim scans).
// Addresses compare as raw bytes — no per-comparison String allocations.
func connLess(a, b ConnID) bool {
	if a.VNI != b.VNI {
		return a.VNI < b.VNI
	}
	if a.QPN != b.QPN {
		return a.QPN < b.QPN
	}
	if c := bytes.Compare(a.SrcVIP[:], b.SrcVIP[:]); c != 0 {
		return c < 0
	}
	return bytes.Compare(a.DstVIP[:], b.DstVIP[:]) < 0
}
