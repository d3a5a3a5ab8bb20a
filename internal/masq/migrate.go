package masq

import (
	"fmt"
	"sort"

	"masq/internal/controller"
	"masq/internal/mem"
	"masq/internal/rnic"
	"masq/internal/simtime"
)

// Transparent live migration (the MigrOS model, contrasted with the
// paper's Sec. 5 application-assisted teardown/reconnect): a VM with live
// RDMA connections moves hosts without the application noticing. The
// backend half lives here, split in two roles:
//
//   - The migration engine (MigrateOut / MigrateIn / Commit / rollback):
//     freezes the session on the source — quiescing its QPs, detaching
//     QPs/CQs/PDs from the device and unpinning MR pages while keeping
//     every verbs object alive — and restores it on the destination with
//     renumbered QPNs, preserved MR keys (Params.KeyBase makes them
//     collision-free), re-pinned pages, and RConntrack rows re-validated
//     against the destination's policy. The controller Move RPC is the
//     commit point: until it succeeds everything can be re-adopted at the
//     source, and nothing (mapping, RCT rows, QPN translations) leaks.
//
//   - The peer side (migrSuspend / migrMoved): controller pushes drive
//     every other host. Suspend quiesces established connections toward
//     the freezing endpoint so the transport does not burn its retry
//     budget (MaxRetry × RetransTimeout) into the blackout; Moved renames
//     them in place — new physical GID/IP/MAC, translated destination QPN
//     — and resumes them with a PSN rewind to the last acknowledged
//     sequence number, so packets lost in the blackout are retransmitted
//     and nothing is completed twice (duplicates are absorbed by the
//     responder's expected-PSN window). A rollback resume is the same
//     push carrying the original mapping and no translations. If both
//     pushes are lost, migrSuspendTTL wakes the QPs anyway and the normal
//     retry budget decides their fate.

// suspendSet tracks the peer QPs quiesced by one Suspend push. The
// generation counter invalidates a stale TTL callback when a second
// migration of the same key starts before the first set's TTL fires.
type suspendSet struct {
	gen int
	qps []*rnic.QP
}

// connsToward lists the QPs of every tracked connection this host has
// toward the endpoint (VNI, vGID), deduplicated and in QPN order.
func (b *Backend) connsToward(k controller.Key) []*rnic.QP {
	ip, _ := k.VGID.IP()
	if ip.IsZero() {
		return nil
	}
	byQPN := make(map[uint32]*rnic.QP)
	for id, c := range b.CT.table {
		if id.VNI == k.VNI && id.DstVIP == ip {
			byQPN[c.qp.Num] = c.qp
		}
	}
	out := make([]*rnic.QP, 0, len(byQPN))
	for _, qp := range byQPN {
		out = append(out, qp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Num < out[j].Num })
	return out
}

// migrSuspend handles a Suspend push: quiesce every connection toward the
// freezing endpoint and arm the TTL fallback.
func (b *Backend) migrSuspend(k controller.Key) {
	qps := b.connsToward(k)
	if len(qps) == 0 {
		return
	}
	set := b.migrSusp[k]
	if set == nil {
		set = &suspendSet{}
		b.migrSusp[k] = set
	}
	set.gen++
	set.qps = qps
	gen := set.gen
	for _, qp := range qps {
		qp.Suspend()
	}
	b.Stats.MigrSuspends++
	b.Stats.MigrSuspendedQPs += uint64(len(qps))
	b.Host.Eng.After(migrSuspendTTL, func() {
		cur := b.migrSusp[k]
		if cur == nil || cur.gen != gen {
			return // a Moved push or a newer Suspend superseded this set
		}
		delete(b.migrSusp, k)
		b.Stats.MigrSuspendExpiry++
		for _, qp := range cur.qps {
			if qp.Suspended() {
				qp.Resume(true)
			}
		}
	})
}

// migrMoved handles a Moved push: refresh the cache, rename the quiesced
// connections in place (commit) or leave their addressing alone
// (rollback: no QPN translations), and resume them with PSN replay.
func (b *Backend) migrMoved(n controller.Notify) {
	k := n.Key
	if b.P.PushDown {
		b.cacheStore(k, n.Mapping)
	} else if _, ok := b.cache[k]; ok {
		b.cacheStore(k, n.Mapping)
	}
	var suspended []*rnic.QP
	if set := b.migrSusp[k]; set != nil {
		suspended = set.qps
		delete(b.migrSusp, k) // disarms the TTL (generation check fails)
	}
	// Union with a fresh walk: the Suspend push may have been lost, or a
	// connection established in the gap between the two pushes.
	qps := b.connsToward(k)
	have := make(map[uint32]bool, len(qps))
	for _, qp := range qps {
		have[qp.Num] = true
	}
	for _, qp := range suspended {
		if !have[qp.Num] {
			qps = append(qps, qp)
		}
	}
	sort.Slice(qps, func(i, j int) bool { return qps[i].Num < qps[j].Num })
	if len(qps) == 0 {
		return
	}
	m, qpnMap := n.Mapping, n.QPNMap
	b.Host.Eng.Spawn("masq.migr-rename", func(p *simtime.Proc) {
		for _, qp := range qps {
			if newQPN, ok := qpnMap[qp.AV.DQPN]; ok {
				// The in-place rename: rewrite the QP context's address
				// vector in host memory — the RConnrename idea applied to
				// an established connection.
				p.Sleep(migrRenameCost)
				qp.AV = rnic.AddressVector{DGID: m.PGID, DIP: m.PIP, DMAC: m.PMAC, DQPN: newQPN}
				b.Stats.MigrRenames++
			}
			if qp.Suspended() {
				qp.Resume(true)
				b.Stats.MigrResumes++
			}
		}
	})
}

// ─── The migration engine: capture, restore, commit, rollback ────────────

// MigrCapture is a frozen session in flight between two hosts: every
// verbs object the guest holds pointers to, the identifiers they had on
// the source, and the RCT rows to re-validate at the destination.
type MigrCapture struct {
	// Key is the migrating endpoint's controller identity; OldMapping the
	// source host's physical identity — what a rollback resume republishes.
	Key        controller.Key
	OldMapping controller.Mapping
	// QPNMap (set by MigrateIn) translates source QPNs to destination
	// QPNs; the controller pushes it to peers at commit.
	QPNMap map[uint32]uint32

	f       *Frontend
	src     *Backend
	dst     *Backend
	oldBond *VBond
	newBond *VBond
	newFn   *rnic.Func

	qps   []capQP
	cqs   []*rnic.CQ
	pds   []*rnic.PD
	mrs   []sessMR
	conns []capConn
}

// capQP is one captured QP with its source-host number.
type capQP struct {
	qp     *rnic.QP
	oldQPN uint32
	pooled bool // was handed out of the warm pool already in INIT
}

// capConn is one RCT row of the migrating session, keyed by the QPN it
// had on the source.
type capConn struct {
	id ConnID
	qp *rnic.QP
}

// Counts reports the capture's size (migration reports and tests).
func (cap *MigrCapture) Counts() (qps, mrs, conns int) {
	return len(cap.qps), len(cap.mrs), len(cap.conns)
}

// MigrateOut freezes a frontend's session on this backend and captures it
// for restoration elsewhere: quiesce and detach every QP (arriving
// packets now drop — the blackout), erase the session's RCT rows, flush
// the tenant's warm pool (staged state must not outlive the VM on this
// host), detach CQs/PDs/MRs, and unpin the guest's pages from this host's
// memory. The vBond is stopped first so a racing lease renewal cannot
// re-assert the source mapping after the move commits; the controller
// mapping itself stays registered — the commit overwrites it, a rollback
// reclaims it.
func (b *Backend) MigrateOut(p *simtime.Proc, f *Frontend) (*MigrCapture, error) {
	sess := f.sess
	switch {
	case f.b != b:
		return nil, fmt.Errorf("masq: frontend %s is not served by this backend", sess.vm.Name)
	case sess.dead:
		return nil, fmt.Errorf("masq: cannot migrate dead session %s", sess.vm.Name)
	case b.Mode == ModeVFShared:
		return nil, fmt.Errorf("masq: %s: shared-connection mode multiplexes guest flows onto host-level carriers; transparent migration is not supported", sess.vm.Name)
	}
	cap := &MigrCapture{
		Key:        controller.Key{VNI: sess.vni, VGID: sess.vbond.GID()},
		OldMapping: b.physIdentity(),
		f:          f,
		src:        b,
		oldBond:    sess.vbond,
	}
	sess.vbond.Stop()
	dev := b.Host.Dev
	for _, qp := range sess.qps {
		qp.Suspend()
	}
	for _, qp := range sess.qps {
		p.Sleep(migrQPCost)
		cap.qps = append(cap.qps, capQP{qp: qp, oldQPN: qp.Num, pooled: b.pooledInit[qp.Num]})
		var ids []ConnID
		for c := b.CT.byQPN[qp.Num]; c != nil; c = c.qpNext {
			ids = append(ids, c.id)
		}
		sort.Slice(ids, func(i, j int) bool { return connLess(ids[i], ids[j]) })
		for _, id := range ids {
			cap.conns = append(cap.conns, capConn{id: id, qp: qp})
		}
		b.CT.Delete(p, qp.Num)
		delete(b.qpOwner, qp.Num)
		delete(b.pooledInit, qp.Num)
		dev.DetachQP(qp)
	}
	cap.cqs, cap.pds = sessionCQsPDs(sess)
	for _, cq := range cap.cqs {
		dev.DetachCQ(cq)
	}
	for _, pd := range cap.pds {
		dev.DetachPD(pd)
	}
	cap.mrs = append(cap.mrs, sess.mrs...)
	for _, r := range cap.mrs {
		p.Sleep(migrMRCost)
		dev.DetachMR(r.mr)
		for _, e := range r.gpa {
			if err := sess.vm.GPA.UnpinToPhys(e.Addr, e.Len); err != nil {
				return nil, fmt.Errorf("masq: migrate %s: %w", sess.vm.Name, err)
			}
		}
	}
	if pool := b.pools[sess.vni]; pool != nil {
		b.flushPool(p, pool)
	}
	b.Stats.MigrOut++
	return cap, nil
}

// sessionCQsPDs collects the session's CQs and PDs in deterministic
// first-reference order (via the QP and MR slices, which preserve
// creation order).
func sessionCQsPDs(sess *session) ([]*rnic.CQ, []*rnic.PD) {
	var cqs []*rnic.CQ
	var pds []*rnic.PD
	seenCQ := make(map[*rnic.CQ]bool)
	seenPD := make(map[*rnic.PD]bool)
	addCQ := func(cq *rnic.CQ) {
		if cq != nil && !seenCQ[cq] {
			seenCQ[cq] = true
			cqs = append(cqs, cq)
		}
	}
	addPD := func(pd *rnic.PD) {
		if pd != nil && !seenPD[pd] {
			seenPD[pd] = true
			pds = append(pds, pd)
		}
	}
	for _, qp := range sess.qps {
		addCQ(qp.SendCQ)
		addCQ(qp.RecvCQ)
		addPD(qp.PD)
	}
	for _, r := range sess.mrs {
		addPD(r.mr.PD)
	}
	return cqs, pds
}

// MigrateIn restores a capture onto this backend: adopt PDs and CQs
// (renumbered — host-local handles), re-pin the guest's pages on this
// host and adopt the MRs under their original keys, adopt the QPs (fresh
// QPNs, recorded in cap.QPNMap; rollback re-adopts under the original
// numbers instead), and re-validate every captured connection against
// this host's policy before re-inserting it — a connection the
// destination denies is reset, not half-admitted. The QPs stay quiesced:
// Commit (or FinishRollback) resumes them once the controller has
// published the move.
func (b *Backend) MigrateIn(p *simtime.Proc, cap *MigrCapture, rollback bool) error {
	sess := cap.f.sess
	fn, err := b.fnFor(sess.vni)
	if err != nil {
		return err
	}
	tenant := b.Fab.Tenant(sess.vni)
	if tenant == nil {
		return fmt.Errorf("masq: unknown tenant VNI %d", sess.vni)
	}
	b.CT.Watch(tenant)
	if b.P.QPPoolSize > 0 {
		b.ensurePool(sess.vni, fn)
	}
	cap.dst = b
	cap.newFn = fn
	dev := b.Host.Dev
	for _, pd := range cap.pds {
		dev.AdoptPD(pd)
	}
	for _, cq := range cap.cqs {
		dev.AdoptCQ(cq)
	}
	for _, r := range cap.mrs {
		p.Sleep(migrMRCost)
		var hpa []mem.Extent
		for _, e := range r.gpa {
			sub, err := sess.vm.GPA.PinToPhys(e.Addr, e.Len)
			if err != nil {
				return fmt.Errorf("masq: migrate %s: %w", sess.vm.Name, err)
			}
			hpa = append(hpa, sub...)
		}
		dev.AdoptMR(r.mr, hpa)
	}
	qpnMap := make(map[uint32]uint32, len(cap.qps))
	for _, c := range cap.qps {
		p.Sleep(migrQPCost)
		if rollback {
			if err := dev.AdoptQPAt(c.qp, fn, c.oldQPN); err != nil {
				return fmt.Errorf("masq: migrate %s: %w", sess.vm.Name, err)
			}
		} else {
			dev.AdoptQP(c.qp, fn)
		}
		qpnMap[c.oldQPN] = c.qp.Num
		b.qpOwner[c.qp.Num] = sess
		if c.pooled {
			b.pooledInit[c.qp.Num] = true
		}
	}
	for _, c := range cap.conns {
		id := c.id
		id.QPN = qpnMap[c.id.QPN]
		if err := b.CT.Validate(p, id); err != nil {
			// Destination policy denies this connection: it does not come
			// back up on this host.
			b.Stats.MigrValidateResets++
			_ = dev.ModifyQP(p, c.qp, rnic.Attr{ToState: rnic.StateError})
			continue
		}
		b.CT.Insert(p, id, c.qp)
	}
	if rollback {
		cap.QPNMap = nil
	} else {
		cap.QPNMap = qpnMap
		// The successor bond is built deferred: the controller Move RPC
		// publishes (VNI, vGID) → this host atomically with the QPN
		// translations, so construction must not register anything.
		cap.newBond = NewVBondDeferred(sess.vni, sess.vm.VNIC, b.Ctrl, b.physIdentity())
	}
	b.subscribeSession(sess)
	b.Stats.MigrIn++
	return nil
}

// Evict undoes MigrateIn on the destination after a failed commit: detach
// the QPs/CQs/PDs/MRs again, erase the freshly inserted RCT rows, and
// unpin the pages from this host so the capture can be re-adopted at the
// source. Detaches are identity-checked and unpins best-effort, so Evict
// is safe even against a partially restored capture. The deferred bond is
// abandoned stopped — it never registered anything.
func (b *Backend) Evict(p *simtime.Proc, cap *MigrCapture) {
	sess := cap.f.sess
	dev := b.Host.Dev
	for _, c := range cap.qps {
		p.Sleep(migrQPCost)
		b.CT.Delete(p, c.qp.Num)
		delete(b.qpOwner, c.qp.Num)
		delete(b.pooledInit, c.qp.Num)
		dev.DetachQP(c.qp)
	}
	for _, r := range cap.mrs {
		p.Sleep(migrMRCost)
		dev.DetachMR(r.mr)
		for _, e := range r.gpa {
			_ = sess.vm.GPA.UnpinToPhys(e.Addr, e.Len)
		}
	}
	for _, cq := range cap.cqs {
		dev.DetachCQ(cq)
	}
	for _, pd := range cap.pds {
		dev.DetachPD(pd)
	}
	cap.QPNMap = nil
	cap.dst = nil
	cap.newBond = nil
	cap.newFn = nil
}

// Commit finalizes a successful migration after the controller Move RPC:
// hand the session to the destination backend (function, bond, lease
// membership, a fresh virtio ring served by the destination), and wake
// the session's own QPs with a PSN rewind so anything lost in the
// blackout is retransmitted.
func (cap *MigrCapture) Commit(p *simtime.Proc) {
	dst, sess := cap.dst, cap.f.sess
	sess.fn = cap.newFn
	sess.vbond = cap.newBond
	sess.owner = dst
	cap.newBond.activate()
	dst.bonds = append(dst.bonds, cap.newBond)
	for i, vb := range cap.src.bonds {
		if vb == cap.oldBond {
			cap.src.bonds = append(cap.src.bonds[:i], cap.src.bonds[i+1:]...)
			break
		}
	}
	if dst != cap.src {
		cap.f.ring = dst.serveRing()
		cap.f.b = dst
	}
	cap.resume()
}

// FinishRollback finalizes a rolled-back migration after the capture was
// re-adopted at the source: the original bond takes its lease back and
// the session's QPs wake where they always were.
func (cap *MigrCapture) FinishRollback(p *simtime.Proc) {
	sess := cap.f.sess
	sess.fn = cap.src.tenantFn(sess.vni)
	sess.owner = cap.src
	cap.oldBond.activate()
	sess.vbond = cap.oldBond
	cap.src.Stats.MigrRollbacks++
	cap.resume()
}

// resume wakes the session's QPs in capture order, replaying each send
// queue from the last acknowledged PSN.
func (cap *MigrCapture) resume() {
	for _, c := range cap.qps {
		c.qp.Resume(true)
	}
}

// tenantFn returns the function already assigned to a tenant on this
// backend (nil if none) — rollback must not mint a new VF.
func (b *Backend) tenantFn(vni uint32) *rnic.Func {
	if b.Mode == ModePF {
		return b.Host.Dev.PF()
	}
	return b.tenants[vni]
}

// HostMapping is this backend's physical identity — what its vBonds
// register and what a migration rollback republishes to resume suspended
// peers.
func (b *Backend) HostMapping() controller.Mapping { return b.physIdentity() }

// RetireFrontend ends a frontend's tenancy on this backend after an
// application-assisted migration (Testbed.MigrateNode): the session goes
// dead, the destroyed QPs' shared-connection memberships are dropped, the
// tenant's warm pool is flushed — staged fast-path state must not outlive
// the VM on this host — and the stopped vBond leaves the lease set, so
// renewal follows the successor bond on the destination host.
func (b *Backend) RetireFrontend(f *Frontend) {
	sess := f.sess
	if sess.dead {
		return
	}
	sess.dead = true
	for _, qp := range sess.qps {
		b.sharedDetach(qp.Num)
	}
	for i, vb := range b.bonds {
		if vb == sess.vbond {
			b.bonds = append(b.bonds[:i], b.bonds[i+1:]...)
			break
		}
	}
	if pool := b.pools[sess.vni]; pool != nil {
		b.Host.Eng.Spawn("masq.migrate-retire", func(p *simtime.Proc) {
			b.flushPool(p, pool)
		})
	}
}
