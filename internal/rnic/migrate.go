package rnic

import (
	"fmt"

	"masq/internal/mem"
)

// Migration support: detach resources from a source device and adopt them
// on a destination device *as the same Go objects*, so every pointer the
// guest's verbs layer holds (QPs, CQs, MRs, PDs) stays valid across a
// transparent live migration (the MigrOS model). Detach/Adopt are pure
// host-memory table operations — the migration engine charges their time
// explicitly — and are only meaningful within one simulation engine.
//
// Identifier rules:
//   - QPNs are renumbered: each device allocates QPNs densely from 1, so a
//     migrated QP takes a fresh number at the destination and the
//     controller pushes the old→new translation to peers.
//   - MR keys are preserved: peers hold rkeys in application state that a
//     migration must not invalidate. Params.KeyBase gives every host a
//     disjoint key range, making preserved keys collision-free.
//   - CQ and PD numbers are renumbered: they are host-local handles no
//     remote peer ever sees.

// DetachQP removes the QP from the device's lookup tables without
// destroying it: arriving packets for it drop (exactly the blackout a
// frozen VM presents), queued work and transport state survive intact.
func (d *Device) DetachQP(qp *QP) {
	if int(qp.Num) < len(d.qps) && d.qps[qp.Num] == qp {
		d.qps[qp.Num] = nil
		d.nqps--
	}
}

// AdoptQP installs a detached QP under a freshly minted QPN on this
// device, re-pointing it at the destination function and re-latching the
// source addressing that modify_qp(INIT) had frozen from the old host.
// Transport state (PSNs, send queue, responder context, atomic history)
// is untouched — that is the point. Returns the new QPN.
func (d *Device) AdoptQP(qp *QP, fn *Func) uint32 {
	qp.Num = d.nextQPN
	d.nextQPN++
	for int(qp.Num) >= len(d.qps) {
		d.qps = append(d.qps, nil)
	}
	d.qps[qp.Num] = qp
	d.nqps++
	qp.dev = d
	qp.fn = fn
	qp.SGID = fn.GID(0)
	qp.SrcIP = fn.IP
	qp.SrcMAC = fn.MAC
	// A stale source-pipeline entry no longer clears the flag (txStep skips
	// foreign QPs without touching it), so reset it here.
	qp.scheduled = false
	return qp.Num
}

// AdoptQPAt reinstalls a detached QP under a specific QPN — the rollback
// path of a failed migration re-adopting at the source, where the QP's
// original number is still vacant (DetachQP nils the slot and fresh QPNs
// are never reused). It fails if the slot is occupied.
func (d *Device) AdoptQPAt(qp *QP, fn *Func, qpn uint32) error {
	for int(qpn) >= len(d.qps) {
		d.qps = append(d.qps, nil)
	}
	if d.qps[qpn] != nil {
		return fmt.Errorf("rnic: QPN %d already in use, cannot re-adopt", qpn)
	}
	qp.Num = qpn
	d.qps[qpn] = qp
	d.nqps++
	qp.dev = d
	qp.fn = fn
	qp.SGID = fn.GID(0)
	qp.SrcIP = fn.IP
	qp.SrcMAC = fn.MAC
	qp.scheduled = false
	return nil
}

// DetachMR removes the region from the device's MTT without deregistering
// it; the keys and the MR object survive for adoption elsewhere.
func (d *Device) DetachMR(mr *MR) {
	if d.mrs[mr.LKey] == mr {
		delete(d.mrs, mr.LKey)
	}
}

// AdoptMR installs a detached MR under its *original* keys, with fresh
// host-physical extents (the pages were re-pinned on the destination).
func (d *Device) AdoptMR(mr *MR, ext []mem.Extent) {
	mr.ext = ext
	d.mrs[mr.LKey] = mr
}

// DetachCQ removes the CQ from the device without destroying it; queued
// completions survive.
func (d *Device) DetachCQ(cq *CQ) {
	if d.cqs[cq.Num] == cq {
		delete(d.cqs, cq.Num)
	}
}

// AdoptCQ renumbers a detached CQ into this device's table. Pending
// completions ride along untouched.
func (d *Device) AdoptCQ(cq *CQ) {
	cq.Num = d.nextCQ
	d.nextCQ++
	cq.dev = d
	d.cqs[cq.Num] = cq
}

// DetachPD removes the PD from the device without deallocating it.
func (d *Device) DetachPD(pd *PD) {
	if d.pds[pd.Num] == pd {
		delete(d.pds, pd.Num)
	}
}

// AdoptPD renumbers a detached PD into this device's table. MRs and QPs
// referencing the PD keep working — the checks compare object identity,
// not numbers.
func (d *Device) AdoptPD(pd *PD) {
	pd.Num = d.nextPD
	d.nextPD++
	pd.dev = d
	d.pds[pd.Num] = pd
}
