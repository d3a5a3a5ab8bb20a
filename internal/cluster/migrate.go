// Transparent live migration (Testbed.LiveMigrateNode): move a MasQ VM
// with live RDMA connections to another host without the application
// noticing. This is the MigrOS-style alternative to the paper's Sec. 5
// application-assisted scheme (Testbed.MigrateNode): instead of asking the
// app to tear its connections down, the engine freezes the VM, carries the
// QP/CQ/MR/PD state and guest memory across, and the controller renames
// the endpoint in place on every peer.
//
// Timeline and commit discipline:
//
//	pre-copy (VM live)   iterative dirty-page rounds; converges when the
//	                     remaining dirty set fits the stop-copy threshold
//	Suspend RPC          peers quiesce their QPs toward the endpoint so
//	                     the blackout cannot exhaust their retry budgets;
//	                     failure here aborts cleanly — nothing was touched
//	freeze (blackout)    MigrateOut: QPs quiesced and detached, RCT rows
//	                     captured and erased, MRs unpinned, pool flushed
//	stop-copy            the final dirty set crosses while all is dark
//	restore              MigrateIn: re-pin, adopt under fresh QPNs and
//	                     preserved MR keys, re-validate RCT rows against
//	                     the destination's policy
//	Move RPC (commit)    the controller atomically republishes the mapping
//	                     and pushes the QPN translations; peers rename
//	                     their connections in place and resume with PSN
//	                     replay. Failure here rolls everything back to the
//	                     source — no half-migrated VM, no leaked RCT rows,
//	                     no orphaned controller mapping.
package cluster

import (
	"fmt"

	"masq/internal/controller"
	"masq/internal/masq"
	"masq/internal/simtime"
)

// MigrateOpts tunes the live-migration engine. The zero value is a sane
// default: line-rate copy, idle guest, 256 KiB stop-copy threshold.
type MigrateOpts struct {
	// DirtyRate is how fast the guest dirties memory during pre-copy, in
	// bytes per second. Zero models an idle guest (one pre-copy round).
	DirtyRate float64
	// CopyBandwidth is the migration stream's throughput in bytes per
	// second. Zero means the RNIC line rate.
	CopyBandwidth float64
	// StopCopyThreshold ends pre-copy once the remaining dirty set is at
	// or below this many bytes (zero: 256 KiB).
	StopCopyThreshold uint64
}

// maxPreCopyRounds bounds the iterative pre-copy for guests whose dirty
// rate outruns the copy bandwidth.
const maxPreCopyRounds = 8

// MigrateReport is the engine's accounting: what the blackout cost and
// where the time went.
type MigrateReport struct {
	// Pre-copy phase (the VM keeps running).
	PreCopyRounds int
	PreCopyBytes  uint64
	PreCopyTime   simtime.Duration

	// Blackout phase and its components.
	Blackout      simtime.Duration
	FreezeTime    simtime.Duration // source capture: QP quiesce/detach, RCT erase, MR unpin
	StopCopyTime  simtime.Duration // final dirty set crossing
	RestoreTime   simtime.Duration // destination restore: re-pin, adopt, re-validate
	CommitTime    simtime.Duration // controller Move RPC
	StopCopyBytes uint64

	// Capture size.
	QPs, MRs, Conns int

	// RolledBack is set when the commit failed and the VM was cleanly
	// re-adopted at the source (the error return names the cause).
	RolledBack bool
}

// LiveMigrateNode transparently live-migrates a MasQ node's VM to another
// host while its RDMA connections stay established. It must run inside a
// simulation proc (it pays RPC, copy, and per-resource costs in virtual
// time). On success the node's frontend, provider, and memory handles are
// unchanged — the session moved under them. On a commit failure the VM is
// rolled back to the source and the error says why; the report's
// RolledBack flag distinguishes a rollback from an abort that never froze
// the VM.
func (tb *Testbed) LiveMigrateNode(p *simtime.Proc, n *Node, dstHost int, opts MigrateOpts) (*MigrateReport, error) {
	if n.Mode != ModeMasQ && n.Mode != ModeMasQPF {
		return nil, fmt.Errorf("cluster: transparent live migration needs a MasQ VF/PF node (got %v)", n.Mode)
	}
	if n.crashed {
		return nil, fmt.Errorf("cluster: %s has crashed", n.Name)
	}
	fe, ok := n.Provider.(*masq.Frontend)
	if !ok {
		return nil, fmt.Errorf("cluster: %s has no MasQ frontend", n.Name)
	}
	if dstHost < 0 || dstHost >= len(tb.Hosts) {
		return nil, fmt.Errorf("cluster: no host %d", dstHost)
	}
	rep := &MigrateReport{}
	src, dst := n.Host, tb.Hosts[dstHost]
	if src == dst {
		return rep, nil // same-host: nothing to copy, nothing to re-register
	}
	if err := tb.checkPlacement(dstHost, n.Mode); err != nil {
		return rep, err
	}
	srcB, dstB := tb.Backend(hostIndex(tb, src)), tb.backendFor(dstHost, n.Mode)

	bw := opts.CopyBandwidth
	if bw <= 0 {
		bw = tb.Cfg.RNIC.LineRate / 8
	}
	threshold := float64(opts.StopCopyThreshold)
	if threshold <= 0 {
		threshold = 256 << 10
	}

	// Phase 1 — iterative pre-copy, VM live: round i ships the pages
	// dirtied during round i-1; the dirty set shrinks geometrically when
	// the copy outruns the dirty rate and the blackout therefore depends
	// on the dirty rate, not the image size.
	image := float64(n.VM.GPA.MappedBytes())
	w := image
	preStart := p.Now()
	for round := 0; round < maxPreCopyRounds; round++ {
		dt := w / bw
		p.Sleep(copyTime(w, bw))
		rep.PreCopyRounds++
		rep.PreCopyBytes += uint64(w)
		w = opts.DirtyRate * dt
		if w > image {
			w = image
		}
		if w <= threshold {
			break
		}
	}
	rep.PreCopyTime = p.Now().Sub(preStart)
	rep.StopCopyBytes = uint64(w)

	// Phase 2 — announce the freeze. Peers quiesce their QPs toward the
	// endpoint; a failure (controller dark) aborts with nothing touched.
	vb := fe.VBond()
	key := controller.Key{VNI: vb.VNI(), VGID: vb.GID()}
	if err := tb.CtrlSharded.Suspend(p, key); err != nil {
		return rep, fmt.Errorf("cluster: live migration of %s aborted before freeze: %w", n.Name, err)
	}

	// Phase 3 — blackout: freeze and capture on the source.
	blackStart := p.Now()
	cap, err := srcB.MigrateOut(p, fe)
	if err != nil {
		// The capture refuses before mutating anything (wrong backend,
		// dead session, shared mode). Wake the peers the Suspend push
		// quiesced; if this push is lost too, their suspend TTL fires.
		_ = tb.CtrlSharded.Move(p, key, srcB.HostMapping(), nil)
		return rep, fmt.Errorf("cluster: live migration of %s aborted: %w", n.Name, err)
	}
	rep.QPs, rep.MRs, rep.Conns = cap.Counts()
	rep.FreezeTime = p.Now().Sub(blackStart)

	// Phase 4 — stop-copy: the final dirty set crosses, then the guest
	// memory re-homes into the destination's address space.
	scStart := p.Now()
	p.Sleep(copyTime(w, bw))
	if err := n.VM.MigrateTo(dst); err != nil {
		return tb.rollbackLive(p, n, rep, cap, key, srcB, nil, err)
	}
	rep.StopCopyTime = p.Now().Sub(scStart)

	// Phase 5 — restore on the destination.
	rsStart := p.Now()
	if err := dstB.MigrateIn(p, cap, false); err != nil {
		// MigrateIn fails only before mutating (no VF budget, unknown
		// tenant): move the memory back and re-adopt at the source.
		if rbErr := n.VM.MigrateTo(src); rbErr != nil {
			return rep, fmt.Errorf("cluster: live migration of %s failed (%v) and memory rollback failed: %w", n.Name, err, rbErr)
		}
		return tb.rollbackLive(p, n, rep, cap, key, srcB, nil, err)
	}
	rep.RestoreTime = p.Now().Sub(rsStart)

	// Phase 6 — commit: re-home the overlay endpoint, then the Move RPC
	// atomically republishes the mapping and pushes the QPN translations.
	if err := tb.Fab.MoveEndpoint(n.VM.VNIC, dst.VSwitch); err != nil {
		return tb.rollbackLive(p, n, rep, cap, key, srcB, dstB, err)
	}
	cmStart := p.Now()
	if err := tb.CtrlSharded.Move(p, key, dstB.HostMapping(), cap.QPNMap); err != nil {
		// The realistic chaos case: the controller is unreachable at the
		// commit point. Nothing was published — put the endpoint back.
		if fbErr := tb.Fab.MoveEndpoint(n.VM.VNIC, src.VSwitch); fbErr != nil {
			return rep, fmt.Errorf("cluster: live migration of %s failed (%v) and endpoint rollback failed: %w", n.Name, err, fbErr)
		}
		return tb.rollbackLive(p, n, rep, cap, key, srcB, dstB, err)
	}
	rep.CommitTime = p.Now().Sub(cmStart)
	cap.Commit(p)
	n.Host = dst
	rep.Blackout = p.Now().Sub(blackStart)
	return rep, nil
}

// rollbackLive re-adopts a captured session at the source after a failed
// migration: evict whatever the destination restored, move the guest
// memory back if it crossed, re-adopt under the original QPNs, reactivate
// the original bond, and resume — then republish the original mapping so
// suspended peers wake (their TTL covers a lost push). The returned error
// wraps the cause; rep.RolledBack marks the clean rollback.
func (tb *Testbed) rollbackLive(p *simtime.Proc, n *Node, rep *MigrateReport, cap *masq.MigrCapture,
	key controller.Key, srcB, dstB *masq.Backend, cause error) (*MigrateReport, error) {
	if dstB != nil {
		dstB.Evict(p, cap)
		if err := n.VM.MigrateTo(n.Host); err != nil {
			return rep, fmt.Errorf("cluster: live migration of %s failed (%v) and memory rollback failed: %w", n.Name, cause, err)
		}
	}
	if err := srcB.MigrateIn(p, cap, true); err != nil {
		return rep, fmt.Errorf("cluster: live migration of %s failed (%v) and source re-adoption failed: %w", n.Name, cause, err)
	}
	cap.FinishRollback(p)
	// Best-effort resume push for the peers the Suspend quiesced: the
	// mapping republished is the source's own, so a delivered push renames
	// nothing and merely wakes them; a lost push leaves the suspend TTL to
	// do the same.
	_ = tb.CtrlSharded.Move(p, key, srcB.HostMapping(), nil)
	rep.RolledBack = true
	rep.Blackout = 0
	return rep, fmt.Errorf("cluster: live migration of %s rolled back: %w", n.Name, cause)
}

// copyTime converts a byte count and a bytes-per-second bandwidth into
// virtual time.
func copyTime(bytes, bw float64) simtime.Duration {
	if bytes <= 0 || bw <= 0 {
		return 0
	}
	return simtime.Duration(bytes / bw * 1e9)
}
