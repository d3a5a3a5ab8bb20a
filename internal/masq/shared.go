package masq

import (
	"masq/internal/controller"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
)

// Shared connections (setup fast path, part c, RDMAvisor/DCT-style): under
// ModeVFShared, guest flows of one tenant that target the same peer host
// multiplex a single host-level connection. The first flow to a (VNI, peer
// host) pair is the carrier — it pays the full firmware RTR/RTS chain and
// establishes the host connection; subsequent flows attach to it, flipping
// their QPC in host memory at sharedAttachCost instead of taking the
// firmware path. Each flow keeps its own QP and BTH DestQP (so data-path
// routing is untouched); the carrier relationship is visible on the wire as
// a flow tag in a VXLAN shim (port 4790), letting the peer demux which of
// the multiplexed flows a packet belongs to.

// sharedKey identifies a host-level shared connection: one per tenant VNI
// per peer physical host.
type sharedKey struct {
	vni uint32
	pip packet.IP
}

// sharedConn is the host-side record of one shared connection.
type sharedConn struct {
	carrierQPN uint32 // the flow that paid the firmware setup
	refs       int    // live flows multiplexed on this connection
	nextTag    uint16 // next flow tag to hand out (carrier holds tag 1)
}

// sharedFlow records a QP's membership in a shared connection.
type sharedFlow struct {
	key      sharedKey
	attached bool // false for the carrier, true for soft-attached flows
}

// sharedRTR programs a renamed RTR under ModeVFShared: the first flow to a
// peer host becomes the carrier (firmware path), later flows attach in host
// memory.
func (b *Backend) sharedRTR(p *simtime.Proc, qp *rnic.QP, vni uint32, m controller.Mapping, attr rnic.Attr) error {
	key := sharedKey{vni: vni, pip: m.PIP}
	attr.FlowVNI = vni
	if sc, ok := b.shared[key]; ok {
		attr.FlowTag = sc.nextTag
		if err := b.Host.Dev.SoftModify(p, qp, attr, sharedAttachCost); err != nil {
			return err
		}
		sc.nextTag++
		sc.refs++
		b.sharedFlows[qp.Num] = sharedFlow{key: key, attached: true}
		b.Stats.SharedAttaches++
		return nil
	}
	// Register the carrier before its firmware call: flows renaming toward
	// the same peer while the carrier's RTR is still inside the firmware
	// must attach to it, not race into carriers of their own.
	attr.FlowTag = 1
	sc := &sharedConn{carrierQPN: qp.Num, refs: 1, nextTag: 2}
	b.shared[key] = sc
	b.sharedFlows[qp.Num] = sharedFlow{key: key, attached: false}
	if err := b.Host.Dev.ModifyQP(p, qp, attr); err != nil {
		delete(b.sharedFlows, qp.Num)
		if b.shared[key] == sc {
			delete(b.shared, key)
		}
		return err
	}
	b.Stats.SharedCarriers++
	return nil
}

// sharedDetach drops a QP's membership when it is destroyed. When the
// carrier dies (or the last flow leaves) the shared connection is retired:
// surviving attached flows keep their established QPCs, but the next new
// flow to that peer establishes a fresh carrier rather than attaching to a
// connection whose owner is gone.
func (b *Backend) sharedDetach(qpn uint32) {
	fl, ok := b.sharedFlows[qpn]
	if !ok {
		return
	}
	delete(b.sharedFlows, qpn)
	sc := b.shared[fl.key]
	if sc == nil {
		return
	}
	sc.refs--
	if sc.refs <= 0 || sc.carrierQPN == qpn {
		delete(b.shared, fl.key)
	}
}

// flushSharedConns drops the whole multiplexing table (controller-epoch
// bump: the new controller never vouched for these carrier relationships).
// Established QPCs keep working; only future attach decisions are reset.
func (b *Backend) flushSharedConns() {
	if len(b.shared) == 0 && len(b.sharedFlows) == 0 {
		return
	}
	b.shared = make(map[sharedKey]*sharedConn)
	b.sharedFlows = make(map[uint32]sharedFlow)
	b.Stats.SharedFlushes++
}
