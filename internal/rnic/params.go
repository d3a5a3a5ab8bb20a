// Package rnic models a RoCEv2 RDMA NIC at packet level: protection
// domains, memory regions with an MTT, completion queues, queue pairs with
// the full QP state machine (Fig. 5 of the MasQ paper), a reliable-
// connection transport engine with PSN sequencing, ACK/NAK processing and
// go-back-N retransmission, an unreliable-datagram engine, SR-IOV physical
// and virtual functions, and per-function token-bucket rate limiters.
//
// Data really moves: a SEND gathers bytes from host physical memory through
// the MR's extents, crosses the simulated wire as RoCEv2 frames, and is
// scattered into the receiver's posted buffer by DMA. Control-path verbs
// are charged the per-verb costs of the paper's Table 1 through the
// device's firmware command processor.
package rnic

import (
	"masq/internal/simtime"
)

// Verb identifies a control- or data-path verb for cost accounting.
type Verb int

// Verbs, in the order of the paper's Table 1.
const (
	VerbGetDeviceList Verb = iota
	VerbOpenDevice
	VerbAllocPD
	VerbRegMR
	VerbCreateCQ
	VerbCreateQP
	VerbQueryGID
	VerbModifyQPInit
	VerbModifyQPRTR
	VerbModifyQPRTS
	VerbPostSend
	VerbPostRecv
	VerbPollCQ
	VerbCreateSRQ
	VerbDestroySRQ
	VerbDestroyQP
	VerbDestroyCQ
	VerbDeregMR
	VerbDeallocPD
	VerbCloseDevice
	VerbModifyQPErr // connection reset; costed per Fig. 18, not Table 1
	numVerbs
)

var verbNames = [numVerbs]string{
	"get_device_list", "open_device", "alloc_pd", "reg_mr", "create_cq",
	"create_qp", "query_gid", "modify_qp_INIT", "modify_qp_RTR",
	"modify_qp_RTS", "post_send", "post_recv", "poll_cq", "create_srq",
	"destroy_srq", "destroy_qp", "destroy_cq", "dereg_mr", "dealloc_pd",
	"close_device", "modify_qp_ERR",
}

func (v Verb) String() string {
	if v >= 0 && int(v) < len(verbNames) {
		return verbNames[v]
	}
	return "verb(?)"
}

// The device model's latency and capacity constants, calibrated against
// the paper's testbed (Mellanox CX-3 Pro 40 Gbps): Table 1 verb costs,
// ~0.8 µs host 2 B send latency (Fig. 8a), ~9.7 Mops message rate
// (Fig. 21) and the Fig. 18 reset costs.
const (
	// Data-path latencies (per packet, one side) on the PF.
	txLatencyPF = 250 * simtime.Nanosecond // doorbell→wire: WQE fetch, gather DMA
	rxLatencyPF = 80 * simtime.Nanosecond  // wire→memory: validate, scatter DMA
	rxCQE       = 20 * simtime.Nanosecond  // extra to deliver a CQE after scatter
	ackProc     = 50 * simtime.Nanosecond  // processing an incoming ACK/NAK

	// Data-path pipeline occupancies (message-rate limits).
	txOccupancy  = 90 * simtime.Nanosecond // TX pipeline hold per packet: ≈9.7 M messages/s small-message ceiling
	rxOccupancy  = 85 * simtime.Nanosecond // RX pipeline hold per packet
	ackOccupancy = 18 * simtime.Nanosecond // RX pipeline hold for a pure ACK/NAK: ACKs take a fast hardware path

	// vfDataPenalty is added to txLatencyPF and rxLatencyPF when the QP lives
	// on a virtual function.
	vfDataPenalty = 150 * simtime.Nanosecond

	// iommuOccupancy is the IOMMU cost per packet on both pipelines when
	// the function's traffic passes a DMA-remapping unit (SR-IOV
	// passthrough; MasQ avoids it).
	iommuOccupancy = 12 * simtime.Nanosecond

	// Control path.
	VFControlFactor   = 2.35                      // multiplier for control verbs on a VF: 0.8 ms → 1.9 ms connection setup (Fig. 15a)
	regMRPerPage      = 400 * simtime.Nanosecond  // pinning cost per 4 KiB page past the first
	resetKernel       = 100 * simtime.Microsecond // Fig. 18: kernel routine share of modify_qp(ERR)
	resetRNICPF       = 153 * simtime.Microsecond // Fig. 18: RNIC share on PF, idle
	resetRNICVF       = 418 * simtime.Microsecond // Fig. 18: RNIC share on VF, idle
	resetTrafficExtra = 320 * simtime.Microsecond // Fig. 18: additional RNIC share under heavy traffic

	// maxInline bounds IBV_SEND_INLINE payloads (CX-3: ~912 bytes).
	maxInline = 912

	// maxInflight is the RC transport's per-QP window, in packets.
	maxInflight = 128

	// rnrTimer is how long an RC sender waits after an RNR NAK before it
	// retransmits.
	rnrTimer = 100 * simtime.Microsecond

	// maxVFs is the VF limit: non-ARI PCIe exposes 8 VFs (Table 5).
	maxVFs = 8
)

// verbCost is the host (PF) cost of each verb (Table 1). Nothing writes
// it; Device.VerbCost reads it.
var verbCost = [numVerbs]simtime.Duration{
	VerbGetDeviceList: 396 * simtime.Microsecond,
	VerbOpenDevice:    1115 * simtime.Microsecond,
	VerbAllocPD:       3 * simtime.Microsecond,
	VerbRegMR:         78 * simtime.Microsecond,
	VerbCreateCQ:      266 * simtime.Microsecond,
	VerbCreateQP:      76 * simtime.Microsecond,
	VerbQueryGID:      22 * simtime.Microsecond,
	VerbModifyQPInit:  231 * simtime.Microsecond,
	VerbModifyQPRTR:   62 * simtime.Microsecond,
	VerbModifyQPRTS:   73 * simtime.Microsecond,
	VerbPostSend:      200 * simtime.Nanosecond,
	VerbPostRecv:      200 * simtime.Nanosecond,
	VerbPollCQ:        30 * simtime.Nanosecond,
	VerbCreateSRQ:     85 * simtime.Microsecond, // not in Table 1; sized like create_qp
	VerbDestroySRQ:    90 * simtime.Microsecond,
	VerbDestroyQP:     170 * simtime.Microsecond,
	VerbDestroyCQ:     79 * simtime.Microsecond,
	VerbDeregMR:       35 * simtime.Microsecond,
	VerbDeallocPD:     2 * simtime.Microsecond,
	VerbCloseDevice:   16 * simtime.Microsecond,
}

// Params holds the device settings that callers vary: the link, the RC
// transport's retry behaviour, MR key minting and the context-cache model.
type Params struct {
	MTU      int     // RoCE path MTU in bytes
	LineRate float64 // port speed, bits per second

	// RC transport.
	RetransTimeout simtime.Duration // go-back-N timeout
	MaxRetry       int              // transport retries before the QP errors out

	// KeyBase offsets MR key minting: the device assigns lkeys/rkeys
	// sequentially from KeyBase+1. Hosts in a cluster use disjoint bases so
	// a migrated MR keeps keys that cannot collide with regions already
	// registered on the destination device — peers hold rkeys in
	// application state, so keys must survive a live migration unchanged.
	KeyBase uint32

	// On-chip context cache model (Sec. 1's hardware-solution scalability
	// discussion): per-packet QP-context lookups that miss the cache pay
	// CtxMissPenalty of extra pipeline occupancy. A zero CtxCacheSize
	// disables the model (infinite cache).
	CtxCacheSize   int
	CtxMissPenalty simtime.Duration
}

// DefaultParams returns the CX-3-calibrated settings.
func DefaultParams() Params {
	return Params{
		MTU:            4096,
		LineRate:       40e9,
		RetransTimeout: simtime.Ms(4),
		MaxRetry:       7,
	}
}
