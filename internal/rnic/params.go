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

// Params holds every latency and capacity constant of the device model.
// The defaults are calibrated against the paper's testbed (Mellanox CX-3
// Pro 40 Gbps): Table 1 verb costs, ~0.8 µs host 2 B send latency (Fig. 8a),
// ~9.7 Mops message rate (Fig. 21) and the Fig. 18 reset costs.
type Params struct {
	MTU      int     // RoCE path MTU in bytes
	LineRate float64 // port speed, bits per second

	// Data-path latencies (per packet, one side).
	TxLatency simtime.Duration // doorbell→wire: WQE fetch, gather DMA
	RxLatency simtime.Duration // wire→memory: validate, scatter DMA
	RxCQE     simtime.Duration // extra to deliver a CQE after scatter
	AckProc   simtime.Duration // processing an incoming ACK/NAK

	// Data-path pipeline occupancies (message-rate limits).
	TxOccupancy  simtime.Duration // TX pipeline hold per packet
	RxOccupancy  simtime.Duration // RX pipeline hold per packet
	AckOccupancy simtime.Duration // RX pipeline hold for a pure ACK/NAK

	// Penalties applied when the QP lives on a virtual function.
	VFDataPenalty simtime.Duration // added to TxLatency and RxLatency

	// IOMMU cost per packet on both pipelines when the function's traffic
	// passes a DMA-remapping unit (SR-IOV passthrough; MasQ avoids it).
	IOMMUOccupancy simtime.Duration

	// Control path.
	VerbCost          [numVerbs]simtime.Duration // host (PF) cost per verb
	VFControlFactor   float64                    // multiplier for control verbs on a VF
	RegMRPerPage      simtime.Duration           // pinning cost per 4 KiB page past the first
	ResetKernel       simtime.Duration           // Fig. 18: kernel routine share of modify_qp(ERR)
	ResetRNICPF       simtime.Duration           // Fig. 18: RNIC share on PF, idle
	ResetRNICVF       simtime.Duration           // Fig. 18: RNIC share on VF, idle
	ResetTrafficExtra simtime.Duration           // Fig. 18: additional RNIC share under heavy traffic

	// MaxInline bounds IBV_SEND_INLINE payloads (CX-3: ~912 bytes).
	MaxInline int

	// RC transport.
	MaxInflight    int              // per-QP window, packets
	RetransTimeout simtime.Duration // go-back-N timeout
	MaxRetry       int              // transport retries before the QP errors out
	RNRTimer       simtime.Duration // wait after an RNR NAK

	// Resource limits.
	MaxVFs int // non-ARI PCIe exposes 8 VFs (Table 5)

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

// DefaultParams returns the CX-3-calibrated parameter set.
func DefaultParams() Params {
	p := Params{
		MTU:      4096,
		LineRate: 40e9,

		TxLatency: simtime.Us(0.25),
		RxLatency: simtime.Us(0.08),
		RxCQE:     simtime.Us(0.02),
		AckProc:   simtime.Us(0.05),

		TxOccupancy:  simtime.Us(0.090), // ≈9.7 M messages/s small-message ceiling
		RxOccupancy:  simtime.Us(0.085),
		AckOccupancy: simtime.Us(0.018), // ACKs are handled in a fast hardware path

		VFDataPenalty:  simtime.Us(0.15),
		IOMMUOccupancy: simtime.Us(0.012),

		VFControlFactor:   2.35, // 0.8 ms → 1.9 ms connection setup (Fig. 15a)
		RegMRPerPage:      simtime.Us(0.4),
		ResetKernel:       simtime.Us(100),
		ResetRNICPF:       simtime.Us(153),
		ResetRNICVF:       simtime.Us(418),
		ResetTrafficExtra: simtime.Us(320),

		MaxInline:      912,
		MaxInflight:    128,
		RetransTimeout: simtime.Ms(4),
		MaxRetry:       7,
		RNRTimer:       simtime.Us(100),

		MaxVFs: 8,
	}
	us := func(v float64) simtime.Duration { return simtime.Us(v) }
	p.VerbCost = [numVerbs]simtime.Duration{
		VerbGetDeviceList: us(396),
		VerbOpenDevice:    us(1115),
		VerbAllocPD:       us(3),
		VerbRegMR:         us(78),
		VerbCreateCQ:      us(266),
		VerbCreateQP:      us(76),
		VerbQueryGID:      us(22),
		VerbModifyQPInit:  us(231),
		VerbModifyQPRTR:   us(62),
		VerbModifyQPRTS:   us(73),
		VerbPostSend:      us(0.2),
		VerbPostRecv:      us(0.2),
		VerbPollCQ:        us(0.03),
		VerbCreateSRQ:     us(85), // not in Table 1; sized like create_qp
		VerbDestroySRQ:    us(90),
		VerbDestroyQP:     us(170),
		VerbDestroyCQ:     us(79),
		VerbDeregMR:       us(35),
		VerbDeallocPD:     us(2),
		VerbCloseDevice:   us(16),
	}
	return p
}
