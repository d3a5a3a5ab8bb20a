package rnic

import (
	"errors"
	"fmt"

	"masq/internal/mem"
	"masq/internal/packet"
	"masq/internal/simtime"
)

// Common errors.
var (
	ErrBadState      = errors.New("rnic: invalid QP state for operation")
	ErrBadTransition = errors.New("rnic: invalid QP state transition")
	ErrNoResources   = errors.New("rnic: out of device resources")
	ErrBadAccess     = errors.New("rnic: access violates MR permissions or bounds")
	ErrQueueFull     = errors.New("rnic: work queue full")
)

// QPType selects the transport service.
type QPType int

// Supported transports.
const (
	RC QPType = iota // reliable connection
	UD               // unreliable datagram
)

func (t QPType) String() string {
	if t == RC {
		return "RC"
	}
	return "UD"
}

// State is a QP state (Fig. 5).
type State int

// QP states.
const (
	StateReset State = iota
	StateInit
	StateRTR
	StateRTS
	StateSQD
	StateSQE
	StateError
)

var stateNames = [...]string{"RESET", "INIT", "RTR", "RTS", "SQD", "SQE", "ERROR"}

func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// validTransitions encodes Fig. 5. Any state may move to ERROR, and ERROR
// (or anything else) may be torn down through RESET.
var validTransitions = map[State][]State{
	StateReset: {StateInit},
	StateInit:  {StateRTR},
	StateRTR:   {StateRTS},
	StateRTS:   {StateSQD},
	StateSQD:   {StateRTS, StateSQE},
	StateSQE:   {StateRTS},
}

func transitionAllowed(from, to State) bool {
	if to == StateError || to == StateReset {
		return true
	}
	for _, s := range validTransitions[from] {
		if s == to {
			return true
		}
	}
	return false
}

// CanPostSend reports whether send WRs may be posted in this state
// (Table 2: posting is allowed even in ERROR; the WR flushes).
func (s State) CanPostSend() bool {
	return s == StateRTS || s == StateSQE || s == StateSQD || s == StateError
}

// CanPostRecv reports whether receive WRs may be posted in this state.
func (s State) CanPostRecv() bool {
	return s != StateReset
}

// canTransmit reports whether the hardware may emit packets for the QP.
func (s State) canTransmit() bool { return s == StateRTS }

// canReceive reports whether incoming packets are processed.
func (s State) canReceive() bool {
	return s == StateRTR || s == StateRTS || s == StateSQD || s == StateSQE
}

// Access flags for memory regions.
type Access int

// MR access permissions.
const (
	AccessLocalWrite Access = 1 << iota
	AccessRemoteWrite
	AccessRemoteRead
	AccessRemoteAtomic
)

// WROp is the operation of a send work request.
type WROp int

// Send WR operations.
const (
	WRSend WROp = iota
	WRSendImm
	WRWrite
	WRWriteImm
	WRRead
	WRAtomicFAdd  // 8-byte remote fetch-and-add
	WRAtomicCSwap // 8-byte remote compare-and-swap
)

var wrOpNames = [...]string{"SEND", "SEND_IMM", "WRITE", "WRITE_IMM", "READ", "ATOMIC_FADD", "ATOMIC_CSWAP"}

func (op WROp) String() string {
	if op >= 0 && int(op) < len(wrOpNames) {
		return wrOpNames[op]
	}
	return fmt.Sprintf("WROp(%d)", int(op))
}

// WCStatus is a completion status.
type WCStatus int

// Completion statuses.
const (
	WCSuccess          WCStatus = iota
	WCFlushErr                  // QP entered ERROR; outstanding WRs flushed (Table 2)
	WCRemoteAccessErr           // responder NAKed an rkey/bounds/PD violation
	WCRetryExceeded             // transport retries exhausted
	WCRNRRetryExceeded          // receiver never posted a buffer
	WCRemoteOpErr
)

var wcStatusNames = [...]string{
	"SUCCESS", "WR_FLUSH_ERR", "REM_ACCESS_ERR", "RETRY_EXC_ERR",
	"RNR_RETRY_EXC_ERR", "REM_OP_ERR",
}

func (s WCStatus) String() string {
	if s >= 0 && int(s) < len(wcStatusNames) {
		return wcStatusNames[s]
	}
	return fmt.Sprintf("WCStatus(%d)", int(s))
}

// WC is a work completion (CQE).
type WC struct {
	WRID    uint64
	Status  WCStatus
	Op      WROp
	QPN     uint32
	ByteLen int
	Imm     uint32
	HasImm  bool
	SrcQP   uint32 // UD receive completions
	Recv    bool   // true for receive completions
}

// AddressVector names the remote endpoint of a connection (part of the QPC
// written by modify_qp(RTR)). It is exactly the state RConnrename rewrites.
type AddressVector struct {
	DGID packet.GID
	DIP  packet.IP
	DMAC packet.MAC
	DQPN uint32
}

// SendWR is a send-queue work request.
type SendWR struct {
	WRID       uint64
	Op         WROp
	LocalAddr  uint64 // VA within an MR registered with LKey
	LKey       uint32
	Len        int
	RemoteAddr uint64 // WRITE/READ target
	RKey       uint32
	Imm        uint32
	// Remote, when set on a UD QP, overrides the QP's address vector
	// (datagrams carry their destination per WQE — Sec. 3.3.4).
	Remote *AddressVector
	QKey   uint32 // UD only

	// Unsignaled suppresses the success completion (IBV_SEND_SIGNALED
	// absent): the WR still completes with an error CQE on failure or
	// flush. Used by high-rate RPC servers to reduce polling load.
	Unsignaled bool
	// InlineData, when non-nil, is copied into the WQE at post time
	// (IBV_SEND_INLINE): no MR or LKey is needed, the buffer may be
	// reused immediately, and Len is taken from the slice. Limited to
	// maxInline (912) bytes. SEND and WRITE only.
	InlineData []byte

	// Atomic operands: the addend (FETCH_ADD) or swap value (CMP_SWAP)
	// and, for CMP_SWAP, the expected value. The original 8-byte remote
	// value is scattered to LocalAddr/LKey on completion.
	SwapAdd uint64
	Compare uint64
}

// RecvWR is a receive-queue work request.
type RecvWR struct {
	WRID uint64
	Addr uint64
	LKey uint32
	Len  int
}

// PD is a protection domain.
type PD struct {
	Num uint32
	dev *Device
}

// MR is a registered memory region. VA is the address the application uses
// (its own virtual address space); ext are the host-physical extents the
// device DMAs through — the MTT entry.
type MR struct {
	LKey, RKey uint32
	VA         uint64
	Len        int
	Access     Access
	PD         *PD
	ext        []mem.Extent
}

// contains reports whether [va, va+n) lies within the region.
func (mr *MR) contains(va uint64, n int) bool {
	return va >= mr.VA && va+uint64(n) <= mr.VA+uint64(mr.Len)
}

// dma copies between host physical memory and buf at region offset
// va-mr.VA. dir=true writes into memory.
func (mr *MR) dma(m mem.Memory, va uint64, buf []byte, write bool) error {
	if !mr.contains(va, len(buf)) {
		return fmt.Errorf("%w: [%#x,+%d) outside MR [%#x,+%d)", ErrBadAccess, va, len(buf), mr.VA, mr.Len)
	}
	off := int(va - mr.VA)
	for _, e := range mr.ext {
		if off >= e.Len {
			off -= e.Len
			continue
		}
		n := e.Len - off
		if n > len(buf) {
			n = len(buf)
		}
		var err error
		if write {
			err = m.Write(e.Addr+uint64(off), buf[:n])
		} else {
			err = m.Read(e.Addr+uint64(off), buf[:n])
		}
		if err != nil {
			return err
		}
		buf = buf[n:]
		off = 0
		if len(buf) == 0 {
			return nil
		}
	}
	if len(buf) > 0 {
		return fmt.Errorf("%w: MR extents exhausted", ErrBadAccess)
	}
	return nil
}

// CQ is a completion queue. Completions arrive on an internal queue so
// consumers can either poll (TryPoll) or block (Wait).
type CQ struct {
	Num     uint32
	Cap     int
	dev     *Device
	items   *simtime.Queue[WC]
	dropped int
}

// TryPoll returns one completion without blocking; ok is false if empty.
// The caller is charged the poll_cq verb cost.
func (cq *CQ) TryPoll(p *simtime.Proc) (WC, bool) {
	p.Sleep(cq.dev.pollCost())
	return cq.items.TryGet()
}

// Wait blocks until a completion is available and returns it, charging the
// poll_cq cost once. It models an application spinning on poll_cq without
// simulating each empty poll.
func (cq *CQ) Wait(p *simtime.Proc) WC {
	wc := cq.items.Get(p)
	p.Sleep(cq.dev.pollCost())
	return wc
}

// WaitTimeout is Wait with a deadline.
func (cq *CQ) WaitTimeout(p *simtime.Proc, d simtime.Duration) (WC, bool) {
	wc, ok := cq.items.GetTimeout(p, d)
	if ok {
		p.Sleep(cq.dev.pollCost())
	}
	return wc, ok
}

// Len returns the number of pending completions.
func (cq *CQ) Len() int { return cq.items.Len() }

// OnComplete arms fn to receive the next completion inline in the engine
// loop — the callback-style alternative to Wait. The delivery event fires at
// the same instant a Put would wake a parked Wait, so switching a consumer
// between the two styles does not change the event sequence. The caller is
// responsible for charging PollCost (Wait's trailing Sleep) itself.
func (cq *CQ) OnComplete(fn func(WC)) { cq.items.OnNext(fn) }

// TryGet pops a completion without blocking and without charging any verb
// cost; callback-style consumers pair it with OnComplete exactly as Wait
// pairs its inline dequeue with parking.
func (cq *CQ) TryGet() (WC, bool) { return cq.items.TryGet() }

// PollCost returns the poll_cq verb cost, for callback-style consumers that
// charge it with a timer instead of a process sleep.
func (cq *CQ) PollCost() simtime.Duration { return cq.dev.pollCost() }

// post delivers a completion, dropping it if the CQ is full (a CQ overflow
// is a programming error on real hardware too).
func (cq *CQ) post(wc WC) {
	if cq.items.Len() >= cq.Cap {
		cq.dropped++
		return
	}
	cq.items.Put(wc)
}
