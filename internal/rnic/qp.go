package rnic

import (
	"fmt"

	"masq/internal/packet"
	"masq/internal/simtime"
)

// QP is a queue pair. Send-side transport state (PSNs, window, retries)
// lives here; the device's shared TX/RX pipelines operate on it.
type QP struct {
	Num    uint32
	Type   QPType
	Caps   QPCaps
	PD     *PD
	SendCQ *CQ
	RecvCQ *CQ

	// Source addressing, latched from the function at modify_qp(INIT).
	SGID   packet.GID
	SrcIP  packet.IP
	SrcMAC packet.MAC

	// AV is the remote endpoint, written at modify_qp(RTR). This is the
	// part of the QPC that MasQ's RConnrename rewrites from virtual to
	// physical addresses.
	AV   AddressVector
	QKey uint32

	// FlowTag marks the QP as one flow of a shared host connection
	// (written at RTR, zero otherwise): outbound packets carry the tag in
	// an overlay header on the shared-RoCE port, demuxing flows that
	// multiplex one host connection. LastRxFlowTag records the tag of the
	// most recent tagged arrival (demux observability).
	FlowTag       uint16
	FlowVNI       uint32
	LastRxFlowTag uint16

	dev   *Device
	fn    *Func
	srq   *SRQ // shared receive queue (nil = private RQ)
	state State

	// Requester (send) side.
	sq             []*sendWQE
	txIdx          int    // sq index currently being packetized
	txOff          int    // byte offset within sq[txIdx]
	sndNxt, sndUna uint32 // 24-bit PSNs
	retries        int
	rnrRetries     int
	scheduled      bool
	suspended      bool // migration quiesce: no TX, no retransmit timer
	timerPending   bool
	deadline       simtime.Time
	pausedUntil    simtime.Time
	currentDIP     packet.IP // destination of the frame being built

	// Responder (receive) side.
	rq       []RecvWR
	expPSN   uint32
	msn      uint32
	nakSent  bool
	curRecv  *recvCtx
	curWrite *writeCtx
	// rctx/wctx back curRecv/curWrite: one in-progress message of each kind
	// exists per QP at a time, so the contexts live inline and starting a
	// new message allocates nothing.
	rctx recvCtx
	wctx writeCtx
	// atomicHist caches recent atomic results keyed by PSN so a
	// retransmitted (duplicate) atomic request is answered from history
	// instead of being re-executed — atomics are not idempotent.
	atomicHist map[uint32]uint64
	atomicFIFO []uint32

	// wqeFree pools retired send WQEs.
	wqeFree []*sendWQE
}

type sendWQE struct {
	wr                SendWR
	assigned          bool
	firstPSN, lastPSN uint32
	npkts             int
	readSegs          int // READ: response segments taken so far, in order
}

type recvCtx struct {
	wr  RecvWR
	off int
}

type writeCtx struct {
	mr  *MR
	va  uint64
	off int
}

// State returns the current QP state.
func (qp *QP) State() State { return qp.state }

// Rebind repoints a pooled QP at a new consumer's PD, CQs and caps (MasQ's
// warm QP pool): a host-memory QPC rewrite with no firmware verb, legal
// only while the QP is idle in RESET or INIT with empty work queues.
func (qp *QP) Rebind(pd *PD, scq, rcq *CQ, caps QPCaps) error {
	if qp.state != StateReset && qp.state != StateInit {
		return fmt.Errorf("%w: rebind in %v", ErrBadState, qp.state)
	}
	if len(qp.sq) != 0 || len(qp.rq) != 0 {
		return fmt.Errorf("rnic: rebind of QP %d with queued work", qp.Num)
	}
	qp.PD = pd
	qp.SendCQ = scq
	qp.RecvCQ = rcq
	qp.Caps = caps
	qp.srq = caps.SRQ
	return nil
}

// psnDiff compares 24-bit PSNs: positive when a is ahead of b.
func psnDiff(a, b uint32) int32 {
	d := (a - b) & 0xffffff
	if d >= 1<<23 {
		return int32(d) - 1<<24
	}
	return int32(d)
}

// PostSend models ibv_post_send. Table 2 semantics: posting is allowed in
// ERROR but the WR completes immediately with a flush error.
func (qp *QP) PostSend(p *simtime.Proc, wr SendWR) error {
	p.Sleep(verbCost[VerbPostSend])
	return qp.postSendNow(wr)
}

// PostSendCost returns the post_send verb cost, for callback-style callers
// that charge it with a timer instead of a process sleep.
func (qp *QP) PostSendCost() simtime.Duration { return verbCost[VerbPostSend] }

// PostSendAsync applies a post_send whose verb cost the caller has already
// charged (Timer.ScheduleAfter(PostSendCost()) standing in for PostSend's
// leading Sleep). The queue-state checks and WQE admission are identical to
// PostSend's.
func (qp *QP) PostSendAsync(wr SendWR) error { return qp.postSendNow(wr) }

// postSendNow is PostSend after its verb-cost charge.
func (qp *QP) postSendNow(wr SendWR) error {
	if !qp.state.CanPostSend() {
		return fmt.Errorf("%w: post_send in %v", ErrBadState, qp.state)
	}
	if qp.state == StateError {
		qp.SendCQ.post(WC{WRID: wr.WRID, Status: WCFlushErr, Op: wr.Op, QPN: qp.Num})
		return nil
	}
	if len(qp.sq) >= qp.Caps.MaxSendWR {
		return ErrQueueFull
	}
	if wr.Op == WRAtomicFAdd || wr.Op == WRAtomicCSwap {
		wr.Len = 8 // atomics are always 8 bytes
	}
	if wr.InlineData != nil {
		if len(wr.InlineData) > maxInline {
			return fmt.Errorf("rnic: inline payload of %d bytes exceeds MaxInline %d", len(wr.InlineData), maxInline)
		}
		if wr.Op == WRRead {
			return fmt.Errorf("rnic: RDMA READ cannot be inline")
		}
		wr.Len = len(wr.InlineData)
		// The driver copies at post time; the caller may reuse its buffer.
		wr.InlineData = append([]byte(nil), wr.InlineData...)
	}
	if qp.Type == UD && wr.Len > qp.dev.P.MTU {
		return fmt.Errorf("rnic: UD message of %d bytes exceeds MTU %d", wr.Len, qp.dev.P.MTU)
	}
	var w *sendWQE
	if n := len(qp.wqeFree); n > 0 {
		w = qp.wqeFree[n-1]
		qp.wqeFree[n-1] = nil
		qp.wqeFree = qp.wqeFree[:n-1]
		*w = sendWQE{wr: wr}
	} else {
		w = &sendWQE{wr: wr}
	}
	qp.sq = append(qp.sq, w)
	qp.kick()
	return nil
}

// PostRecv models ibv_post_recv (allowed in every state but RESET;
// flushes immediately in ERROR — Table 2). QPs attached to an SRQ have no
// private receive queue.
func (qp *QP) PostRecv(p *simtime.Proc, wr RecvWR) error {
	p.Sleep(verbCost[VerbPostRecv])
	if qp.srq != nil {
		return fmt.Errorf("rnic: QP %d uses an SRQ; post to the SRQ instead", qp.Num)
	}
	if !qp.state.CanPostRecv() {
		return fmt.Errorf("%w: post_recv in %v", ErrBadState, qp.state)
	}
	if qp.state == StateError {
		qp.RecvCQ.post(WC{WRID: wr.WRID, Status: WCFlushErr, QPN: qp.Num, Recv: true})
		return nil
	}
	if len(qp.rq) >= qp.Caps.MaxRecvWR {
		return ErrQueueFull
	}
	qp.rq = append(qp.rq, wr)
	return nil
}

// takeRecvWQE pops the next receive WQE from the private RQ or the SRQ.
// Like popHeadSQ it slides the rest down a slot instead of reslicing, so
// PostRecv's append keeps reusing the queue's backing array.
func (qp *QP) takeRecvWQE() (RecvWR, bool) {
	rq := &qp.rq
	if qp.srq != nil {
		rq = &qp.srq.rq
	}
	q := *rq
	if len(q) == 0 {
		return RecvWR{}, false
	}
	wr := q[0]
	*rq = q[:copy(q, q[1:])]
	return wr, true
}

// hasRecvWQE reports whether a receive WQE is available.
func (qp *QP) hasRecvWQE() bool {
	if qp.srq != nil {
		return len(qp.srq.rq) > 0
	}
	return len(qp.rq) > 0
}

// hasWork reports whether the send side has packets it may emit now.
func (qp *QP) hasWork() bool {
	if qp.txIdx >= len(qp.sq) {
		return false
	}
	return psnDiff(qp.sndNxt, qp.sndUna) < int32(maxInflight)
}

// busy reports whether the QP has unfinished send-side work (used by the
// Fig. 18 reset-cost model).
func (qp *QP) busy() bool {
	return len(qp.sq) > 0 || psnDiff(qp.sndNxt, qp.sndUna) > 0
}

// Suspend quiesces the QP's requester side: no packets are emitted and
// the retransmission timer is disarmed until Resume. The responder side
// keeps working. A controller Suspend push sets this on every peer QP of
// a migrating VM so a blackout longer than MaxRetry×RetransTimeout does
// not kill the connection through retry exhaustion.
func (qp *QP) Suspend() { qp.suspended = true }

// Suspended reports whether the QP is migration-quiesced.
func (qp *QP) Suspended() bool { return qp.suspended }

// Resume lifts a suspension. With replay set, transmission restarts from
// the first unacknowledged PSN — the go-back-N replay of the in-flight
// window — without charging a transport retry: those packets were lost to
// a planned blackout, not the network.
func (qp *QP) Resume(replay bool) {
	qp.suspended = false
	if replay && psnDiff(qp.sndNxt, qp.sndUna) > 0 {
		qp.seekTo(qp.sndUna)
		qp.retries = 0
	}
	qp.armTimer()
	qp.kick()
}

// kick schedules the QP on the device TX pipeline if it has work.
func (qp *QP) kick() {
	if qp.scheduled || qp.suspended || !qp.state.canTransmit() || !qp.hasWork() {
		return
	}
	qp.scheduled = true
	qp.dev.txActive.Put(qp)
}

// kickAt re-arms the QP at a future instant (RNR backoff, rate limiting).
func (qp *QP) kickAt(t simtime.Time) {
	qp.dev.eng.At(t, func() { qp.kick() })
}

// clear drops all transport state (modify to RESET).
func (qp *QP) clear() {
	qp.sq = nil
	qp.rq = nil
	qp.txIdx, qp.txOff = 0, 0
	qp.sndNxt, qp.sndUna = 0, 0
	qp.expPSN, qp.msn = 0, 0
	qp.retries, qp.rnrRetries = 0, 0
	qp.curRecv, qp.curWrite = nil, nil
	qp.atomicHist, qp.atomicFIFO = nil, nil
	qp.nakSent = false
	qp.deadline = 0
}

// flush completes all outstanding work requests with WR_FLUSH_ERR
// (Table 2: "flushed with error").
func (qp *QP) flush() {
	for _, w := range qp.sq {
		qp.SendCQ.post(WC{WRID: w.wr.WRID, Status: WCFlushErr, Op: w.wr.Op, QPN: qp.Num})
	}
	qp.sq = nil
	qp.txIdx, qp.txOff = 0, 0
	if qp.curRecv != nil {
		qp.RecvCQ.post(WC{WRID: qp.curRecv.wr.WRID, Status: WCFlushErr, QPN: qp.Num, Recv: true})
		qp.curRecv = nil
	}
	for _, w := range qp.rq {
		qp.RecvCQ.post(WC{WRID: w.WRID, Status: WCFlushErr, QPN: qp.Num, Recv: true})
	}
	qp.rq = nil
	qp.deadline = 0
}

// enterError moves the QP to ERROR from within the transport engine (e.g.
// retry exhaustion), completing the head WQE with status and flushing the
// rest. This is the hardware-initiated path of Fig. 5's dashed arrows.
// A completion carrying the cause is delivered even when the SQ is empty
// (an app polling the CQ must never wait forever on a dead QP), and
// exactly one EventQPFatal is raised per visit to ERROR.
func (qp *QP) enterError(status WCStatus) {
	if qp.state == StateError {
		return
	}
	if len(qp.sq) > 0 {
		head := qp.sq[0]
		qp.SendCQ.post(WC{WRID: head.wr.WRID, Status: status, Op: head.wr.Op, QPN: qp.Num})
		qp.popHeadSQ()
	} else {
		// No WQE to blame: synthesize a completion (WRID 0) so the error
		// is still observable on the send CQ.
		qp.SendCQ.post(WC{Status: status, QPN: qp.Num})
	}
	qp.state = StateError
	qp.flush()
	qp.dev.raiseAsync(AsyncEvent{Type: EventQPFatal, QPN: qp.Num, Status: status})
}

// rememberAtomic records an executed atomic's result for duplicate
// replay, bounded like a real HCA's responder resources.
func (qp *QP) rememberAtomic(psn uint32, orig uint64) {
	const depth = 16
	if qp.atomicHist == nil {
		qp.atomicHist = make(map[uint32]uint64, depth)
	}
	qp.atomicHist[psn] = orig
	qp.atomicFIFO = append(qp.atomicFIFO, psn)
	if len(qp.atomicFIFO) > depth {
		delete(qp.atomicHist, qp.atomicFIFO[0])
		qp.atomicFIFO = qp.atomicFIFO[1:]
	}
}

// retire completes acknowledged WQEs up to cumulative PSN ack.
func (qp *QP) retire(ack uint32) {
	progress := false
	for len(qp.sq) > 0 {
		w := qp.sq[0]
		if !w.assigned || psnDiff(w.lastPSN, ack) > 0 {
			break
		}
		if w.wr.Op == WRRead && w.readSegs < w.npkts {
			break // reads complete via response data, not acks
		}
		qp.completeHead(w)
		progress = true
	}
	if psnDiff(ack+1, qp.sndUna) > 0 {
		qp.sndUna = (ack + 1) & 0xffffff
		progress = true
	}
	if progress {
		qp.retries = 0
		qp.rnrRetries = 0
		qp.armTimer()
		qp.kick()
	}
}

// popHeadSQ removes the head WQE by sliding the tail down one slot. Unlike
// reslicing (sq = sq[1:]), this keeps the backing array anchored, so
// postSendNow's append reuses the same capacity forever instead of
// reallocating every time the window's worth of dead front fills up.
func (qp *QP) popHeadSQ() {
	n := len(qp.sq) - 1
	copy(qp.sq, qp.sq[1:])
	qp.sq[n] = nil
	qp.sq = qp.sq[:n]
}

func (qp *QP) completeHead(w *sendWQE) {
	if !w.wr.Unsignaled {
		qp.SendCQ.post(WC{WRID: w.wr.WRID, Status: WCSuccess, Op: w.wr.Op, QPN: qp.Num, ByteLen: w.wr.Len})
	}
	qp.popHeadSQ()
	if qp.txIdx > 0 {
		qp.txIdx--
	} else {
		// The head was being sent again after a rewind; it is gone now, so
		// sending resumes at the next WQE, whose PSNs follow the head's.
		qp.txOff = 0
		qp.sndNxt = (w.lastPSN + 1) & 0xffffff
	}
	*w = sendWQE{}
	qp.wqeFree = append(qp.wqeFree, w)
}

// rewind restarts transmission from PSN from (go-back-N).
func (qp *QP) rewind(from uint32) {
	qp.dev.Stats.Retransmits++
	qp.retries++
	if qp.retries > qp.dev.P.MaxRetry {
		qp.enterError(WCRetryExceeded)
		return
	}
	if qp.seekTo(from) {
		qp.armTimer()
		qp.kick()
	}
}

// seekTo repositions the send engine to resume at PSN from, reporting
// whether there was anything to resend (false when the ack point raced
// ahead, in which case the engine resets to the tail).
func (qp *QP) seekTo(from uint32) bool {
	for i, w := range qp.sq {
		if !w.assigned {
			break
		}
		if psnDiff(w.lastPSN, from) >= 0 {
			qp.txIdx = i
			if w.wr.Op == WRRead {
				qp.txOff = 0 // re-issue the read request
				from = w.firstPSN
			} else {
				qp.txOff = int(psnDiff(from, w.firstPSN)) * qp.dev.P.MTU
			}
			qp.sndNxt = from
			return true
		}
	}
	// Nothing to resend.
	qp.sndNxt = qp.sndUna
	return false
}

// readGap returns the first response the READ at the head of the send
// queue still waits for, and whether the ack point has passed it. An ACK
// for a later request, or a later READ's response, can overtake a lost
// response, and the READ must still be re-issued.
func (qp *QP) readGap() (uint32, bool) {
	if len(qp.sq) == 0 {
		return 0, false
	}
	w := qp.sq[0]
	if !w.assigned || w.wr.Op != WRRead || w.readSegs == w.npkts {
		return 0, false
	}
	miss := (w.firstPSN + uint32(w.readSegs)) & 0xffffff
	return miss, psnDiff(qp.sndUna, miss) > 0
}

// outstanding reports whether the requester waits for an acknowledgement:
// a sent PSN not yet acked, or a READ response the ack point has passed.
func (qp *QP) outstanding() bool {
	if psnDiff(qp.sndNxt, qp.sndUna) > 0 {
		return true
	}
	_, gap := qp.readGap()
	return gap
}

// armTimer pushes the retransmission deadline out. A single callback chain
// per QP tracks the moving deadline, so arming per packet is cheap.
func (qp *QP) armTimer() {
	if !qp.outstanding() {
		qp.deadline = 0
		return
	}
	qp.deadline = qp.dev.eng.Now().Add(qp.dev.P.RetransTimeout)
	if !qp.timerPending {
		qp.timerPending = true
		qp.dev.eng.After(qp.dev.P.RetransTimeout, qp.timerFired)
	}
}

func (qp *QP) timerFired() {
	qp.timerPending = false
	if qp.suspended || qp.state != StateRTS || qp.deadline == 0 || !qp.outstanding() {
		return
	}
	now := qp.dev.eng.Now()
	if now < qp.deadline {
		qp.timerPending = true
		qp.dev.eng.At(qp.deadline, qp.timerFired)
		return
	}
	if miss, gap := qp.readGap(); gap {
		qp.rewind(miss)
		return
	}
	qp.rewind(qp.sndUna)
}
