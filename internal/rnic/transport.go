package rnic

import (
	"encoding/binary"

	"masq/internal/packet"
	"masq/internal/simnet"
	"masq/internal/simtime"
)

// tokenBucket is a byte-rate limiter (bits internally).
type tokenBucket struct {
	rate   float64 // bits per second
	burst  float64 // bits
	tokens float64
	last   simtime.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

// tryTake consumes bits if available; otherwise it reports how long until
// they will be.
func (tb *tokenBucket) tryTake(now simtime.Time, bits float64) (bool, simtime.Duration) {
	elapsed := float64(now-tb.last) / 1e9
	tb.tokens += elapsed * tb.rate
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = now
	if tb.tokens >= bits {
		tb.tokens -= bits
		return true, 0
	}
	wait := (bits - tb.tokens) / tb.rate * 1e9
	return false, simtime.Duration(wait) + 1
}

// wireTime is the serialization time of n bytes at line rate.
func (d *Device) wireTime(n int) simtime.Duration {
	return simtime.Duration(float64(n*8) / d.P.LineRate * 1e9)
}

// emit puts a frame on the wire — or hairpins it back into the device's
// own ingress when the destination is local (RDMA loopback between QPs on
// the same host, which modern RNICs switch internally).
func (d *Device) emit(dip packet.IP, frame simnet.Frame) {
	for _, f := range d.funcs {
		if f.IP == dip {
			pkt, err := d.pktPool.Decode(frame)
			if err != nil {
				d.Stats.Dropped++
				return
			}
			d.Ingress.Put(pkt)
			return
		}
	}
	d.port.Send(frame)
}

// txService is the device's send pipeline: it round-robins across QPs with
// pending work, emitting one packet per turn. The per-packet pipeline
// occupancy (or the wire time, whichever is larger) bounds both the
// message rate and the emitted bandwidth; QP-fair round-robin yields the
// equal sharing seen in Fig. 11.
//
// The pipeline is a callback state machine running inline in the engine
// loop: txService claims the pipeline for one packet's occupancy, and
// txPktDone emits the packet and takes the next scheduled QP. Skipped QPs
// (no work, paused, rate-limited) are drained without leaving the current
// event.
func (d *Device) txService(qp *QP) {
	for {
		if d.txStep(qp) {
			return // pipeline busy; txPktDone continues
		}
		var ok bool
		qp, ok = d.txActive.TryGet()
		if !ok {
			d.txActive.OnNext(d.txServe)
			return
		}
	}
}

// txStep tries to start transmitting qp's next packet. It reports whether
// the pipeline went busy (a continuation is scheduled).
func (d *Device) txStep(qp *QP) bool {
	if qp.dev != d {
		return false // stale entry: the QP migrated to another device
	}
	qp.scheduled = false
	if qp.suspended || !qp.state.canTransmit() || !qp.hasWork() {
		return false
	}
	now := d.eng.Now()
	if qp.pausedUntil > now {
		qp.kickAt(qp.pausedUntil)
		return false
	}
	if lim := qp.fn.limiter; lim != nil {
		est := qp.peekNextPacketSize()
		if allowed, wait := lim.tryTake(now, float64(est*8)); !allowed {
			qp.kickAt(now.Add(wait))
			return false
		}
	}
	frame, bytes, ok := qp.buildNextPacket()
	if !ok {
		return false
	}
	occ := txOccupancy + d.ctxLookup(qp.Num)
	if qp.fn.IOMMU {
		occ += iommuOccupancy
	}
	if wt := d.wireTime(bytes); wt > occ {
		occ = wt
	}
	d.txQP, d.txFrame, d.txOcc = qp, frame, occ
	d.txPktDone.ScheduleAfter(occ)
	return true
}

// txDone runs when the in-flight packet's pipeline occupancy elapses: the
// frame leaves toward the wire after the remaining latency, the QP re-arms,
// and the pipeline moves to the next scheduled QP.
func (d *Device) txDone() {
	qp, frame, occ := d.txQP, d.txFrame, d.txOcc
	d.txQP, d.txFrame = nil, nil

	lat := txLatencyPF
	if qp.fn.IsVF() {
		lat += vfDataPenalty
	}
	rem := lat - occ
	if rem < 0 {
		rem = 0
	}
	d.emitAfter(rem, qp.currentDIP, frame, true)
	qp.armTimer()
	qp.kick()

	if next, ok := d.txActive.TryGet(); ok {
		d.txService(next)
		return
	}
	d.txActive.OnNext(d.txServe)
}

// buildNextPacket assembles the next wire frame for the QP's head WQE,
// gathering payload bytes from host memory through the MR. It returns the
// frame and its length, or ok=false if the WQE faulted (the QP has been
// moved to ERROR).
func (qp *QP) buildNextPacket() (simnet.Frame, int, bool) {
	d := qp.dev
	w := qp.sq[qp.txIdx]
	if !w.assigned {
		w.firstPSN = qp.sndNxt
		w.npkts = (w.wr.Len + d.P.MTU - 1) / d.P.MTU
		if w.npkts == 0 {
			w.npkts = 1
		}
		w.lastPSN = (w.firstPSN + uint32(w.npkts) - 1) & 0xffffff
		w.assigned = true
	}

	psn := qp.sndNxt
	var chunkLen int

	// Assemble into the device's scratch encoder; Serialize copies
	// everything out before the scratch is reused. A flow-tagged QP
	// (shared-connection mode) puts the overlay header carrying the tag
	// between UDP and the transport headers.
	av := &qp.AV
	if qp.Type == UD && w.wr.Remote != nil {
		av = w.wr.Remote
	}
	enc := &d.enc
	layers := enc.start(qp, av)
	if qp.FlowTag != 0 {
		enc.udp.DstPort = packet.PortRoCEShared
		enc.vx = packet.VXLAN{VNI: qp.FlowVNI, FlowTag: qp.FlowTag}
		layers = append(layers, &enc.vx)
	}

	switch w.wr.Op {
	case WRRead:
		// One request packet; the PSN range covers the expected responses.
		enc.bth = packet.BTH{OpCode: packet.OpReadRequest, DestQP: qp.AV.DQPN, PSN: psn, AckReq: true}
		enc.reth = packet.RETH{VA: w.wr.RemoteAddr, RKey: w.wr.RKey, DMALen: uint32(w.wr.Len)}
		layers = append(layers, &enc.bth, &enc.reth)
		qp.txOff = w.wr.Len // request fully issued
		qp.sndNxt = (w.firstPSN + uint32(w.npkts)) & 0xffffff
	case WRAtomicFAdd, WRAtomicCSwap:
		op := packet.OpFetchAdd
		if w.wr.Op == WRAtomicCSwap {
			op = packet.OpCompareSwap
		}
		enc.bth = packet.BTH{OpCode: op, DestQP: qp.AV.DQPN, PSN: psn, AckReq: true}
		enc.ae = packet.AtomicETH{VA: w.wr.RemoteAddr, RKey: w.wr.RKey, SwapAdd: w.wr.SwapAdd, Compare: w.wr.Compare}
		layers = append(layers, &enc.bth, &enc.ae)
		qp.txOff = w.wr.Len
		qp.sndNxt = (qp.sndNxt + 1) & 0xffffff
	default:
		chunkLen = w.wr.Len - qp.txOff
		if chunkLen > d.P.MTU {
			chunkLen = d.P.MTU
		}
		var payload []byte
		if chunkLen > 0 {
			if w.wr.InlineData != nil {
				payload = w.wr.InlineData[qp.txOff : qp.txOff+chunkLen]
			} else {
				payload = enc.payloadBuf(chunkLen)
				mr := d.mrs[w.wr.LKey]
				if mr == nil || mr.PD != qp.PD || mr.dma(d.hostMem, w.wr.LocalAddr+uint64(qp.txOff), payload, false) != nil {
					qp.enterError(WCRemoteOpErr)
					return nil, 0, false
				}
			}
		}
		first := qp.txOff == 0
		last := qp.txOff+chunkLen >= w.wr.Len
		op := rcOpcode(w.wr, qp.Type, first, last)
		// Request an ACK on the final packet and periodically inside long
		// messages so the inflight window keeps draining.
		ackReq := qp.Type == RC && (last || (qp.txOff/d.P.MTU)%ackEvery == ackEvery-1)
		enc.bth = packet.BTH{OpCode: op, DestQP: qp.AV.DQPN, PSN: psn, AckReq: ackReq}
		layers = append(layers, &enc.bth)
		if qp.Type == UD {
			enc.deth = packet.DETH{QKey: w.wr.QKey, SrcQP: qp.Num}
			layers = append(layers, &enc.deth)
		}
		if (w.wr.Op == WRWrite || w.wr.Op == WRWriteImm) && first {
			enc.reth = packet.RETH{VA: w.wr.RemoteAddr, RKey: w.wr.RKey, DMALen: uint32(w.wr.Len)}
			layers = append(layers, &enc.reth)
		}
		if op.HasImmediate() {
			enc.imm = packet.ImmDt{Value: w.wr.Imm}
			layers = append(layers, &enc.imm)
		}
		if chunkLen > 0 {
			// *Payload avoids boxing the slice header per packet; Payload's
			// value-receiver methods promote to the pointer.
			enc.pay = packet.Payload(payload)
			layers = append(layers, &enc.pay)
		}
		qp.txOff += chunkLen
		qp.sndNxt = (qp.sndNxt + 1) & 0xffffff
		if qp.Type == UD {
			// Unacknowledged service: complete at emission.
			wrID, op2, l := w.wr.WRID, w.wr.Op, w.wr.Len
			d.eng.After(txLatencyPF, func() {
				qp.SendCQ.post(WC{WRID: wrID, Status: WCSuccess, Op: op2, QPN: qp.Num, ByteLen: l})
			})
		}
	}

	if qp.txOff >= w.wr.Len {
		qp.txIdx++
		qp.txOff = 0
		if qp.Type == UD {
			qp.sq = append(qp.sq[:qp.txIdx-1], qp.sq[qp.txIdx:]...)
			qp.txIdx--
			qp.sndUna = qp.sndNxt
		}
		d.Stats.TxMsgs++
	}

	qp.currentDIP = av.DIP
	frame := packet.Serialize(layers...)
	return simnet.Frame(frame), len(frame), true
}

// ackEvery is the mid-message ACK request period, in packets.
const ackEvery = 16

// roceOverhead is the fixed wire overhead of a RoCEv2 data packet:
// Ethernet(14) + IPv4(20) + UDP(8) + BTH(12) + ICRC(4), plus slack for
// RETH/DETH/ImmDt. Used only for rate-limiter estimation.
const roceOverhead = 74

// peekNextPacketSize estimates the wire size of the packet buildNextPacket
// would emit, without side effects.
func (qp *QP) peekNextPacketSize() int {
	w := qp.sq[qp.txIdx]
	if w.wr.Op == WRRead {
		return roceOverhead
	}
	chunk := w.wr.Len - qp.txOff
	if chunk > qp.dev.P.MTU {
		chunk = qp.dev.P.MTU
	}
	return chunk + roceOverhead
}

func (qp *QP) findWQE(psn uint32) *sendWQE {
	for _, w := range qp.sq {
		if !w.assigned {
			return nil
		}
		if psnDiff(psn, w.firstPSN) >= 0 && psnDiff(w.lastPSN, psn) >= 0 {
			return w
		}
	}
	return nil
}

// rcOpcode selects the BTH opcode for a chunk.
func rcOpcode(wr SendWR, typ QPType, first, last bool) packet.OpCode {
	if typ == UD {
		if wr.Op == WRSendImm {
			return packet.OpUDSendOnlyImm
		}
		return packet.OpUDSendOnly
	}
	switch wr.Op {
	case WRSend, WRSendImm:
		switch {
		case first && last:
			if wr.Op == WRSendImm {
				return packet.OpSendOnlyImm
			}
			return packet.OpSendOnly
		case first:
			return packet.OpSendFirst
		case last:
			if wr.Op == WRSendImm {
				return packet.OpSendLastImm
			}
			return packet.OpSendLast
		default:
			return packet.OpSendMiddle
		}
	case WRWrite, WRWriteImm:
		switch {
		case first && last:
			if wr.Op == WRWriteImm {
				return packet.OpWriteOnlyImm
			}
			return packet.OpWriteOnly
		case first:
			return packet.OpWriteFirst
		case last:
			if wr.Op == WRWriteImm {
				return packet.OpWriteLastImm
			}
			return packet.OpWriteLast
		default:
			return packet.OpWriteMiddle
		}
	}
	return packet.OpSendOnly
}

// rxService is the device's receive pipeline, a callback state machine:
// each packet occupies the pipeline for its processing occupancy, then
// rxPktDone dispatches it to the transport handlers and takes the next
// queued arrival. Malformed or unroutable packets are dropped inline
// without occupying the pipeline, exactly as the process version did.
func (d *Device) rxService(pkt *packet.Packet) {
	for {
		if d.rxStep(pkt) {
			return // pipeline busy; rxPktDone continues
		}
		var ok bool
		pkt, ok = d.Ingress.TryGet()
		if !ok {
			d.Ingress.OnNext(d.rxServe)
			return
		}
	}
}

// rxStep starts processing pkt, reporting whether the pipeline went busy.
func (d *Device) rxStep(pkt *packet.Packet) bool {
	bth := pkt.BTH()
	if bth == nil {
		d.Stats.Dropped++
		pkt.Release()
		return false
	}
	qp := d.qpLookup(bth.DestQP)
	if qp == nil {
		d.Stats.Dropped++
		pkt.Release()
		return false
	}
	var occ simtime.Duration
	if bth.OpCode == packet.OpAcknowledge {
		occ = ackOccupancy // no DMA, no context fetch beyond the QPC
	} else {
		occ = rxOccupancy + d.ctxLookup(qp.Num)
		if qp.fn.IOMMU {
			occ += iommuOccupancy
		}
	}
	d.rxPkt, d.rxQP = pkt, qp
	d.rxPktDone.ScheduleAfter(occ)
	return true
}

// rxDone dispatches the packet whose pipeline occupancy just elapsed.
func (d *Device) rxDone() {
	pkt, qp := d.rxPkt, d.rxQP
	d.rxPkt, d.rxQP = nil, nil
	d.Stats.RxPackets++
	d.Stats.RxBytes += uint64(len(pkt.Payload))
	if u := pkt.UDP(); u != nil && u.DstPort == packet.PortRoCEShared {
		if vx := pkt.VXLAN(); vx != nil && vx.FlowTag != 0 {
			d.Stats.TaggedRx++
			qp.LastRxFlowTag = vx.FlowTag
		}
	}

	op := pkt.BTH().OpCode
	switch {
	case op == packet.OpAcknowledge:
		d.handleAck(qp, pkt)
	case op == packet.OpAtomicAcknowledge:
		d.handleAtomicAck(qp, pkt)
	case op.IsReadResponse():
		d.handleReadResponse(qp, pkt)
	default:
		d.handleRequest(qp, pkt)
	}
	// Every handler copies what it keeps (payloads via DMA, header fields
	// by value), so the packet's arena can be recycled here.
	pkt.Release()

	if next, ok := d.Ingress.TryGet(); ok {
		d.rxService(next)
		return
	}
	d.Ingress.OnNext(d.rxServe)
}

// rxLatency is the wire→memory latency for this QP's function.
func (d *Device) rxLatency(qp *QP) simtime.Duration {
	lat := rxLatencyPF
	if qp.fn.IsVF() {
		lat += vfDataPenalty
	}
	return lat
}

// sendAck emits an ACK/NAK from responder qp back to its requester.
func (d *Device) sendAck(qp *QP, syndrome byte, psn uint32) {
	if syndrome != packet.AckSyndromeACK {
		if syndrome&0xe0 == packet.AckSyndromeRNRNAK {
			d.Stats.RNRsSent++
		} else {
			d.Stats.NAKsSent++
		}
	}
	enc := &d.enc
	enc.bth = packet.BTH{OpCode: packet.OpAcknowledge, DestQP: qp.AV.DQPN, PSN: psn}
	enc.aeth = packet.AETH{Syndrome: syndrome, MSN: qp.msn}
	frame := packet.Serialize(append(enc.start(qp, &qp.AV), &enc.bth, &enc.aeth)...)
	d.emitAfter(d.rxLatency(qp), qp.AV.DIP, simnet.Frame(frame), false)
}

// handleRequest is the responder path for SEND/WRITE/READ requests.
func (d *Device) handleRequest(qp *QP, pkt *packet.Packet) {
	if !qp.state.canReceive() {
		d.Stats.Dropped++ // Table 2: incoming packets dropped in ERROR
		return
	}
	bth := pkt.BTH()
	if qp.Type == UD {
		d.handleUD(qp, pkt)
		return
	}

	diff := psnDiff(bth.PSN, qp.expPSN)
	switch {
	case diff < 0:
		// Duplicate from a go-back-N rewind. Atomic duplicates are
		// answered from the response history — re-executing would
		// double-apply them. A READ is idempotent and its responses are
		// its only acknowledgement, so a duplicate is executed again;
		// everything else is simply re-acked.
		if bth.OpCode.IsAtomic() {
			if orig, ok := qp.atomicHist[bth.PSN]; ok {
				d.sendAtomicAck(qp, bth.PSN, orig)
			}
			return
		}
		if bth.OpCode == packet.OpReadRequest {
			d.handleReadRequest(qp, pkt, true)
			return
		}
		if bth.AckReq || bth.OpCode.IsLast() {
			d.sendAck(qp, packet.AckSyndromeACK, (qp.expPSN-1)&0xffffff)
		}
		return
	case diff > 0:
		if !qp.nakSent {
			qp.nakSent = true
			d.sendAck(qp, packet.AckSyndromeNAK|packet.NakPSNSequenceError, (qp.expPSN-1)&0xffffff)
		}
		return
	}
	qp.nakSent = false

	op := bth.OpCode
	switch {
	case op.IsSend():
		d.handleSendChunk(qp, pkt)
	case op.IsWrite():
		d.handleWriteChunk(qp, pkt)
	case op == packet.OpReadRequest:
		d.handleReadRequest(qp, pkt, false)
	case op.IsAtomic():
		d.handleAtomic(qp, pkt)
	default:
		d.Stats.Dropped++
	}
}

// handleAtomic executes a FETCH_ADD or COMPARE_SWAP at the responder: an
// aligned 8-byte read-modify-write through the MR, with the original value
// returned and remembered for duplicate requests.
func (d *Device) handleAtomic(qp *QP, pkt *packet.Packet) {
	bth, ae := pkt.BTH(), pkt.AtomicETH()
	if ae == nil {
		d.sendAck(qp, packet.AckSyndromeNAK|packet.NakInvalidRequest, (qp.expPSN-1)&0xffffff)
		return
	}
	mr := d.mrs[ae.RKey]
	if mr == nil || mr.PD != qp.PD || mr.Access&AccessRemoteAtomic == 0 ||
		!mr.contains(ae.VA, 8) || ae.VA%8 != 0 {
		d.sendAck(qp, packet.AckSyndromeNAK|packet.NakRemoteAccessError, (qp.expPSN-1)&0xffffff)
		return
	}
	var buf [8]byte
	if mr.dma(d.hostMem, ae.VA, buf[:], false) != nil {
		d.sendAck(qp, packet.AckSyndromeNAK|packet.NakRemoteOperationErr, (qp.expPSN-1)&0xffffff)
		return
	}
	orig := binary.BigEndian.Uint64(buf[:])
	var updated uint64
	if bth.OpCode == packet.OpFetchAdd {
		updated = orig + ae.SwapAdd
	} else if orig == ae.Compare {
		updated = ae.SwapAdd
	} else {
		updated = orig // failed compare leaves memory untouched
	}
	binary.BigEndian.PutUint64(buf[:], updated)
	if mr.dma(d.hostMem, ae.VA, buf[:], true) != nil {
		d.sendAck(qp, packet.AckSyndromeNAK|packet.NakRemoteOperationErr, (qp.expPSN-1)&0xffffff)
		return
	}
	qp.expPSN = (qp.expPSN + 1) & 0xffffff
	qp.msn = (qp.msn + 1) & 0xffffff
	d.Stats.RxMsgs++
	qp.rememberAtomic(bth.PSN, orig)
	d.sendAtomicAck(qp, bth.PSN, orig)
}

// sendAtomicAck emits the atomic response carrying the original value.
func (d *Device) sendAtomicAck(qp *QP, psn uint32, orig uint64) {
	enc := &d.enc
	enc.bth = packet.BTH{OpCode: packet.OpAtomicAcknowledge, DestQP: qp.AV.DQPN, PSN: psn}
	enc.aeth = packet.AETH{Syndrome: packet.AckSyndromeACK, MSN: qp.msn}
	enc.aaeth = packet.AtomicAckETH{Orig: orig}
	frame := packet.Serialize(append(enc.start(qp, &qp.AV), &enc.bth, &enc.aeth, &enc.aaeth)...)
	d.emitAfter(d.rxLatency(qp), qp.AV.DIP, simnet.Frame(frame), false)
}

// handleAtomicAck completes the requester's atomic WQE: the original value
// lands in the WR's local buffer, then the WQE retires like an acked send.
func (d *Device) handleAtomicAck(qp *QP, pkt *packet.Packet) {
	aa := pkt.AtomicAckETH()
	if aa == nil || qp.state == StateError || qp.state == StateReset {
		return
	}
	bth := pkt.BTH()
	w := qp.findWQE(bth.PSN)
	if w != nil && (w.wr.Op == WRAtomicFAdd || w.wr.Op == WRAtomicCSwap) {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], aa.Orig)
		mr := d.mrs[w.wr.LKey]
		if mr == nil || mr.PD != qp.PD || mr.dma(d.hostMem, w.wr.LocalAddr, buf[:], true) != nil {
			qp.enterError(WCRemoteOpErr)
			return
		}
	}
	d.retireAfter(ackProc, qp, bth.PSN)
}

func (d *Device) handleSendChunk(qp *QP, pkt *packet.Packet) {
	bth := pkt.BTH()
	if qp.curRecv == nil {
		wr, ok := qp.takeRecvWQE()
		if !ok {
			d.sendAck(qp, packet.AckSyndromeRNRNAK|1, (qp.expPSN-1)&0xffffff)
			return
		}
		qp.rctx = recvCtx{wr: wr}
		qp.curRecv = &qp.rctx
	}
	ctx := qp.curRecv
	if len(pkt.Payload) > 0 {
		mr := d.mrs[ctx.wr.LKey]
		if mr == nil || mr.PD != qp.PD ||
			ctx.off+len(pkt.Payload) > ctx.wr.Len ||
			mr.dma(d.hostMem, ctx.wr.Addr+uint64(ctx.off), pkt.Payload, true) != nil {
			d.sendAck(qp, packet.AckSyndromeNAK|packet.NakRemoteOperationErr, (qp.expPSN-1)&0xffffff)
			qp.curRecv = nil
			return
		}
		ctx.off += len(pkt.Payload)
	}
	qp.expPSN = (qp.expPSN + 1) & 0xffffff
	if !bth.OpCode.IsLast() {
		if bth.AckReq {
			d.sendAck(qp, packet.AckSyndromeACK, bth.PSN)
		}
		return
	}
	{
		qp.msn = (qp.msn + 1) & 0xffffff
		d.Stats.RxMsgs++
		wc := WC{WRID: ctx.wr.WRID, Status: WCSuccess, QPN: qp.Num, ByteLen: ctx.off, Recv: true}
		if imm := pkt.ImmDt(); imm != nil {
			wc.Imm, wc.HasImm = imm.Value, true
		}
		d.postWCAfter(qp, qp.RecvCQ, wc)
		qp.curRecv = nil
		d.sendAck(qp, packet.AckSyndromeACK, bth.PSN)
	}
}

func (d *Device) handleWriteChunk(qp *QP, pkt *packet.Packet) {
	bth := pkt.BTH()
	if bth.OpCode.HasImmediate() && !qp.hasRecvWQE() {
		// WRITE_IMM needs a receive WQE for the immediate; refuse the last
		// packet before touching memory so the requester retries.
		d.sendAck(qp, packet.AckSyndromeRNRNAK|1, (qp.expPSN-1)&0xffffff)
		return
	}
	if reth := pkt.RETH(); reth != nil { // FIRST or ONLY
		mr := d.mrs[reth.RKey]
		if mr == nil || mr.PD != qp.PD || mr.Access&AccessRemoteWrite == 0 ||
			!mr.contains(reth.VA, int(reth.DMALen)) {
			d.sendAck(qp, packet.AckSyndromeNAK|packet.NakRemoteAccessError, (qp.expPSN-1)&0xffffff)
			return
		}
		qp.wctx = writeCtx{mr: mr, va: reth.VA}
		qp.curWrite = &qp.wctx
	}
	ctx := qp.curWrite
	if ctx == nil {
		d.sendAck(qp, packet.AckSyndromeNAK|packet.NakInvalidRequest, (qp.expPSN-1)&0xffffff)
		return
	}
	if len(pkt.Payload) > 0 {
		if ctx.mr.dma(d.hostMem, ctx.va+uint64(ctx.off), pkt.Payload, true) != nil {
			d.sendAck(qp, packet.AckSyndromeNAK|packet.NakRemoteAccessError, (qp.expPSN-1)&0xffffff)
			qp.curWrite = nil
			return
		}
		ctx.off += len(pkt.Payload)
	}
	qp.expPSN = (qp.expPSN + 1) & 0xffffff
	if !bth.OpCode.IsLast() {
		if bth.AckReq {
			d.sendAck(qp, packet.AckSyndromeACK, bth.PSN)
		}
		return
	}
	{
		qp.msn = (qp.msn + 1) & 0xffffff
		d.Stats.RxMsgs++
		if imm := pkt.ImmDt(); imm != nil {
			// WRITE_IMM consumes a receive WQE to deliver the immediate
			// (availability was checked before the DMA above).
			wr, _ := qp.takeRecvWQE()
			d.postWCAfter(qp, qp.RecvCQ, WC{
				WRID: wr.WRID, Status: WCSuccess, QPN: qp.Num,
				ByteLen: ctx.off, Imm: imm.Value, HasImm: true, Recv: true,
			})
		}
		qp.curWrite = nil
		d.sendAck(qp, packet.AckSyndromeACK, bth.PSN)
	}
}

// handleReadRequest streams a READ's responses. A new request takes its
// PSN range and a message number first; a duplicate, re-issued because a
// response was lost, is answered again without either.
func (d *Device) handleReadRequest(qp *QP, pkt *packet.Packet, dup bool) {
	bth, reth := pkt.BTH(), pkt.RETH()
	if reth == nil {
		d.sendAck(qp, packet.AckSyndromeNAK|packet.NakInvalidRequest, (qp.expPSN-1)&0xffffff)
		return
	}
	mr := d.mrs[reth.RKey]
	if mr == nil || mr.PD != qp.PD || mr.Access&AccessRemoteRead == 0 ||
		!mr.contains(reth.VA, int(reth.DMALen)) {
		d.sendAck(qp, packet.AckSyndromeNAK|packet.NakRemoteAccessError, (qp.expPSN-1)&0xffffff)
		return
	}
	total := int(reth.DMALen)
	npkts := (total + d.P.MTU - 1) / d.P.MTU
	if npkts == 0 {
		npkts = 1
	}
	if !dup {
		qp.expPSN = (qp.expPSN + uint32(npkts)) & 0xffffff
		qp.msn = (qp.msn + 1) & 0xffffff
		d.Stats.RxMsgs++
	}

	// Stream the responses. They bypass the TX scheduler (as a dedicated
	// responder pipeline would) but are paced at wire speed, each behind
	// the one before, so a short last segment cannot overtake the rest.
	at := d.rxLatency(qp)
	enc := &d.enc
	for i := 0; i < npkts; i++ {
		off := i * d.P.MTU
		n := total - off
		if n > d.P.MTU {
			n = d.P.MTU
		}
		buf := enc.payloadBuf(n)
		if err := mr.dma(d.hostMem, reth.VA+uint64(off), buf, false); err != nil {
			d.sendAck(qp, packet.AckSyndromeNAK|packet.NakRemoteAccessError, (qp.expPSN-1)&0xffffff)
			return
		}
		var op packet.OpCode
		switch {
		case npkts == 1:
			op = packet.OpReadResponseOnly
		case i == 0:
			op = packet.OpReadResponseFirst
		case i == npkts-1:
			op = packet.OpReadResponseLast
		default:
			op = packet.OpReadResponseMiddle
		}
		enc.bth = packet.BTH{OpCode: op, DestQP: qp.AV.DQPN, PSN: (bth.PSN + uint32(i)) & 0xffffff}
		layers := append(enc.start(qp, &qp.AV), &enc.bth)
		if op == packet.OpReadResponseFirst || op == packet.OpReadResponseLast || op == packet.OpReadResponseOnly {
			enc.aeth = packet.AETH{Syndrome: packet.AckSyndromeACK, MSN: qp.msn}
			layers = append(layers, &enc.aeth)
		}
		enc.pay = packet.Payload(buf)
		frame := packet.Serialize(append(layers, &enc.pay)...)
		at += d.wireTime(len(frame))
		d.emitAfter(at, qp.AV.DIP, simnet.Frame(frame), false)
	}
}

// handleReadResponse scatters response data into the requester's read WQE.
// It takes only the segment the READ expects next: one past a lost
// response, or a duplicate of one already taken, is dropped, so the
// retransmit timer re-issues the READ. Taking the last segment completes
// the READ, and with it every WQE the ack point has passed; the ack point
// can be ahead of the READ's last PSN when an ACK for a later request
// overtook the response.
func (d *Device) handleReadResponse(qp *QP, pkt *packet.Packet) {
	bth := pkt.BTH()
	w := qp.findWQE(bth.PSN)
	if w == nil || w.wr.Op != WRRead || psnDiff(bth.PSN, w.firstPSN) != int32(w.readSegs) {
		return // stale, duplicate, or past a lost response
	}
	off := w.readSegs * d.P.MTU
	mr := d.mrs[w.wr.LKey]
	if mr == nil || mr.PD != qp.PD ||
		mr.dma(d.hostMem, w.wr.LocalAddr+uint64(off), pkt.Payload, true) != nil {
		qp.enterError(WCRemoteOpErr)
		return
	}
	w.readSegs++
	// Responses advance the cumulative ack point.
	if psnDiff(bth.PSN+1, qp.sndUna) > 0 {
		qp.sndUna = (bth.PSN + 1) & 0xffffff
		qp.retries = 0
		qp.armTimer()
		qp.kick()
	}
	if w.readSegs == w.npkts {
		d.retireAfter(rxCQE, qp, (qp.sndUna-1)&0xffffff)
	}
}

// handleUD delivers a datagram: QKey check, then scatter into the next
// receive WQE; silently dropped otherwise (unreliable service).
func (d *Device) handleUD(qp *QP, pkt *packet.Packet) {
	deth := pkt.DETH()
	if deth == nil || deth.QKey != qp.QKey {
		d.Stats.Dropped++
		return
	}
	wr, ok := qp.takeRecvWQE()
	if !ok {
		d.Stats.Dropped++
		return
	}
	n := len(pkt.Payload)
	if n > 0 {
		mr := d.mrs[wr.LKey]
		if mr == nil || mr.PD != qp.PD || n > wr.Len ||
			mr.dma(d.hostMem, wr.Addr, pkt.Payload, true) != nil {
			d.Stats.Dropped++
			return
		}
	}
	d.Stats.RxMsgs++
	wc := WC{WRID: wr.WRID, Status: WCSuccess, QPN: qp.Num, ByteLen: n, SrcQP: deth.SrcQP, Recv: true}
	if imm := pkt.ImmDt(); imm != nil {
		wc.Imm, wc.HasImm = imm.Value, true
	}
	d.postWCAfter(qp, qp.RecvCQ, wc)
}

// handleAck is the requester path for ACK/NAK packets.
func (d *Device) handleAck(qp *QP, pkt *packet.Packet) {
	aeth := pkt.AETH()
	if aeth == nil || qp.state == StateError || qp.state == StateReset {
		return
	}
	bth := pkt.BTH()
	if code, nak := aeth.IsNAK(); nak {
		switch code {
		case packet.NakPSNSequenceError:
			qp.rewind((bth.PSN + 1) & 0xffffff)
		case packet.NakRemoteAccessError:
			qp.enterError(WCRemoteAccessErr)
		default:
			qp.enterError(WCRemoteOpErr)
		}
		return
	}
	if aeth.IsRNR() {
		qp.rnrRetries++
		if qp.rnrRetries > d.P.MaxRetry {
			qp.enterError(WCRNRRetryExceeded)
			return
		}
		qp.pausedUntil = d.eng.Now().Add(rnrTimer)
		qp.sndNxt = qp.sndUna
		w := qp.findWQE(qp.sndUna)
		if w != nil {
			for i, sw := range qp.sq {
				if sw == w {
					qp.txIdx = i
					break
				}
			}
			qp.txOff = int(psnDiff(qp.sndUna, w.firstPSN)) * d.P.MTU
		}
		qp.kickAt(qp.pausedUntil)
		return
	}
	d.retireAfter(ackProc, qp, bth.PSN)
}
