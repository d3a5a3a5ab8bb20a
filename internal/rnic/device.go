package rnic

import (
	"fmt"

	"masq/internal/mem"
	"masq/internal/packet"
	"masq/internal/simnet"
	"masq/internal/simtime"
	"masq/internal/trace"
)

// Stats counts device activity.
type Stats struct {
	TxPackets, RxPackets uint64
	TxBytes, RxBytes     uint64
	TxMsgs, RxMsgs       uint64
	Retransmits          uint64
	NAKsSent             uint64
	RNRsSent             uint64
	Dropped              uint64 // packets discarded (bad QP, ERROR state, UD without WQE...)
	AsyncEvents          uint64 // async events raised (QP fatal, port up/down)
	TaggedRx             uint64 // flow-tagged packets received (shared-connection mode)
}

// Device is one RoCEv2 RNIC: a physical function, up to maxVFs virtual
// functions, and the shared transport pipelines behind them.
type Device struct {
	Name string
	P    Params

	// Ingress receives the RoCEv2 packets demultiplexed from the host's
	// physical port (the host steers UDP/4791 here).
	Ingress *simtime.Queue[*packet.Packet]

	Stats Stats

	eng     *simtime.Engine
	hostMem mem.Memory
	port    *simnet.Port

	funcs []*Func
	// qps is indexed by QP number — QPNs are dense (assigned sequentially
	// from 1), so a slice beats a map on the per-packet lookup path.
	qps  []*QP
	nqps int
	mrs  map[uint32]*MR
	cqs  map[uint32]*CQ
	pds  map[uint32]*PD

	nextQPN, nextKey, nextCQ, nextPD uint32

	firmware *simtime.Resource
	txActive *simtime.Queue[*QP]
	ctxCache *lruCache
	rec      *trace.Recorder

	// Async event channel (see async.go).
	asyncSubs []func(AsyncEvent)
	portDown  bool

	// Callback-pipeline state. The TX and RX pipelines each process one
	// packet at a time inline in the engine loop; these fields carry the
	// in-flight packet across the occupancy delay, and the cached callbacks
	// avoid a method-value allocation per re-arm.
	txServe   func(*QP)
	txPktDone *simtime.Timer
	txQP      *QP
	txFrame   simnet.Frame
	txOcc     simtime.Duration

	rxServe   func(*packet.Packet)
	rxPktDone *simtime.Timer
	rxPkt     *packet.Packet
	rxQP      *QP

	// enc is scratch for assembling outbound frames. Serialize copies every
	// header into the wire buffer before returning, so the header structs
	// and layer slice are dead the moment a frame is built and one reusable
	// set per device serves every packet — the engine runs one event at a
	// time, and no assembly spans an event boundary.
	enc frameScratch

	// Pools for the delayed-action records of the data path (post-pipeline
	// frame emission, deferred ACK retirement, completion delivery). Each
	// record owns an intrusive timer, so steady state allocates neither
	// closures nor events.
	emitFree   []*emitJob
	retireFree []*retireJob
	wcFree     []*wcJob

	// pktPool recycles decode arenas for arriving frames. The RX pipeline
	// releases a packet once its handler has copied everything out, which
	// also returns its frame to the packet package's free list; packets
	// steered elsewhere (e.g. the overlay vswitch) are simply never
	// released and fall back to the garbage collector.
	pktPool packet.Pool
}

// RxDecode decodes an arriving frame from the device's arena pool; on
// success the packet owns the frame. The caller must treat the packet as
// dead once the RX pipeline has handled (and released) it.
func (d *Device) RxDecode(f simnet.Frame) (*packet.Packet, error) {
	return d.pktPool.Decode(f)
}

// frameScratch holds one reusable set of headers for Serialize.
type frameScratch struct {
	layers  [8]packet.Layer
	eth     packet.Ethernet
	ip      packet.IPv4
	udp     packet.UDP
	vx      packet.VXLAN
	bth     packet.BTH
	deth    packet.DETH
	reth    packet.RETH
	ae      packet.AtomicETH
	aeth    packet.AETH
	aaeth   packet.AtomicAckETH
	imm     packet.ImmDt
	pay     packet.Payload
	payload []byte
}

// start begins a RoCEv2 frame from qp toward av: it fills the Ethernet,
// IPv4 and UDP headers and returns the layer list holding them, for the
// caller to append the rest of the frame to.
func (s *frameScratch) start(qp *QP, av *AddressVector) []packet.Layer {
	s.eth = packet.Ethernet{Dst: av.DMAC, Src: qp.SrcMAC, EtherType: packet.EtherTypeIPv4}
	s.ip = packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: qp.SrcIP, Dst: av.DIP}
	s.udp = packet.UDP{SrcPort: 49152 + uint16(qp.Num&0x3fff), DstPort: packet.PortRoCEv2}
	return append(s.layers[:0], &s.eth, &s.ip, &s.udp)
}

// payloadBuf returns an n-byte scratch buffer for gathering DMA payload
// that is consumed (copied) by Serialize within the same call.
func (s *frameScratch) payloadBuf(n int) []byte {
	if cap(s.payload) < n {
		s.payload = make([]byte, n)
	}
	return s.payload[:n]
}

// emitJob carries one frame across its post-pipeline latency to emit.
type emitJob struct {
	d       *Device
	dip     packet.IP
	f       simnet.Frame
	countTx bool
	t       *simtime.Timer
}

// emitAfter emits the frame toward dip after delay, counting it against
// the TX stats if countTx (data-path packets are counted at emission; ACKs
// and responses are not, matching the process-based implementation).
func (d *Device) emitAfter(delay simtime.Duration, dip packet.IP, f simnet.Frame, countTx bool) {
	j := popJob(&d.emitFree)
	if j == nil {
		j = &emitJob{d: d}
		j.t = d.eng.NewTimer(j.fire)
	}
	j.dip, j.f, j.countTx = dip, f, countTx
	j.t.ScheduleAfter(delay)
}

func (j *emitJob) fire() {
	d, dip, f, count := j.d, j.dip, j.f, j.countTx
	j.f = nil
	d.emitFree = append(d.emitFree, j)
	if count {
		d.Stats.TxPackets++
		d.Stats.TxBytes += uint64(len(f))
	}
	d.emit(dip, f)
}

// retireJob defers a cumulative-ACK retirement by the ACK processing cost.
type retireJob struct {
	d   *Device
	qp  *QP
	psn uint32
	t   *simtime.Timer
}

// retireAfter retires qp's WQEs up to psn once the ACK processing delay
// elapses.
func (d *Device) retireAfter(delay simtime.Duration, qp *QP, psn uint32) {
	j := popJob(&d.retireFree)
	if j == nil {
		j = &retireJob{d: d}
		j.t = d.eng.NewTimer(j.fire)
	}
	j.qp, j.psn = qp, psn
	j.t.ScheduleAfter(delay)
}

func (j *retireJob) fire() {
	qp, psn := j.qp, j.psn
	j.qp = nil
	j.d.retireFree = append(j.d.retireFree, j)
	qp.retire(psn)
}

// wcJob delivers one completion after its RX latency and CQE delay.
type wcJob struct {
	d  *Device
	cq *CQ
	wc WC
	t  *simtime.Timer
}

// postWCAfter delivers wc to cq after qp's RX latency plus the CQE delay.
func (d *Device) postWCAfter(qp *QP, cq *CQ, wc WC) {
	j := popJob(&d.wcFree)
	if j == nil {
		j = &wcJob{d: d}
		j.t = d.eng.NewTimer(j.fire)
	}
	j.cq, j.wc = cq, wc
	j.t.ScheduleAfter(d.rxLatency(qp) + rxCQE)
}

func (j *wcJob) fire() {
	cq, wc := j.cq, j.wc
	j.cq = nil
	j.d.wcFree = append(j.d.wcFree, j)
	cq.post(wc)
}

// popJob takes the last record off a job free list, or returns nil when
// the list is empty.
func popJob[J any](free *[]*J) *J {
	n := len(*free)
	if n == 0 {
		return nil
	}
	j := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return j
}

// SetRecorder attaches a trace recorder; every firmware verb execution is
// then recorded as an rnic-layer span. A nil recorder is valid and free.
func (d *Device) SetRecorder(r *trace.Recorder) { d.rec = r }

// Func is a PCI function of the device: index 0 is the physical function,
// higher indices are SR-IOV virtual functions.
type Func struct {
	Index int
	IP    packet.IP
	MAC   packet.MAC

	dev     *Device
	gids    []packet.GID
	limiter *tokenBucket
	IOMMU   bool // traffic DMA-remapped (SR-IOV passthrough)
}

// NewDevice creates a device whose DMA engine reads and writes hostMem.
// The physical function exists immediately; call AttachPort before use.
func NewDevice(eng *simtime.Engine, name string, p Params, hostMem mem.Memory) *Device {
	d := &Device{
		Name:     name,
		P:        p,
		Ingress:  simtime.NewQueue[*packet.Packet](eng),
		eng:      eng,
		hostMem:  hostMem,
		mrs:      make(map[uint32]*MR),
		cqs:      make(map[uint32]*CQ),
		pds:      make(map[uint32]*PD),
		nextQPN:  1,
		nextKey:  p.KeyBase + 1,
		nextCQ:   1,
		nextPD:   1,
		firmware: simtime.NewResource(eng, 1),
		txActive: simtime.NewQueue[*QP](eng),
	}
	if p.CtxCacheSize > 0 {
		d.ctxCache = newLRU(p.CtxCacheSize)
	}
	d.funcs = []*Func{{Index: 0, dev: d, gids: make([]packet.GID, 1)}}
	return d
}

// AttachPort wires the device's wire side and starts the TX/RX pipelines.
// Both pipelines run as engine callbacks — no goroutine per device.
func (d *Device) AttachPort(port *simnet.Port) {
	d.port = port
	d.txServe = d.txService
	d.txPktDone = d.eng.NewTimer(d.txDone)
	d.txActive.OnNext(d.txServe)
	d.rxServe = d.rxService
	d.rxPktDone = d.eng.NewTimer(d.rxDone)
	d.Ingress.OnNext(d.rxServe)
}

// Engine returns the simulation engine the device runs on.
func (d *Device) Engine() *simtime.Engine { return d.eng }

// PF returns the physical function.
func (d *Device) PF() *Func { return d.funcs[0] }

// AddVF creates a new virtual function. The device exposes at most
// maxVFs of them (Table 5: 8 on non-ARI PCIe).
func (d *Device) AddVF() (*Func, error) {
	if len(d.funcs)-1 >= maxVFs {
		return nil, fmt.Errorf("%w: device %s supports %d VFs", ErrNoResources, d.Name, maxVFs)
	}
	f := &Func{Index: len(d.funcs), dev: d, gids: make([]packet.GID, 1)}
	d.funcs = append(d.funcs, f)
	return f, nil
}

// SetAddr assigns the function's network identity. For the PF this is the
// host's underlay address; for a passthrough VF it is the VM's address.
func (f *Func) SetAddr(ip packet.IP, mac packet.MAC) {
	f.IP = ip
	f.MAC = mac
	f.gids[0] = packet.GIDFromIP(ip)
}

// GID returns GID table entry i (zero GID if unset).
func (f *Func) GID(i int) packet.GID {
	if i < len(f.gids) {
		return f.gids[i]
	}
	return packet.GID{}
}

// IsVF reports whether the function is a virtual function.
func (f *Func) IsVF() bool { return f.Index > 0 }

// SetRateLimit installs (or replaces) a token-bucket rate limiter on the
// function, in bits per second. A rate of 0 removes the limit.
func (f *Func) SetRateLimit(bps float64) {
	if bps <= 0 {
		f.limiter = nil
		return
	}
	f.limiter = newTokenBucket(bps, float64(2*f.dev.P.MTU*8))
}

// RateLimit returns the configured limit in bits per second (0 = none).
func (f *Func) RateLimit() float64 {
	if f.limiter == nil {
		return 0
	}
	return f.limiter.rate
}

func (d *Device) pollCost() simtime.Duration { return verbCost[VerbPollCQ] }

// exec charges a control verb: firmware is serialized, VFs pay the control
// multiplier, and extra (e.g. per-page pinning) is added on top.
func (d *Device) exec(p *simtime.Proc, v Verb, f *Func, extra simtime.Duration) {
	sp := d.rec.Begin(p, trace.LayerRNIC, v.String())
	d.firmware.Acquire(p)
	cost := verbCost[v]
	if f != nil && f.IsVF() {
		cost = simtime.Duration(float64(cost) * VFControlFactor)
	}
	p.Sleep(cost + extra)
	d.firmware.Release()
	sp.End(p)
}

// VerbCost exposes the PF-side cost of a verb (for harness reporting).
func (d *Device) VerbCost(v Verb) simtime.Duration { return verbCost[v] }

// GetDeviceList models ibv_get_device_list.
func (d *Device) GetDeviceList(p *simtime.Proc) { d.exec(p, VerbGetDeviceList, nil, 0) }

// Open models ibv_open_device.
func (d *Device) Open(p *simtime.Proc) { d.exec(p, VerbOpenDevice, nil, 0) }

// Close models ibv_close_device.
func (d *Device) Close(p *simtime.Proc) { d.exec(p, VerbCloseDevice, nil, 0) }

// AllocPD models ibv_alloc_pd.
func (d *Device) AllocPD(p *simtime.Proc, f *Func) *PD {
	d.exec(p, VerbAllocPD, f, 0)
	pd := &PD{Num: d.nextPD, dev: d}
	d.nextPD++
	d.pds[pd.Num] = pd
	return pd
}

// DeallocPD models ibv_dealloc_pd.
func (d *Device) DeallocPD(p *simtime.Proc, pd *PD) {
	d.exec(p, VerbDeallocPD, nil, 0)
	delete(d.pds, pd.Num)
}

// RegMR models ibv_reg_mr: the caller (a driver) has already pinned the
// buffer and translated it to host-physical extents; the device records
// them in its MTT and mints the keys. va is the address the *application*
// will use in work requests.
func (d *Device) RegMR(p *simtime.Proc, f *Func, pd *PD, va uint64, length int, ext []mem.Extent, access Access) *MR {
	pages := simtime.Duration(0)
	if length > mem.PageSize {
		pages = simtime.Duration(length/mem.PageSize) * regMRPerPage
	}
	d.exec(p, VerbRegMR, f, pages)
	mr := &MR{LKey: d.nextKey, RKey: d.nextKey, VA: va, Len: length, Access: access, PD: pd, ext: ext}
	d.nextKey++
	d.mrs[mr.LKey] = mr
	return mr
}

// DeregMR models ibv_dereg_mr.
func (d *Device) DeregMR(p *simtime.Proc, f *Func, mr *MR) {
	d.exec(p, VerbDeregMR, f, 0)
	delete(d.mrs, mr.LKey)
}

// CreateCQ models ibv_create_cq.
func (d *Device) CreateCQ(p *simtime.Proc, f *Func, capacity int) *CQ {
	d.exec(p, VerbCreateCQ, f, 0)
	cq := &CQ{Num: d.nextCQ, Cap: capacity, dev: d, items: simtime.NewQueue[WC](d.eng)}
	d.nextCQ++
	d.cqs[cq.Num] = cq
	return cq
}

// DestroyCQ models ibv_destroy_cq.
func (d *Device) DestroyCQ(p *simtime.Proc, f *Func, cq *CQ) {
	d.exec(p, VerbDestroyCQ, f, 0)
	delete(d.cqs, cq.Num)
}

// QueryGID models ibv_query_gid on the function's GID table.
func (d *Device) QueryGID(p *simtime.Proc, f *Func, idx int) packet.GID {
	d.exec(p, VerbQueryGID, f, 0)
	return f.GID(idx)
}

// QPCaps sizes a queue pair's work queues. When SRQ is set the QP has no
// private receive queue: SEND arrivals consume WQEs from the shared queue.
type QPCaps struct {
	MaxSendWR, MaxRecvWR int
	SRQ                  *SRQ
}

// DefaultCaps mirrors the paper's create_qp parameters.
func DefaultCaps() QPCaps { return QPCaps{MaxSendWR: 100, MaxRecvWR: 100} }

// CreateQP models ibv_create_qp. The QP starts in RESET.
func (d *Device) CreateQP(p *simtime.Proc, f *Func, pd *PD, scq, rcq *CQ, typ QPType, caps QPCaps) *QP {
	d.exec(p, VerbCreateQP, f, 0)
	qp := &QP{
		Num:    d.nextQPN,
		Type:   typ,
		PD:     pd,
		SendCQ: scq,
		RecvCQ: rcq,
		Caps:   caps,
		srq:    caps.SRQ,
		fn:     f,
		dev:    d,
	}
	d.nextQPN++
	for int(qp.Num) >= len(d.qps) {
		d.qps = append(d.qps, nil)
	}
	d.qps[qp.Num] = qp
	d.nqps++
	return qp
}

// SRQ is a shared receive queue: many QPs draw receive WQEs from one pool,
// which is how RC servers with thousands of connections bound their
// receive-buffer footprint (the scalability concern of Sec. 3.3.4's
// references). Completions still arrive on each QP's receive CQ.
type SRQ struct {
	Num   uint32
	MaxWR int

	dev *Device
	rq  []RecvWR
}

// CreateSRQ models ibv_create_srq.
func (d *Device) CreateSRQ(p *simtime.Proc, f *Func, maxWR int) *SRQ {
	d.exec(p, VerbCreateSRQ, f, 0)
	s := &SRQ{Num: d.nextCQ, MaxWR: maxWR, dev: d}
	d.nextCQ++
	return s
}

// DestroySRQ models ibv_destroy_srq.
func (d *Device) DestroySRQ(p *simtime.Proc, f *Func, s *SRQ) {
	d.exec(p, VerbDestroySRQ, f, 0)
	s.rq = nil
}

// PostRecv models ibv_post_srq_recv.
func (s *SRQ) PostRecv(p *simtime.Proc, wr RecvWR) error {
	p.Sleep(verbCost[VerbPostRecv])
	if len(s.rq) >= s.MaxWR {
		return ErrQueueFull
	}
	s.rq = append(s.rq, wr)
	return nil
}

// Len returns the number of posted shared WQEs.
func (s *SRQ) Len() int { return len(s.rq) }

// QP returns the queue pair with the given number, or nil.
func (d *Device) QP(qpn uint32) *QP { return d.qpLookup(qpn) }

func (d *Device) qpLookup(qpn uint32) *QP {
	if int(qpn) < len(d.qps) {
		return d.qps[qpn]
	}
	return nil
}

// QPs returns the live QP count (diagnostics).
func (d *Device) QPs() int { return d.nqps }

// DestroyQP models ibv_destroy_qp.
func (d *Device) DestroyQP(p *simtime.Proc, qp *QP) {
	d.exec(p, VerbDestroyQP, qp.fn, 0)
	qp.flush()
	if int(qp.Num) < len(d.qps) && d.qps[qp.Num] != nil {
		d.qps[qp.Num] = nil
		d.nqps--
	}
}

// Attr carries modify_qp arguments. Only fields relevant to the target
// state are read.
type Attr struct {
	ToState State
	AV      AddressVector // RTR: remote endpoint (post-RConnrename view)
	QKey    uint32        // UD
	// FlowTag and FlowVNI, when the tag is nonzero, mark the QP as a flow
	// of a shared host connection (RTR only): outbound packets carry the
	// tag in an overlay header on the shared-RoCE UDP port.
	FlowTag uint16
	FlowVNI uint32
}

// ModifyQP models ibv_modify_qp, enforcing the Fig. 5 state machine.
// Moving to ERROR applies the Fig. 18 reset-cost model and flushes
// outstanding work (Table 2).
func (d *Device) ModifyQP(p *simtime.Proc, qp *QP, a Attr) error {
	if !transitionAllowed(qp.state, a.ToState) {
		return fmt.Errorf("%w: %v → %v", ErrBadTransition, qp.state, a.ToState)
	}
	switch a.ToState {
	case StateInit:
		d.exec(p, VerbModifyQPInit, qp.fn, 0)
		qp.SGID = qp.fn.GID(0)
		qp.SrcIP = qp.fn.IP
		qp.SrcMAC = qp.fn.MAC
	case StateRTR:
		d.exec(p, VerbModifyQPRTR, qp.fn, 0)
		qp.AV = a.AV
		qp.QKey = a.QKey
		qp.FlowTag = a.FlowTag
		qp.FlowVNI = a.FlowVNI
	case StateRTS:
		d.exec(p, VerbModifyQPRTS, qp.fn, 0)
	case StateError:
		d.exec(p, VerbModifyQPErr, qp.fn, d.resetCost(qp))
	case StateReset:
		qp.clear()
	case StateSQD, StateSQE:
		// Administrative transitions; charge the generic RTS cost.
		d.exec(p, VerbModifyQPRTS, qp.fn, 0)
	}
	qp.state = a.ToState
	if a.ToState == StateError {
		qp.flush()
	}
	if a.ToState == StateRTS {
		qp.kick()
	}
	return nil
}

// SoftModify applies a modify_qp whose QPC rewrite happens in host memory
// instead of device firmware (MasQ's shared-connection attach): the state
// machine and side effects match ModifyQP, but the caller's cost is charged
// as plain host time, so concurrent attaches never serialize behind the
// firmware resource. Transitions with device-side work (ERROR flush cost)
// are refused — they must go through ModifyQP.
func (d *Device) SoftModify(p *simtime.Proc, qp *QP, a Attr, cost simtime.Duration) error {
	if a.ToState == StateError {
		return fmt.Errorf("rnic: soft modify to %v requires firmware; use ModifyQP", a.ToState)
	}
	if !transitionAllowed(qp.state, a.ToState) {
		return fmt.Errorf("%w: %v → %v", ErrBadTransition, qp.state, a.ToState)
	}
	if cost > 0 {
		p.Sleep(cost)
	}
	switch a.ToState {
	case StateInit:
		qp.SGID = qp.fn.GID(0)
		qp.SrcIP = qp.fn.IP
		qp.SrcMAC = qp.fn.MAC
	case StateRTR:
		qp.AV = a.AV
		qp.QKey = a.QKey
		qp.FlowTag = a.FlowTag
		qp.FlowVNI = a.FlowVNI
	case StateReset:
		qp.clear()
	}
	qp.state = a.ToState
	if a.ToState == StateRTS {
		qp.kick()
	}
	return nil
}

// resetCost models Fig. 18: a kernel-routine share plus an RNIC share that
// is larger on a VF and grows under traffic load.
func (d *Device) resetCost(qp *QP) simtime.Duration {
	rnicShare := resetRNICPF
	if qp.fn.IsVF() {
		rnicShare = resetRNICVF
	}
	if qp.busy() {
		rnicShare += resetTrafficExtra
	}
	// The verb table has no entry for modify_qp(ERR); the whole cost is
	// kernel + RNIC shares.
	return resetKernel + rnicShare
}

// ResetCostBreakdown reports the kernel and RNIC shares that a reset of qp
// would be charged right now (harness support for Fig. 18).
func (d *Device) ResetCostBreakdown(qp *QP) (kernel, rnicShare simtime.Duration) {
	total := d.resetCost(qp)
	return resetKernel, total - resetKernel
}

// ctxLookup models the on-chip QP-context cache: a miss costs extra
// pipeline occupancy. Returns 0 when the model is disabled.
func (d *Device) ctxLookup(qpn uint32) simtime.Duration {
	if d.ctxCache == nil {
		return 0
	}
	if d.ctxCache.touch(qpn) {
		return 0
	}
	return d.P.CtxMissPenalty
}

// lruCache is a small LRU set of QP numbers: a QPN-indexed slice (QPNs are
// dense) over an intrusive doubly-linked recency list, so touch is O(1)
// with no hashing even under the all-miss thrash the NIC-cache ablation
// drives it with. Evicted nodes are recycled on a free list, so a
// warmed-up cache never allocates.
type lruCache struct {
	cap   int
	slots []*lruNode // indexed by QPN
	n     int        // live entries
	head  *lruNode   // most recently used
	tail  *lruNode   // least recently used
	free  *lruNode
}

type lruNode struct {
	qpn        uint32
	prev, next *lruNode
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity}
}

// touch marks qpn used and reports whether it was already cached,
// evicting the least recently used entry on insert.
func (c *lruCache) touch(qpn uint32) bool {
	if int(qpn) < len(c.slots) {
		if n := c.slots[qpn]; n != nil {
			c.moveToFront(n)
			return true
		}
	}
	if c.n >= c.cap {
		old := c.tail
		c.unlink(old)
		c.slots[old.qpn] = nil
		c.n--
		old.next = c.free
		c.free = old
	}
	n := c.free
	if n != nil {
		c.free = n.next
		n.next = nil
	} else {
		n = &lruNode{}
	}
	n.qpn = qpn
	c.pushFront(n)
	for int(qpn) >= len(c.slots) {
		c.slots = append(c.slots, nil)
	}
	c.slots[qpn] = n
	c.n++
	return false
}

func (c *lruCache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *lruCache) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
