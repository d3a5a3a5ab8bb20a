// Package freeflow implements the FreeFlow (NSDI'19) baseline: software-
// based virtual RDMA networking for containers. A per-host FreeFlow router
// (FFR) owns the real verbs objects; containers talk to it over a shared-
// memory channel. Crucially — and unlike MasQ — *data-path* verbs are also
// relayed through the FFR, so every message costs FFR CPU on both the send
// and the receive side. That is what caps small-message throughput (~1 Mops
// in Fig. 21) and adds the latency of Fig. 8, while the control path pays
// large extra costs for virtualizing data-path resources (Fig. 15b).
package freeflow

import (
	"fmt"

	"masq/internal/hyper"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// FFR costs, calibrated to the paper: ≈1 Mops FFR ceiling, ≈2.1 µs 2 B
// send latency, ≈3.9 ms connection setup.
const (
	ipcCost    = 300 * simtime.Nanosecond   // container ↔ FFR shared-memory signal
	fwdCost    = 500 * simtime.Nanosecond   // FFR CPU per relayed data operation
	relayCost  = 450 * simtime.Nanosecond   // FFR CPU per relayed completion
	ctrlIPC    = 20 * simtime.Microsecond   // control-verb relay overhead
	regMRExtra = 1000 * simtime.Microsecond // shadow-buffer allocation + mapping
	cqExtra    = 1030 * simtime.Microsecond // CQ virtualization
	qpExtra    = 830 * simtime.Microsecond  // QP virtualization
	cores      = 1                          // FFR forwarding threads
)

// Router is the per-host FFR process.
type Router struct {
	host  *hyper.Host
	cpu   *simtime.Resource // forwarding threads
	Stats struct {
		Forwards, Relays uint64
	}
}

// NewRouter starts the FFR on a host.
func NewRouter(host *hyper.Host) *Router {
	return &Router{host: host, cpu: simtime.NewResource(host.Eng, cores)}
}

// forward charges one FFR data-path operation (serialized on FFR cores).
func (r *Router) forward(p *simtime.Proc, cost simtime.Duration) {
	r.cpu.Acquire(p)
	p.Sleep(cost)
	r.cpu.Release()
}

// Provider is a container's FreeFlow verbs endpoint.
type Provider struct {
	r       *Router
	c       *hyper.Container
	resolve func(packet.GID) (packet.IP, packet.MAC, bool)
}

// NewProvider attaches a container to the host's FFR. resolve maps
// destination GIDs to underlay addressing (FreeFlow's own controller).
func NewProvider(r *Router, c *hyper.Container, resolve func(packet.GID) (packet.IP, packet.MAC, bool)) *Provider {
	return &Provider{r: r, c: c, resolve: resolve}
}

// Name implements verbs.Provider.
func (pr *Provider) Name() string { return "freeflow" }

// Open relays device discovery through the FFR.
func (pr *Provider) Open(p *simtime.Proc) (verbs.Device, error) {
	dev := pr.r.host.Dev
	p.Sleep(ctrlIPC)
	dev.GetDeviceList(p)
	p.Sleep(ctrlIPC)
	dev.Open(p)
	return &device{pr: pr}, nil
}

type device struct {
	pr *Provider
}

func (d *device) dev() *rnic.Device { return d.pr.r.host.Dev }
func (d *device) pf() *rnic.Func    { return d.pr.r.host.Dev.PF() }

type pd struct{ pd *rnic.PD }

func (x pd) Handle() uint32 { return x.pd.Num }

func (d *device) AllocPD(p *simtime.Proc) (verbs.PD, error) {
	p.Sleep(ctrlIPC)
	return pd{d.dev().AllocPD(p, d.pf())}, nil
}

type mr struct {
	d  *device
	mr *rnic.MR
	va uint64
	ln int
}

func (m mr) LKey() uint32 { return m.mr.LKey }
func (m mr) RKey() uint32 { return m.mr.RKey }
func (m mr) Addr() uint64 { return m.va }
func (m mr) Len() int     { return m.ln }

func (m mr) Dereg(p *simtime.Proc) error {
	p.Sleep(ctrlIPC)
	m.d.dev().DeregMR(p, m.d.pf(), m.mr)
	return m.d.pr.c.GVA.UnpinToPhys(m.va, m.ln)
}

// RegMR pays FreeFlow's shadow-memory tax: the FFR allocates and maps its
// own buffer for the region before registering it with the NIC.
func (d *device) RegMR(p *simtime.Proc, vpd verbs.PD, va uint64, length int, access verbs.Access) (verbs.MR, error) {
	rpd, ok := vpd.(pd)
	if !ok {
		return nil, fmt.Errorf("freeflow: foreign PD handle")
	}
	p.Sleep(ctrlIPC + regMRExtra)
	ext, err := d.pr.c.GVA.PinToPhys(va, length)
	if err != nil {
		return nil, err
	}
	r := d.dev().RegMR(p, d.pf(), rpd.pd, va, length, ext, access)
	return mr{d: d, mr: r, va: va, ln: length}, nil
}

type cq struct {
	d  *device
	cq *rnic.CQ
}

// Completions are relayed by the FFR before the container sees them.
func (c cq) TryPoll(p *simtime.Proc) (verbs.WC, bool) {
	wc, ok := c.cq.TryPoll(p)
	if ok {
		c.relay(p)
	} else {
		p.Sleep(ipcCost) // polling the FFR's shadow CQ
	}
	return wc, ok
}

func (c cq) Wait(p *simtime.Proc) verbs.WC {
	wc := c.cq.Wait(p)
	c.relay(p)
	return wc
}

func (c cq) WaitTimeout(p *simtime.Proc, d simtime.Duration) (verbs.WC, bool) {
	wc, ok := c.cq.WaitTimeout(p, d)
	if ok {
		c.relay(p)
	}
	return wc, ok
}

func (c cq) relay(p *simtime.Proc) {
	c.d.pr.r.Stats.Relays++
	c.d.pr.r.forward(p, relayCost)
	p.Sleep(ipcCost)
}

func (c cq) Destroy(p *simtime.Proc) error {
	p.Sleep(ctrlIPC)
	c.d.dev().DestroyCQ(p, c.d.pf(), c.cq)
	return nil
}

func (d *device) CreateCQ(p *simtime.Proc, cqe int) (verbs.CQ, error) {
	p.Sleep(ctrlIPC + cqExtra)
	return cq{d: d, cq: d.dev().CreateCQ(p, d.pf(), cqe)}, nil
}

type qp struct {
	d  *device
	qp *rnic.QP
}

func (q qp) Num() uint32        { return q.qp.Num }
func (q qp) State() verbs.State { return q.qp.State() }

func (q qp) Modify(p *simtime.Proc, a verbs.Attr) error {
	p.Sleep(ctrlIPC)
	attr := rnic.Attr{ToState: a.ToState, QKey: a.QKey}
	if a.ToState == rnic.StateRTR && a.DQPN != 0 {
		ip, mac, ok := q.d.pr.resolve(a.DGID)
		if !ok {
			return fmt.Errorf("freeflow: no route to GID %v", a.DGID)
		}
		attr.AV = rnic.AddressVector{DGID: a.DGID, DIP: ip, DMAC: mac, DQPN: a.DQPN}
	}
	return q.d.dev().ModifyQP(p, q.qp, attr)
}

// PostSend relays the work request through the FFR: shared-memory signal,
// FFR forwarding CPU, then the real post.
func (q qp) PostSend(p *simtime.Proc, wr verbs.SendWR) error {
	p.Sleep(ipcCost)
	q.d.pr.r.Stats.Forwards++
	q.d.pr.r.forward(p, fwdCost)
	return q.qp.PostSend(p, wr)
}

// PostRecv is also relayed (FreeFlow virtualizes the receive queue too).
func (q qp) PostRecv(p *simtime.Proc, wr verbs.RecvWR) error {
	p.Sleep(ipcCost)
	q.d.pr.r.Stats.Forwards++
	q.d.pr.r.forward(p, fwdCost)
	return q.qp.PostRecv(p, wr)
}

func (q qp) Destroy(p *simtime.Proc) error {
	p.Sleep(ctrlIPC)
	q.d.dev().DestroyQP(p, q.qp)
	return nil
}

func (d *device) CreateQP(p *simtime.Proc, vpd verbs.PD, send, recv verbs.CQ, typ verbs.QPType, caps verbs.QPCaps) (verbs.QP, error) {
	rpd, ok := vpd.(pd)
	if !ok {
		return nil, fmt.Errorf("freeflow: foreign PD handle")
	}
	scq, ok1 := send.(cq)
	rcq, ok2 := recv.(cq)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("freeflow: foreign CQ handle")
	}
	p.Sleep(ctrlIPC + qpExtra)
	return qp{d: d, qp: d.dev().CreateQP(p, d.pf(), rpd.pd, scq.cq, rcq.cq, typ, caps)}, nil
}

type srq struct {
	d *device
	s *rnic.SRQ
}

// SRQ receive posts are relayed through the FFR like any data-path verb.
func (x srq) PostRecv(p *simtime.Proc, wr verbs.RecvWR) error {
	p.Sleep(ipcCost)
	x.d.pr.r.Stats.Forwards++
	x.d.pr.r.forward(p, fwdCost)
	return x.s.PostRecv(p, wr)
}
func (x srq) Len() int       { return x.s.Len() }
func (x srq) Raw() *rnic.SRQ { return x.s }
func (x srq) Destroy(p *simtime.Proc) error {
	p.Sleep(ctrlIPC)
	x.d.dev().DestroySRQ(p, x.d.pf(), x.s)
	return nil
}

func (d *device) CreateSRQ(p *simtime.Proc, maxWR int) (verbs.SRQ, error) {
	p.Sleep(ctrlIPC)
	return srq{d: d, s: d.dev().CreateSRQ(p, d.pf(), maxWR)}, nil
}

// QueryGID returns the container's *virtual* GID: FreeFlow presents the
// overlay IP to applications, as MasQ does.
func (d *device) QueryGID(p *simtime.Proc) (packet.GID, error) {
	p.Sleep(ctrlIPC)
	d.dev().QueryGID(p, d.pf(), 0)
	if d.pr.c.VNIC == nil {
		return packet.GID{}, fmt.Errorf("freeflow: container has no overlay interface")
	}
	return packet.GIDFromIP(d.pr.c.VNIC.EP.VIP), nil
}

func (d *device) Close(p *simtime.Proc) error {
	p.Sleep(ctrlIPC)
	d.dev().Close(p)
	return nil
}
