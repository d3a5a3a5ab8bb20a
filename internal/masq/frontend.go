package masq

import (
	"fmt"

	"masq/internal/mem"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/trace"
	"masq/internal/verbs"
	"masq/internal/virtio"
)

// Frontend is MasQ's paravirtual driver inside a VM. It implements
// verbs.Provider: control-path verbs travel the virtio ring to the
// backend; data-path verbs touch the memory-mapped queues directly.
type Frontend struct {
	b    *Backend
	sess *session
	ring *virtio.Ring
}

// Name implements verbs.Provider.
func (f *Frontend) Name() string { return f.b.Mode.String() }

// VBond exposes the device bond (inspection and tests).
func (f *Frontend) VBond() *VBond { return f.sess.vbond }

// call forwards one verb over the virtio ring: serve is the backend's half,
// run inside the round trip under a backend span named verb. The backend is
// the one the ring serves, so a migration that rebinds the frontend while
// the call is in flight does not move it.
func (f *Frontend) call(p *simtime.Proc, verb string, serve func(b *Backend) error) error {
	b := f.b
	sp := b.Rec.Begin(p, trace.LayerMasqFrontend, "forward")
	var err error
	f.ring.Call(p, func() {
		bsp := b.Rec.Begin(p, trace.LayerMasqBackend, verb)
		err = serve(b)
		bsp.End(p)
	})
	sp.End(p)
	return err
}

// Open implements verbs.Provider: both discovery verbs are forwarded
// (Table 1 rows 1–2).
func (f *Frontend) Open(p *simtime.Proc) (verbs.Device, error) {
	if err := f.call(p, "get_device_list", func(b *Backend) error { b.Host.Dev.GetDeviceList(p); return nil }); err != nil {
		return nil, err
	}
	if err := f.call(p, "open_device", func(b *Backend) error { b.Host.Dev.Open(p); return nil }); err != nil {
		return nil, err
	}
	return &fdevice{f: f}, nil
}

type fdevice struct {
	f *Frontend
}

type fpd struct{ pd *rnic.PD }

func (x fpd) Handle() uint32 { return x.pd.Num }

// AllocPD mints the host-side PD object. The paper's Table 1 marks
// alloc_pd as pure software ("-"); this implementation does forward it so
// the backend owns a real PD, adding one virtio round trip to a verb the
// application calls once per lifetime.
func (d *fdevice) AllocPD(p *simtime.Proc) (verbs.PD, error) {
	var pd *rnic.PD
	if err := d.f.call(p, "alloc_pd", func(b *Backend) error { pd = b.Host.Dev.AllocPD(p, nil); return nil }); err != nil {
		return nil, err
	}
	return fpd{pd}, nil
}

type fmr struct {
	d   *fdevice
	mr  *rnic.MR
	va  uint64
	ln  int
	gpa []mem.Extent
}

func (m fmr) LKey() uint32 { return m.mr.LKey }
func (m fmr) RKey() uint32 { return m.mr.RKey }
func (m fmr) Addr() uint64 { return m.va }
func (m fmr) Len() int     { return m.ln }

func (m fmr) Dereg(p *simtime.Proc) error {
	if err := m.d.f.call(p, "dereg_mr", func(b *Backend) error { return b.deregMR(p, m.d.f.sess, m.mr, m.gpa) }); err != nil {
		return err
	}
	return m.d.f.sess.vm.GVA.Unpin(m.va, m.ln)
}

// RegMR pins GVA→GPA in the guest and forwards the command with the
// address mapping; the backend completes the walk to HPA (Fig. 4 step 1).
func (d *fdevice) RegMR(p *simtime.Proc, vpd verbs.PD, va uint64, length int, access verbs.Access) (verbs.MR, error) {
	rpd, ok := vpd.(fpd)
	if !ok {
		return nil, fmt.Errorf("masq: foreign PD handle")
	}
	gpa, err := d.f.sess.vm.GVA.Pin(va, length)
	if err != nil {
		return nil, err
	}
	var mr *rnic.MR
	if err := d.f.call(p, "reg_mr", func(b *Backend) (err error) {
		mr, err = b.regMR(p, d.f.sess, rpd.pd, va, length, gpa, access)
		return err
	}); err != nil {
		return nil, err
	}
	return fmr{d: d, mr: mr, va: va, ln: length, gpa: gpa}, nil
}

type fcq struct {
	d  *fdevice
	cq *rnic.CQ
}

// The CQ ring is memory-mapped into the guest: polling is direct.
func (c fcq) TryPoll(p *simtime.Proc) (verbs.WC, bool) { return c.cq.TryPoll(p) }
func (c fcq) Wait(p *simtime.Proc) verbs.WC            { return c.cq.Wait(p) }
func (c fcq) WaitTimeout(p *simtime.Proc, t simtime.Duration) (verbs.WC, bool) {
	return c.cq.WaitTimeout(p, t)
}
func (c fcq) Destroy(p *simtime.Proc) error {
	return c.d.f.call(p, "destroy_cq", func(b *Backend) error { b.Host.Dev.DestroyCQ(p, nil, c.cq); return nil })
}

// The mapped CQ ring also supports the callback-style capability
// (verbs.AsyncCQ) without touching the control path.
func (c fcq) OnComplete(fn func(verbs.WC)) { c.cq.OnComplete(fn) }
func (c fcq) TryGet() (verbs.WC, bool)     { return c.cq.TryGet() }
func (c fcq) PollCost() simtime.Duration   { return c.cq.PollCost() }

func (d *fdevice) CreateCQ(p *simtime.Proc, cqe int) (verbs.CQ, error) {
	var cq *rnic.CQ
	if err := d.f.call(p, "create_cq", func(b *Backend) error { cq = b.createCQ(p, d.f.sess, cqe); return nil }); err != nil {
		return nil, err
	}
	return fcq{d: d, cq: cq}, nil
}

type fqp struct {
	d  *fdevice
	qp *rnic.QP
}

func (q fqp) Num() uint32        { return q.qp.Num }
func (q fqp) State() verbs.State { return q.qp.State() }

// Modify forwards through the backend, where RConnrename rewrites the
// destination addressing and RConntrack enforces security rules.
func (q fqp) Modify(p *simtime.Proc, a verbs.Attr) error {
	return q.d.f.call(p, "modify_qp", func(b *Backend) error { return b.modifyQP(p, q.d.f.sess, q.qp, a) })
}

// PostSend is the data path: zero-copy, directly to the mapped queues.
// The exception is a UD work request that names a (virtual) destination —
// those are routed through the control path so RConnrename can rewrite
// the address (Sec. 3.3.4).
func (q fqp) PostSend(p *simtime.Proc, wr verbs.SendWR) error {
	if q.qp.Type == rnic.UD && wr.Remote != nil {
		dgid, dqpn := wr.Remote.DGID, wr.Remote.DQPN
		wr.Remote = nil
		return q.d.f.call(p, "post_ud", func(b *Backend) error { return b.postUD(p, q.d.f.sess, q.qp, wr, dgid, dqpn) })
	}
	return q.qp.PostSend(p, wr)
}

// PostRecv is pure data path.
func (q fqp) PostRecv(p *simtime.Proc, wr verbs.RecvWR) error {
	return q.qp.PostRecv(p, wr)
}

// Callback-style posting (verbs.AsyncQP) covers the zero-copy data path
// only; a UD WR that names a virtual destination must go through the
// control path, which needs a process context.
func (q fqp) PostSendCost() simtime.Duration { return q.qp.PostSendCost() }
func (q fqp) PostSendAsync(wr verbs.SendWR) error {
	if q.qp.Type == rnic.UD && wr.Remote != nil {
		return fmt.Errorf("masq: async post_send cannot route a UD WR through RConnrename")
	}
	return q.qp.PostSendAsync(wr)
}

func (q fqp) Destroy(p *simtime.Proc) error {
	return q.d.f.call(p, "destroy_qp", func(b *Backend) error { b.destroyQP(p, q.d.f.sess, q.qp); return nil })
}

func (d *fdevice) CreateQP(p *simtime.Proc, vpd verbs.PD, send, recv verbs.CQ, typ verbs.QPType, caps verbs.QPCaps) (verbs.QP, error) {
	rpd, ok := vpd.(fpd)
	if !ok {
		return nil, fmt.Errorf("masq: foreign PD handle")
	}
	scq, ok1 := send.(fcq)
	rcq, ok2 := recv.(fcq)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("masq: foreign CQ handle")
	}
	var qp *rnic.QP
	if err := d.f.call(p, "create_qp", func(b *Backend) (err error) {
		qp, err = b.createQP(p, d.f.sess, rpd.pd, scq.cq, rcq.cq, typ, caps)
		return err
	}); err != nil {
		return nil, err
	}
	return fqp{d: d, qp: qp}, nil
}

type fsrq struct {
	d *fdevice
	s *rnic.SRQ
}

// SRQ posts are pure data path (the queue is memory-mapped like the RQ).
func (x fsrq) PostRecv(p *simtime.Proc, wr verbs.RecvWR) error { return x.s.PostRecv(p, wr) }
func (x fsrq) Len() int                                        { return x.s.Len() }
func (x fsrq) Raw() *rnic.SRQ                                  { return x.s }
func (x fsrq) Destroy(p *simtime.Proc) error {
	return x.d.f.call(p, "destroy_srq", func(b *Backend) error { b.Host.Dev.DestroySRQ(p, nil, x.s); return nil })
}

// CreateSRQ is a control-path verb: forwarded to the backend.
func (d *fdevice) CreateSRQ(p *simtime.Proc, maxWR int) (verbs.SRQ, error) {
	var s *rnic.SRQ
	if err := d.f.call(p, "create_srq", func(b *Backend) error { s = b.Host.Dev.CreateSRQ(p, d.f.sess.fn, maxWR); return nil }); err != nil {
		return nil, err
	}
	return fsrq{d: d, s: s}, nil
}

// Async events (verbs.AsyncDevice): the backend injects device events into
// the session's event queue after the interrupt latency; reading them is a
// local dequeue, like ibv_get_async_event on the mapped event channel.
func (d *fdevice) GetAsyncEvent(p *simtime.Proc) verbs.AsyncEvent {
	return d.f.sess.events.Get(p)
}

func (d *fdevice) GetAsyncEventTimeout(p *simtime.Proc, t simtime.Duration) (verbs.AsyncEvent, bool) {
	return d.f.sess.events.GetTimeout(p, t)
}

func (d *fdevice) TryAsyncEvent() (verbs.AsyncEvent, bool) {
	return d.f.sess.events.TryGet()
}

// QueryGID is answered locally by vBond (pure software, not forwarded);
// the host-verb cost still applies in the guest library.
func (d *fdevice) QueryGID(p *simtime.Proc) (packet.GID, error) {
	p.Sleep(d.f.b.Host.Dev.VerbCost(rnic.VerbQueryGID))
	g := d.f.sess.vbond.GID()
	if g.IsZero() {
		return g, fmt.Errorf("masq: virtual interface has no IP; GID not initialized")
	}
	return g, nil
}

func (d *fdevice) Close(p *simtime.Proc) error {
	return d.f.call(p, "close_device", func(b *Backend) error { b.Host.Dev.Close(p); return nil })
}
