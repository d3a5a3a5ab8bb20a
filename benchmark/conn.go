package main

import (
	"bytes"
	"errors"
	"fmt"

	"masq/internal/cluster"
	"masq/internal/packet"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// slotSize is the per-connection buffer slot a connection writes from
// and into; slots is how many each VM registers.
const (
	slotSize = 1024
	slots    = 256
)

// vmCtx is one VM's long-lived verbs state: an open device, a protection
// domain, and one registered buffer of slots.
type vmCtx struct {
	node *cluster.Node
	dev  verbs.Device
	pd   verbs.PD
	mr   verbs.MR
	buf  uint64
	gid  packet.GID
}

// openVM opens a VM's device and registers its buffer.
func openVM(p *simtime.Proc, n *cluster.Node) (*vmCtx, error) {
	dev, err := n.Device(p)
	if err != nil {
		return nil, err
	}
	pd, err := dev.AllocPD(p)
	if err != nil {
		return nil, err
	}
	buf, err := n.Alloc(slots * slotSize)
	if err != nil {
		return nil, err
	}
	mr, err := dev.RegMR(p, pd, buf, slots*slotSize, verbs.AccessLocalWrite|verbs.AccessRemoteWrite)
	if err != nil {
		return nil, err
	}
	gid, err := dev.QueryGID(p)
	if err != nil {
		return nil, err
	}
	return &vmCtx{node: n, dev: dev, pd: pd, mr: mr, buf: buf, gid: gid}, nil
}

func (v *vmCtx) slotAddr(slot int) uint64 { return v.buf + uint64(slot%slots)*slotSize }

// connection is one RC connection between a client and a server VM. The
// client side runs in the caller's proc; the server side in its own.
type connection struct {
	req      int
	cli, srv *vmCtx
	vc       *verbClock
	root     int            // the connection's root span, -1 untraced
	onRTR    func(end bool) // called as the client's modify_rtr starts and ends

	cq verbs.CQ
	qp verbs.QP

	srvQPN   *simtime.Event[uint32] // 0: the server side failed
	cliQPN   *simtime.Event[uint32] // 0: the client side failed
	srvReady *simtime.Event[error]  // server reached RTS
	close    *simtime.Event[bool]   // client is done; the server tears down
	srvDone  *simtime.Event[error]  // server side torn down
}

// errDenied marks a connection refused at modify_qp(RTR) by RConntrack.
var errDenied = errors.New("connection denied")

// dial establishes connection req from cli to srv: both sides create a CQ
// and a QP, swap QP numbers (the out-of-band exchange, done here by the
// benchmark), and walk INIT → RTR → RTS. The client's calls are timed
// under their verb names, the server's under "server.<verb>". onRTR, if
// not nil, brackets the client's modify_rtr, where RConntrack decides.
func dial(p *simtime.Proc, req int, cli, srv *vmCtx, vc *verbClock, root int, onRTR func(end bool)) (*connection, error) {
	eng := p.Engine()
	c := &connection{req: req, cli: cli, srv: srv, vc: vc, root: root, onRTR: onRTR,
		srvQPN: simtime.NewEvent[uint32](eng), cliQPN: simtime.NewEvent[uint32](eng),
		srvReady: simtime.NewEvent[error](eng), close: simtime.NewEvent[bool](eng),
		srvDone: simtime.NewEvent[error](eng)}
	eng.Spawn(fmt.Sprintf("server-%d", req), c.serve)

	if err := c.call(p, "create_cq", func() (err error) { c.cq, err = cli.dev.CreateCQ(p, 4); return }); err != nil {
		c.cliQPN.Trigger(0)
		return c, err
	}
	if err := c.call(p, "create_qp", func() (err error) {
		c.qp, err = cli.dev.CreateQP(p, cli.pd, c.cq, c.cq, verbs.RC, verbs.QPCaps{MaxSendWR: 4, MaxRecvWR: 1})
		return
	}); err != nil {
		c.cliQPN.Trigger(0)
		return c, err
	}
	c.cliQPN.Trigger(c.qp.Num())
	var peer uint32
	c.call(p, "exchange", func() error { peer = c.srvQPN.Wait(p); return nil })
	if peer == 0 {
		return c, errors.New("server side failed before exchanging its QP number")
	}
	if err := c.connectQP(p, "", c.qp, srv.gid, peer); err != nil {
		return c, err
	}
	return c, c.call(p, "server_ready", func() error { return c.srvReady.Wait(p) })
}

// serve is the server side of a connection.
func (c *connection) serve(p *simtime.Proc) {
	var cq verbs.CQ
	var qp verbs.QP
	err := c.call(p, "server.create_cq", func() (err error) { cq, err = c.srv.dev.CreateCQ(p, 4); return })
	if err == nil {
		err = c.call(p, "server.create_qp", func() (err error) {
			qp, err = c.srv.dev.CreateQP(p, c.srv.pd, cq, cq, verbs.RC, verbs.QPCaps{MaxSendWR: 1, MaxRecvWR: 1})
			return
		})
	}
	if err != nil {
		c.srvQPN.Trigger(0)
	} else {
		c.srvQPN.Trigger(qp.Num())
		if peer := c.cliQPN.Wait(p); peer == 0 {
			err = errors.New("client side failed before exchanging its QP number")
		} else {
			err = c.connectQP(p, "server.", qp, c.cli.gid, peer)
		}
	}
	c.srvReady.Trigger(err)
	if qp != nil {
		c.close.Wait(p)
		err = errors.Join(err, c.call(p, "server.destroy_qp", func() error { return qp.Destroy(p) }))
	}
	if cq != nil {
		err = errors.Join(err, c.call(p, "server.destroy_cq", func() error { return cq.Destroy(p) }))
	}
	c.srvDone.Trigger(err)
}

// connectQP walks qp to RTS toward the peer. A refusal at RTR is
// reported as errDenied.
func (c *connection) connectQP(p *simtime.Proc, prefix string, qp verbs.QP, gid packet.GID, peer uint32) error {
	if err := c.call(p, prefix+"modify_init", func() error { return qp.Modify(p, verbs.Attr{ToState: verbs.StateInit}) }); err != nil {
		return err
	}
	hook := c.onRTR
	if prefix != "" || hook == nil {
		hook = func(bool) {}
	}
	hook(false)
	err := c.call(p, prefix+"modify_rtr", func() error {
		return qp.Modify(p, verbs.Attr{ToState: verbs.StateRTR, DGID: gid, DQPN: peer})
	})
	hook(true)
	if err != nil {
		return fmt.Errorf("%w: %v", errDenied, err)
	}
	return c.call(p, prefix+"modify_rts", func() error { return qp.Modify(p, verbs.Attr{ToState: verbs.StateRTS}) })
}

func (c *connection) call(p *simtime.Proc, name string, fn func() error) error {
	return c.vc.call(p, c.req, c.root, name, fn)
}

// write RDMA-writes payload from the client's slot into the server's and
// waits for its completion. It reports the completion status; a success
// is then checked against the server's memory.
func (c *connection) write(p *simtime.Proc, slot int, payload []byte) (verbs.WCStatus, error) {
	var wc verbs.WC
	err := c.call(p, "write", func() error {
		if err := c.cli.node.Write(c.cli.slotAddr(slot), payload); err != nil {
			return err
		}
		if err := c.qp.PostSend(p, verbs.SendWR{WRID: uint64(c.req), Op: verbs.WRWrite,
			LocalAddr: c.cli.slotAddr(slot), LKey: c.cli.mr.LKey(), Len: len(payload),
			RemoteAddr: c.srv.slotAddr(slot), RKey: c.srv.mr.RKey()}); err != nil {
			return err
		}
		wc = c.cq.Wait(p)
		return nil
	})
	if err != nil || wc.Status != verbs.WCSuccess {
		return wc.Status, err
	}
	got := make([]byte, len(payload))
	if err := c.srv.node.Read(c.srv.slotAddr(slot), got); err != nil {
		return wc.Status, err
	}
	if !bytes.Equal(got, payload) {
		return wc.Status, fmt.Errorf("connection %d: server memory does not hold the written payload", c.req)
	}
	return wc.Status, nil
}

// teardown destroys both sides' QP and CQ and waits for the server side.
func (c *connection) teardown(p *simtime.Proc) error {
	var err error
	if c.qp != nil {
		err = c.call(p, "destroy_qp", func() error { return c.qp.Destroy(p) })
	}
	if c.cq != nil {
		err = errors.Join(err, c.call(p, "destroy_cq", func() error { return c.cq.Destroy(p) }))
	}
	c.close.Trigger(true)
	return errors.Join(err, c.call(p, "server_done", func() error { return c.srvDone.Wait(p) }))
}
