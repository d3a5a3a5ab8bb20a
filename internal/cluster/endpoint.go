package cluster

import (
	"encoding/binary"
	"fmt"

	"masq/internal/hyper"
	ooblib "masq/internal/oob"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/simtime"
	"masq/internal/trace"
	"masq/internal/verbs"
)

// oob aliases the stack type for Node fields.
type oob = ooblib.Stack

// newOOB builds a node's out-of-band stack on its host's engine; the
// resolver maps overlay destinations to VM MACs through the fabric.
func newOOB(tb *Testbed, h *hyper.Host, vni uint32, vp *overlay.VMPort) *oob {
	return ooblib.NewStack(h.Eng, vp, func(dst packet.IP) (packet.MAC, bool) {
		ep := tb.Fab.Lookup(vni, dst)
		if ep == nil {
			return packet.MAC{}, false
		}
		return ep.VMAC, true
	})
}

// Endpoint bundles the verbs resources of one side of a connection, built
// by the Fig. 1 setup phase.
type Endpoint struct {
	Node *Node
	Dev  verbs.Device
	PD   verbs.PD
	SCQ  verbs.CQ
	RCQ  verbs.CQ
	QP   verbs.QP
	MR   verbs.MR
	Buf  uint64 // the registered buffer's VA
	Len  int
	GID  packet.GID
}

// EndpointOpts tune Setup.
type EndpointOpts struct {
	BufLen   int
	Access   verbs.Access
	Type     verbs.QPType
	CQE      int
	Caps     verbs.QPCaps
	SharedCQ bool // use one CQ for send and recv
}

// DefaultEndpointOpts mirrors the paper's microbenchmark parameters.
func DefaultEndpointOpts() EndpointOpts {
	return EndpointOpts{
		BufLen: 64 * 1024,
		Access: verbs.AccessLocalWrite | verbs.AccessRemoteWrite | verbs.AccessRemoteRead,
		Type:   verbs.RC,
		CQE:    200,
		Caps:   verbs.QPCaps{MaxSendWR: 100, MaxRecvWR: 100},
	}
}

// Setup performs the Fig. 1 resource-initialization phase: open device,
// alloc PD, register a buffer, create CQs and a QP, query the GID.
func (n *Node) Setup(p *simtime.Proc, opts EndpointOpts) (*Endpoint, error) {
	if opts.BufLen == 0 {
		opts = DefaultEndpointOpts()
	}
	dev, err := n.Device(p)
	if err != nil {
		return nil, err
	}
	pd, err := dev.AllocPD(p)
	if err != nil {
		return nil, err
	}
	buf, err := n.Alloc(opts.BufLen)
	if err != nil {
		return nil, err
	}
	mr, err := dev.RegMR(p, pd, buf, opts.BufLen, opts.Access)
	if err != nil {
		return nil, err
	}
	scq, err := dev.CreateCQ(p, opts.CQE)
	if err != nil {
		return nil, err
	}
	rcq := scq
	if !opts.SharedCQ {
		if rcq, err = dev.CreateCQ(p, opts.CQE); err != nil {
			return nil, err
		}
	}
	qp, err := dev.CreateQP(p, pd, scq, rcq, opts.Type, opts.Caps)
	if err != nil {
		return nil, err
	}
	gid, err := dev.QueryGID(p)
	if err != nil {
		return nil, err
	}
	return &Endpoint{
		Node: n, Dev: dev, PD: pd, SCQ: scq, RCQ: rcq, QP: qp,
		MR: mr, Buf: buf, Len: opts.BufLen, GID: gid,
	}, nil
}

// Info returns the connection information to exchange out of band.
func (ep *Endpoint) Info() verbs.ConnInfo {
	return verbs.ConnInfo{GID: ep.GID, QPN: ep.QP.Num(), RKey: ep.MR.RKey(), Addr: ep.Buf}
}

// Close tears down the endpoint's verbs resources: the QP first (flushing
// its conntrack state on MasQ), then the CQs and the MR. Errors are
// ignored — Close runs on already-broken endpoints during reconnect, where
// some handles may be dead.
func (ep *Endpoint) Close(p *simtime.Proc) {
	if ep.QP != nil {
		_ = ep.QP.Destroy(p)
	}
	if ep.SCQ != nil {
		_ = ep.SCQ.Destroy(p)
	}
	if ep.RCQ != nil && ep.RCQ != ep.SCQ {
		_ = ep.RCQ.Destroy(p)
	}
	if ep.MR != nil {
		_ = ep.MR.Dereg(p)
	}
}

// MarshalConnInfo encodes ci for the out-of-band channel (the bytes that
// really cross the overlay).
func MarshalConnInfo(ci verbs.ConnInfo) []byte { return marshalInfo(ci) }

// UnmarshalConnInfo decodes an out-of-band ConnInfo message.
func UnmarshalConnInfo(b []byte) (verbs.ConnInfo, error) { return unmarshalInfo(b) }

// connInfo wire codec (the bytes that really cross the overlay channel).
func marshalInfo(ci verbs.ConnInfo) []byte {
	b := make([]byte, 16+4+4+8)
	copy(b[0:16], ci.GID[:])
	binary.BigEndian.PutUint32(b[16:20], ci.QPN)
	binary.BigEndian.PutUint32(b[20:24], ci.RKey)
	binary.BigEndian.PutUint64(b[24:32], ci.Addr)
	return b
}

func unmarshalInfo(b []byte) (verbs.ConnInfo, error) {
	if len(b) != 32 {
		return verbs.ConnInfo{}, fmt.Errorf("cluster: conn info is %d bytes, want 32", len(b))
	}
	var ci verbs.ConnInfo
	copy(ci.GID[:], b[0:16])
	ci.QPN = binary.BigEndian.Uint32(b[16:20])
	ci.RKey = binary.BigEndian.Uint32(b[20:24])
	ci.Addr = binary.BigEndian.Uint64(b[24:32])
	return ci, nil
}

// ExchangeServer listens on port, accepts one peer, and swaps ConnInfo
// (Fig. 1's "exchange connection information through TCP/IP socket").
func (ep *Endpoint) ExchangeServer(p *simtime.Proc, port uint16) (verbs.ConnInfo, error) {
	sp := ep.Node.tb.Trace.Begin(p, trace.LayerOOB, "exchange-server")
	defer sp.End(p)
	l, err := ep.Node.OOB.Listen(port)
	if err != nil {
		return verbs.ConnInfo{}, err
	}
	conn := l.Accept(p)
	defer conn.Close()
	msg, err := conn.Recv(p)
	if err != nil {
		return verbs.ConnInfo{}, err
	}
	peer, err := unmarshalInfo(msg)
	if err != nil {
		return verbs.ConnInfo{}, err
	}
	if err := conn.Send(p, marshalInfo(ep.Info())); err != nil {
		return verbs.ConnInfo{}, err
	}
	return peer, nil
}

// ExchangeClient dials the server and swaps ConnInfo.
func (ep *Endpoint) ExchangeClient(p *simtime.Proc, server packet.IP, port uint16, timeout simtime.Duration) (verbs.ConnInfo, error) {
	sp := ep.Node.tb.Trace.Begin(p, trace.LayerOOB, "exchange-client")
	defer sp.End(p)
	conn, err := ep.Node.OOB.Dial(p, server, port, timeout)
	if err != nil {
		return verbs.ConnInfo{}, err
	}
	defer conn.Close()
	if err := conn.Send(p, marshalInfo(ep.Info())); err != nil {
		return verbs.ConnInfo{}, err
	}
	msg, err := conn.RecvTimeout(p, timeout)
	if err != nil {
		return verbs.ConnInfo{}, err
	}
	return unmarshalInfo(msg)
}

// ConnectRC walks the QP to RTS against the peer (RESET→INIT→RTR→RTS).
func (ep *Endpoint) ConnectRC(p *simtime.Proc, peer verbs.ConnInfo) error {
	if err := ep.QP.Modify(p, verbs.Attr{ToState: verbs.StateInit}); err != nil {
		return err
	}
	if err := ep.QP.Modify(p, verbs.Attr{ToState: verbs.StateRTR, DGID: peer.GID, DQPN: peer.QPN}); err != nil {
		return err
	}
	return ep.QP.Modify(p, verbs.Attr{ToState: verbs.StateRTS})
}

// Pair connects two endpoints whose owners run in separate processes,
// returning each side's view of the peer. It is the whole Fig. 1 setup +
// exchange for tests and benchmarks. Port numbers must be unique per pair.
func Pair(eng *simtime.Engine, server, client *Endpoint, port uint16) (serverErr, clientErr *simtime.Event[error]) {
	serverErr = simtime.NewEvent[error](eng)
	clientErr = simtime.NewEvent[error](eng)
	eng.Spawn("pair-server", func(p *simtime.Proc) {
		peer, err := server.ExchangeServer(p, port)
		if err == nil {
			err = server.ConnectRC(p, peer)
		}
		serverErr.Trigger(err)
	})
	eng.Spawn("pair-client", func(p *simtime.Proc) {
		peer, err := client.ExchangeClient(p, server.Node.VIP, port, simtime.Ms(50))
		if err == nil {
			err = client.ConnectRC(p, peer)
		}
		clientErr.Trigger(err)
	})
	return serverErr, clientErr
}
