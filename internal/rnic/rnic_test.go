package rnic

import (
	"bytes"
	"errors"
	"testing"

	"masq/internal/mem"
	"masq/internal/packet"
	"masq/internal/simnet"
	"masq/internal/simtime"
)

// node bundles one simulated host: memory, device, port.
type node struct {
	phys *mem.Phys
	hva  *mem.AddrSpace
	dev  *Device
	port *simnet.Port
}

// env is a two-host testbed with a direct 40 Gbps link.
type env struct {
	eng  *simtime.Engine
	a, b *node
	link *simnet.Link
}

func newNode(eng *simtime.Engine, name string, ip packet.IP, mac packet.MAC, p Params) *node {
	phys := mem.NewPhys(16 << 30)
	hva := mem.NewAddrSpace(name+".hva", phys, phys.AllocPages)
	dev := NewDevice(eng, name, p, phys)
	dev.PF().SetAddr(ip, mac)
	port := simnet.NewPort(eng, name+".port")
	servePort(dev, port)
	return &node{phys: phys, hva: hva, dev: dev, port: port}
}

// servePort attaches the port and pumps every RoCEv2 frame arriving on it
// into the device: RDMA-only wiring. Hosts that share the port with an
// overlay network run their own demultiplexer and feed Ingress themselves.
func servePort(d *Device, port *simnet.Port) {
	d.AttachPort(port)
	var serve func(simnet.Frame)
	serve = func(f simnet.Frame) {
		for {
			pkt, err := d.pktPool.Decode(f)
			if err != nil {
				d.Stats.Dropped++
			} else if u := pkt.UDP(); u != nil && (u.DstPort == packet.PortRoCEv2 || u.DstPort == packet.PortRoCEShared) {
				d.Ingress.Put(pkt)
			} else {
				pkt.Release()
			}
			var ok bool
			f, ok = port.RX.TryGet()
			if !ok {
				port.RX.OnNext(serve)
				return
			}
		}
	}
	port.RX.OnNext(serve)
}

func newEnv(t testing.TB) *env {
	t.Helper()
	return newEnvParams(t, DefaultParams())
}

func newEnvParams(t testing.TB, p Params) *env {
	t.Helper()
	eng := simtime.NewEngine()
	a := newNode(eng, "devA", packet.NewIP(10, 0, 0, 1), packet.MAC{2, 0, 0, 0, 0, 1}, p)
	b := newNode(eng, "devB", packet.NewIP(10, 0, 0, 2), packet.MAC{2, 0, 0, 0, 0, 2}, p)
	link := simnet.Connect(eng, a.port, b.port, p.LineRate, simtime.Us(0.1))
	return &env{eng: eng, a: a, b: b, link: link}
}

// buffer allocates and registers a buffer on node n.
func (n *node) buffer(t testing.TB, p *simtime.Proc, pd *PD, size int, access Access) (uint64, *MR) {
	t.Helper()
	va, err := n.hva.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := n.hva.Pin(va, size)
	if err != nil {
		t.Fatal(err)
	}
	mr := n.dev.RegMR(p, n.dev.PF(), pd, va, size, ext, access)
	return va, mr
}

// endpoint is one side of an RC connection in tests.
type endpoint struct {
	n        *node
	fn       *Func
	pd       *PD
	scq, rcq *CQ
	qp       *QP
}

func makeEndpoint(t testing.TB, p *simtime.Proc, n *node, typ QPType) *endpoint {
	t.Helper()
	fn := n.dev.PF()
	pd := n.dev.AllocPD(p, fn)
	scq := n.dev.CreateCQ(p, fn, 200)
	rcq := n.dev.CreateCQ(p, fn, 200)
	qp := n.dev.CreateQP(p, fn, pd, scq, rcq, typ, DefaultCaps())
	return &endpoint{n: n, fn: fn, pd: pd, scq: scq, rcq: rcq, qp: qp}
}

func av(peer *endpoint) AddressVector {
	return AddressVector{
		DGID: peer.fn.GID(0),
		DIP:  peer.fn.IP,
		DMAC: peer.fn.MAC,
		DQPN: peer.qp.Num,
	}
}

// connect brings both QPs to RTS pointing at each other (Fig. 1 setup).
func connect(t testing.TB, p *simtime.Proc, x, y *endpoint) {
	t.Helper()
	for _, pair := range []struct{ self, peer *endpoint }{{x, y}, {y, x}} {
		dev := pair.self.n.dev
		if err := dev.ModifyQP(p, pair.self.qp, Attr{ToState: StateInit}); err != nil {
			t.Fatal(err)
		}
		if err := dev.ModifyQP(p, pair.self.qp, Attr{ToState: StateRTR, AV: av(pair.peer)}); err != nil {
			t.Fatal(err)
		}
		if err := dev.ModifyQP(p, pair.self.qp, Attr{ToState: StateRTS}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRCSendRecvSmall(t *testing.T) {
	e := newEnv(t)
	msg := []byte("hi")
	var recvWC, sendWC WC
	var recvBuf []byte
	e.eng.Spawn("test", func(p *simtime.Proc) {
		client := makeEndpoint(t, p, e.a, RC)
		server := makeEndpoint(t, p, e.b, RC)
		connect(t, p, client, server)

		sva, smr := e.a.buffer(t, p, client.pd, 4096, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, server.pd, 4096, AccessLocalWrite)
		e.a.hva.Write(sva, msg)

		server.qp.PostRecv(p, RecvWR{WRID: 7, Addr: rva, LKey: rmr.LKey, Len: 4096})
		client.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: len(msg)})

		recvWC = server.rcq.Wait(p)
		sendWC = client.scq.Wait(p)
		recvBuf = make([]byte, len(msg))
		e.b.hva.Read(rva, recvBuf)
	})
	e.eng.Run()
	if recvWC.Status != WCSuccess || recvWC.WRID != 7 || recvWC.ByteLen != len(msg) {
		t.Fatalf("recv WC = %+v", recvWC)
	}
	if sendWC.Status != WCSuccess || sendWC.WRID != 1 {
		t.Fatalf("send WC = %+v", sendWC)
	}
	if !bytes.Equal(recvBuf, msg) {
		t.Fatalf("payload = %q", recvBuf)
	}
}

func TestRCSendMultiPacket(t *testing.T) {
	e := newEnv(t)
	const size = 10000 // 3 packets at MTU 4096
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i * 7)
	}
	var got []byte
	var txPkts uint64
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, size, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, size, AccessLocalWrite)
		e.a.hva.Write(sva, src)
		s.qp.PostRecv(p, RecvWR{WRID: 1, Addr: rva, LKey: rmr.LKey, Len: size})
		c.qp.PostSend(p, SendWR{WRID: 2, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: size})
		wc := s.rcq.Wait(p)
		if wc.ByteLen != size {
			t.Errorf("ByteLen = %d", wc.ByteLen)
		}
		c.scq.Wait(p)
		got = make([]byte, size)
		e.b.hva.Read(rva, got)
		txPkts = e.a.dev.Stats.TxPackets
	})
	e.eng.Run()
	if !bytes.Equal(got, src) {
		t.Fatal("multi-packet payload corrupted")
	}
	if txPkts != 3 {
		t.Fatalf("TxPackets = %d, want 3", txPkts)
	}
}

func TestRDMAWrite(t *testing.T) {
	e := newEnv(t)
	msg := []byte("one-sided write payload")
	var got []byte
	var rcqLen int
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 4096, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 4096, AccessLocalWrite|AccessRemoteWrite)
		e.a.hva.Write(sva, msg)
		c.qp.PostSend(p, SendWR{
			WRID: 3, Op: WRWrite, LocalAddr: sva, LKey: smr.LKey, Len: len(msg),
			RemoteAddr: rva, RKey: rmr.RKey,
		})
		wc := c.scq.Wait(p)
		if wc.Status != WCSuccess {
			t.Errorf("write WC = %+v", wc)
		}
		got = make([]byte, len(msg))
		e.b.hva.Read(rva, got)
		rcqLen = s.rcq.Len()
	})
	e.eng.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("remote memory = %q", got)
	}
	if rcqLen != 0 {
		t.Fatal("one-sided write must not generate a receive completion")
	}
}

func TestRDMAWriteImmConsumesRecvWQE(t *testing.T) {
	e := newEnv(t)
	var wc WC
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite|AccessRemoteWrite)
		s.qp.PostRecv(p, RecvWR{WRID: 11, Addr: rva, LKey: rmr.LKey, Len: 64})
		c.qp.PostSend(p, SendWR{
			WRID: 4, Op: WRWriteImm, LocalAddr: sva, LKey: smr.LKey, Len: 8,
			RemoteAddr: rva, RKey: rmr.RKey, Imm: 0xfeed,
		})
		wc = s.rcq.Wait(p)
		c.scq.Wait(p)
	})
	e.eng.Run()
	if wc.WRID != 11 || !wc.HasImm || wc.Imm != 0xfeed {
		t.Fatalf("write-imm recv WC = %+v", wc)
	}
}

func TestRDMARead(t *testing.T) {
	e := newEnv(t)
	const size = 9000
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i ^ 0x5a)
	}
	var got []byte
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		lva, lmr := e.a.buffer(t, p, c.pd, size, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, size, AccessLocalWrite|AccessRemoteRead)
		e.b.hva.Write(rva, src)
		c.qp.PostSend(p, SendWR{
			WRID: 5, Op: WRRead, LocalAddr: lva, LKey: lmr.LKey, Len: size,
			RemoteAddr: rva, RKey: rmr.RKey,
		})
		wc := c.scq.Wait(p)
		if wc.Status != WCSuccess || wc.WRID != 5 {
			t.Errorf("read WC = %+v", wc)
		}
		got = make([]byte, size)
		e.a.hva.Read(lva, got)
	})
	e.eng.Run()
	if !bytes.Equal(got, src) {
		t.Fatal("read payload corrupted")
	}
}

func TestWriteBadRKeyErrorsQP(t *testing.T) {
	e := newEnv(t)
	var wc WC
	var state State
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, _ := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite|AccessRemoteWrite)
		c.qp.PostSend(p, SendWR{
			WRID: 6, Op: WRWrite, LocalAddr: sva, LKey: smr.LKey, Len: 8,
			RemoteAddr: rva, RKey: 0xdead, // bogus
		})
		wc = c.scq.Wait(p)
		state = c.qp.State()
	})
	e.eng.Run()
	if wc.Status != WCRemoteAccessErr {
		t.Fatalf("WC = %+v, want REM_ACCESS_ERR", wc)
	}
	if state != StateError {
		t.Fatalf("QP state = %v, want ERROR", state)
	}
}

func TestWriteOutOfBoundsRejected(t *testing.T) {
	e := newEnv(t)
	var wc WC
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 4096, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite|AccessRemoteWrite)
		c.qp.PostSend(p, SendWR{
			WRID: 7, Op: WRWrite, LocalAddr: sva, LKey: smr.LKey, Len: 128, // > 64
			RemoteAddr: rva, RKey: rmr.RKey,
		})
		wc = c.scq.Wait(p)
	})
	e.eng.Run()
	if wc.Status != WCRemoteAccessErr {
		t.Fatalf("WC = %+v, want REM_ACCESS_ERR (bounds)", wc)
	}
}

func TestWriteWithoutPermissionRejected(t *testing.T) {
	e := newEnv(t)
	var wc WC
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite) // no RemoteWrite
		c.qp.PostSend(p, SendWR{
			WRID: 8, Op: WRWrite, LocalAddr: sva, LKey: smr.LKey, Len: 8,
			RemoteAddr: rva, RKey: rmr.RKey,
		})
		wc = c.scq.Wait(p)
	})
	e.eng.Run()
	if wc.Status != WCRemoteAccessErr {
		t.Fatalf("WC = %+v, want REM_ACCESS_ERR (permission)", wc)
	}
}

func TestWritePDMismatchRejected(t *testing.T) {
	e := newEnv(t)
	var wc WC
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		// Register the target MR under a DIFFERENT PD on the server.
		otherPD := e.b.dev.AllocPD(p, e.b.dev.PF())
		rva, rmr := e.b.buffer(t, p, otherPD, 64, AccessLocalWrite|AccessRemoteWrite)
		c.qp.PostSend(p, SendWR{
			WRID: 9, Op: WRWrite, LocalAddr: sva, LKey: smr.LKey, Len: 8,
			RemoteAddr: rva, RKey: rmr.RKey,
		})
		wc = c.scq.Wait(p)
	})
	e.eng.Run()
	if wc.Status != WCRemoteAccessErr {
		t.Fatalf("WC = %+v, want REM_ACCESS_ERR (PD mismatch)", wc)
	}
}

func TestRNRRetrySucceedsAfterPostRecv(t *testing.T) {
	e := newEnv(t)
	var recvWC WC
	var rnrs uint64
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite)
		e.a.hva.Write(sva, []byte("late"))
		// Send with NO receive buffer posted.
		c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 4})
		p.Sleep(simtime.Us(200)) // a couple of RNR cycles
		s.qp.PostRecv(p, RecvWR{WRID: 2, Addr: rva, LKey: rmr.LKey, Len: 64})
		recvWC = s.rcq.Wait(p)
		rnrs = e.b.dev.Stats.RNRsSent
	})
	e.eng.Run()
	if recvWC.Status != WCSuccess {
		t.Fatalf("recv WC = %+v", recvWC)
	}
	if rnrs == 0 {
		t.Fatal("expected at least one RNR NAK")
	}
}

func TestRetransmitAfterDataLoss(t *testing.T) {
	e := newEnv(t)
	dropped := false
	e.link.Drop = func(f simnet.Frame) bool {
		// Drop the first RoCE data frame A→B once.
		if dropped || f.SrcMAC() != (packet.MAC{2, 0, 0, 0, 0, 1}) {
			return false
		}
		pkt, err := packet.Decode(f)
		if err != nil || pkt.BTH() == nil || pkt.BTH().OpCode == packet.OpAcknowledge {
			return false
		}
		dropped = true
		return true
	}
	var recvWC WC
	var retrans uint64
	var recvCount int
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite)
		e.a.hva.Write(sva, []byte("lost then found"))
		s.qp.PostRecv(p, RecvWR{WRID: 2, Addr: rva, LKey: rmr.LKey, Len: 64})
		c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 15})
		recvWC = s.rcq.Wait(p)
		p.Sleep(simtime.Ms(20)) // past any stray timers
		retrans = e.a.dev.Stats.Retransmits
		recvCount = 1 + s.rcq.Len()
	})
	e.eng.Run()
	if !dropped {
		t.Fatal("drop hook never fired")
	}
	if recvWC.Status != WCSuccess || recvWC.ByteLen != 15 {
		t.Fatalf("recv WC = %+v", recvWC)
	}
	if retrans == 0 {
		t.Fatal("no retransmission recorded")
	}
	if recvCount != 1 {
		t.Fatalf("message delivered %d times", recvCount)
	}
}

func TestDuplicateAfterAckLossNotRedelivered(t *testing.T) {
	e := newEnv(t)
	dropped := false
	e.link.Drop = func(f simnet.Frame) bool {
		if dropped || f.SrcMAC() != (packet.MAC{2, 0, 0, 0, 0, 2}) {
			return false
		}
		pkt, err := packet.Decode(f)
		if err != nil || pkt.BTH() == nil || pkt.BTH().OpCode != packet.OpAcknowledge {
			return false
		}
		dropped = true
		return true
	}
	var sendWC WC
	var recvTotal int
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite)
		s.qp.PostRecv(p, RecvWR{WRID: 2, Addr: rva, LKey: rmr.LKey, Len: 64})
		s.qp.PostRecv(p, RecvWR{WRID: 3, Addr: rva, LKey: rmr.LKey, Len: 64})
		c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 8})
		sendWC = c.scq.Wait(p) // completes after the retransmitted packet is re-acked
		p.Sleep(simtime.Ms(20))
		recvTotal = s.rcq.Len()
	})
	e.eng.Run()
	if !dropped {
		t.Fatal("ack drop hook never fired")
	}
	if sendWC.Status != WCSuccess {
		t.Fatalf("send WC = %+v", sendWC)
	}
	if recvTotal != 1 {
		t.Fatalf("receiver completed %d WQEs, want 1 (duplicate must be ignored)", recvTotal)
	}
}

// TestRCReadSurvivesResponseLoss drops one frame of a 9000 B RC READ, its
// request or one of its three responses at MTU 4096, once. The requester
// must take responses only in order, so a gap keeps the retransmit timer
// armed, and the responder must answer the re-issued (duplicate) request
// with the data again. The READ then completes once, with the right data,
// and so does a WRITE posted behind it, whose ACK reaches the requester
// before the READ's responses do. With nothing lost, both complete with no
// retransmission.
func TestRCReadSurvivesResponseLoss(t *testing.T) {
	const size = 9000
	cases := []struct {
		name string
		src  packet.MAC // the sender of the lost frame; zero loses none
		op   packet.OpCode
	}{
		{"nothing", packet.MAC{}, 0},
		{"request", packet.MAC{2, 0, 0, 0, 0, 1}, packet.OpReadRequest},
		{"first", packet.MAC{2, 0, 0, 0, 0, 2}, packet.OpReadResponseFirst},
		{"middle", packet.MAC{2, 0, 0, 0, 0, 2}, packet.OpReadResponseMiddle},
		{"last", packet.MAC{2, 0, 0, 0, 0, 2}, packet.OpReadResponseLast},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t)
			dropped := false
			e.link.Drop = func(f simnet.Frame) bool {
				if dropped || f.SrcMAC() != tc.src {
					return false
				}
				pkt, err := packet.Decode(f)
				if err != nil || pkt.BTH() == nil || pkt.BTH().OpCode != tc.op {
					return false
				}
				dropped = true
				return true
			}
			src := make([]byte, size)
			for i := range src {
				src[i] = byte(i * 13)
			}
			var wcs []WC
			var got []byte
			var stray int
			e.eng.Spawn("test", func(p *simtime.Proc) {
				c := makeEndpoint(t, p, e.a, RC)
				s := makeEndpoint(t, p, e.b, RC)
				connect(t, p, c, s)
				// The WRITE goes past the READ's source: a re-issued READ
				// runs after it at the responder.
				lva, lmr := e.a.buffer(t, p, c.pd, size+64, AccessLocalWrite)
				rva, rmr := e.b.buffer(t, p, s.pd, size+64, AccessLocalWrite|AccessRemoteRead|AccessRemoteWrite)
				e.b.hva.Write(rva, src)
				c.qp.PostSend(p, SendWR{WRID: 1, Op: WRRead, LocalAddr: lva, LKey: lmr.LKey, Len: size, RemoteAddr: rva, RKey: rmr.RKey})
				c.qp.PostSend(p, SendWR{WRID: 2, Op: WRWrite, LocalAddr: lva + size, LKey: lmr.LKey, Len: 64, RemoteAddr: rva + size, RKey: rmr.RKey})
				for range 2 {
					wc, ok := c.scq.WaitTimeout(p, simtime.Ms(100))
					if !ok {
						return
					}
					wcs = append(wcs, wc)
				}
				got = make([]byte, size)
				e.a.hva.Read(lva, got)
				p.Sleep(simtime.Ms(50)) // past every retransmit timer
				stray = c.scq.Len()
			})
			e.eng.RunUntil(simtime.Time(simtime.Ms(500)))
			lose := tc.src != (packet.MAC{})
			if dropped != lose {
				t.Fatalf("drop hook fired: %v, want %v", dropped, lose)
			}
			if len(wcs) < 2 {
				t.Fatalf("completions within 100 ms each: %+v; want the READ's and the WRITE's", wcs)
			}
			if wcs[0].WRID != 1 || wcs[0].Status != WCSuccess || wcs[1].WRID != 2 || wcs[1].Status != WCSuccess {
				t.Fatalf("completions %+v; want READ (WRID 1) then WRITE (WRID 2), both successful", wcs)
			}
			if !bytes.Equal(got, src) {
				t.Fatal("READ data differs from the responder's memory")
			}
			if stray != 0 {
				t.Fatalf("%d more completions after the READ and the WRITE", stray)
			}
			if r := e.a.dev.Stats.Retransmits; lose && r < 1 || !lose && r != 0 {
				t.Fatalf("Retransmits = %d with a frame lost: %v", r, lose)
			}
		})
	}
}

func TestQPStateMachine(t *testing.T) {
	e := newEnv(t)
	e.eng.Spawn("test", func(p *simtime.Proc) {
		x := makeEndpoint(t, p, e.a, RC)
		dev := e.a.dev
		// RESET → RTR is illegal.
		if err := dev.ModifyQP(p, x.qp, Attr{ToState: StateRTR}); !errors.Is(err, ErrBadTransition) {
			t.Errorf("RESET→RTR err = %v", err)
		}
		// RESET → RTS is illegal.
		if err := dev.ModifyQP(p, x.qp, Attr{ToState: StateRTS}); !errors.Is(err, ErrBadTransition) {
			t.Errorf("RESET→RTS err = %v", err)
		}
		must := func(s State) {
			if err := dev.ModifyQP(p, x.qp, Attr{ToState: s}); err != nil {
				t.Fatalf("→%v: %v", s, err)
			}
		}
		must(StateInit)
		must(StateRTR)
		must(StateRTS)
		must(StateSQD)
		must(StateRTS)
		// Any state → ERROR (dashed arrows in Fig. 5).
		must(StateError)
		// ERROR → RESET recovers.
		must(StateReset)
		must(StateInit)
	})
	e.eng.Run()
}

// TestTable2ErrorStateBehavior verifies every row of the paper's Table 2.
func TestTable2ErrorStateBehavior(t *testing.T) {
	e := newEnv(t)
	var flushed []WC
	var postSendErr, postRecvErr error
	var delivered int
	var txAfterError uint64
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite)

		// Outstanding work on the RECEIVER, then force it to ERROR.
		s.qp.PostRecv(p, RecvWR{WRID: 100, Addr: rva, LKey: rmr.LKey, Len: 64})
		if err := e.b.dev.ModifyQP(p, s.qp, Attr{ToState: StateError}); err != nil {
			t.Fatal(err)
		}
		// Row: poll completion queue → allowed but error CQE (flush).
		wc, ok := s.rcq.WaitTimeout(p, simtime.Ms(1))
		if ok {
			flushed = append(flushed, wc)
		}
		// Rows: post send / post receive → allowed (flush immediately).
		postRecvErr = s.qp.PostRecv(p, RecvWR{WRID: 101, Addr: rva, LKey: rmr.LKey, Len: 64})
		postSendErr = s.qp.PostSend(p, SendWR{WRID: 102, Op: WRSend, LocalAddr: rva, LKey: rmr.LKey, Len: 4})
		for i := 0; i < 2; i++ {
			if wc, ok := s.rcq.WaitTimeout(p, simtime.Ms(1)); ok {
				flushed = append(flushed, wc)
			} else if wc, ok := s.scq.WaitTimeout(p, simtime.Ms(1)); ok {
				flushed = append(flushed, wc)
			}
		}
		// Row: incoming packets → dropped. Send into the dead QP.
		c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 4})
		p.Sleep(simtime.Ms(50))
		delivered = s.rcq.Len()
		// Row: outgoing packets → none.
		txAfterError = e.b.dev.Stats.TxMsgs
	})
	e.eng.Run()
	if len(flushed) != 3 {
		t.Fatalf("flushed %d WCs, want 3: %+v", len(flushed), flushed)
	}
	for _, wc := range flushed {
		if wc.Status != WCFlushErr {
			t.Errorf("WC %d status = %v, want WR_FLUSH_ERR", wc.WRID, wc.Status)
		}
	}
	if postSendErr != nil || postRecvErr != nil {
		t.Errorf("posting in ERROR must be allowed: send=%v recv=%v", postSendErr, postRecvErr)
	}
	if delivered != 0 {
		t.Error("incoming packet was processed in ERROR state")
	}
	if txAfterError != 0 {
		t.Error("QP in ERROR emitted messages")
	}
}

func TestSendToErroredPeerRetriesOut(t *testing.T) {
	pr := DefaultParams()
	pr.RetransTimeout = simtime.Us(200)
	pr.MaxRetry = 2
	e := newEnvParams(t, pr)
	var wc WC
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		e.b.dev.ModifyQP(p, s.qp, Attr{ToState: StateError})
		c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 4})
		wc = c.scq.Wait(p)
	})
	e.eng.Run()
	if wc.Status != WCRetryExceeded {
		t.Fatalf("WC = %+v, want RETRY_EXC_ERR", wc)
	}
}

func TestUDSendRecv(t *testing.T) {
	e := newEnv(t)
	var wc WC
	var got []byte
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, UD)
		s := makeEndpoint(t, p, e.b, UD)
		for _, pair := range []struct{ self, peer *endpoint }{{c, s}, {s, c}} {
			dev := pair.self.n.dev
			dev.ModifyQP(p, pair.self.qp, Attr{ToState: StateInit})
			dev.ModifyQP(p, pair.self.qp, Attr{ToState: StateRTR, AV: av(pair.peer), QKey: 0x1234})
			dev.ModifyQP(p, pair.self.qp, Attr{ToState: StateRTS})
		}
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite)
		e.a.hva.Write(sva, []byte("dgram!"))
		s.qp.PostRecv(p, RecvWR{WRID: 9, Addr: rva, LKey: rmr.LKey, Len: 64})
		c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 6, QKey: 0x1234})
		wc = s.rcq.Wait(p)
		got = make([]byte, 6)
		e.b.hva.Read(rva, got)
	})
	e.eng.Run()
	if wc.Status != WCSuccess || wc.SrcQP == 0 {
		t.Fatalf("UD recv WC = %+v", wc)
	}
	if string(got) != "dgram!" {
		t.Fatalf("payload = %q", got)
	}
}

func TestUDQKeyMismatchDropped(t *testing.T) {
	e := newEnv(t)
	var dropped uint64
	var rcqLen int
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, UD)
		s := makeEndpoint(t, p, e.b, UD)
		for _, pair := range []struct{ self, peer *endpoint }{{c, s}, {s, c}} {
			dev := pair.self.n.dev
			dev.ModifyQP(p, pair.self.qp, Attr{ToState: StateInit})
			dev.ModifyQP(p, pair.self.qp, Attr{ToState: StateRTR, AV: av(pair.peer), QKey: 0x1234})
			dev.ModifyQP(p, pair.self.qp, Attr{ToState: StateRTS})
		}
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite)
		s.qp.PostRecv(p, RecvWR{WRID: 9, Addr: rva, LKey: rmr.LKey, Len: 64})
		c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 4, QKey: 0xbad})
		p.Sleep(simtime.Ms(5))
		dropped = e.b.dev.Stats.Dropped
		rcqLen = s.rcq.Len()
	})
	e.eng.Run()
	if dropped == 0 || rcqLen != 0 {
		t.Fatalf("dropped=%d rcq=%d; datagram with wrong QKey must be discarded", dropped, rcqLen)
	}
}

func TestRateLimiterBoundsThroughput(t *testing.T) {
	e := newEnv(t)
	const limit = 5e9 // 5 Gbps
	const size = 1 << 20
	var elapsed simtime.Duration
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		c.fn.SetRateLimit(limit)
		sva, smr := e.a.buffer(t, p, c.pd, size, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, size, AccessLocalWrite|AccessRemoteWrite)
		start := p.Now()
		for i := 0; i < 8; i++ {
			c.qp.PostSend(p, SendWR{
				WRID: uint64(i), Op: WRWrite, LocalAddr: sva, LKey: smr.LKey, Len: size,
				RemoteAddr: rva, RKey: rmr.RKey,
			})
		}
		for i := 0; i < 8; i++ {
			c.scq.Wait(p)
		}
		elapsed = p.Now().Sub(start)
	})
	e.eng.Run()
	gbps := float64(8*size*8) / elapsed.Seconds() / 1e9
	if gbps > 5.5 || gbps < 4.0 {
		t.Fatalf("limited throughput = %.2f Gbps, want ≈5", gbps)
	}
}

func TestUnlimitedThroughputNearLineRate(t *testing.T) {
	e := newEnv(t)
	const size = 1 << 20
	var elapsed simtime.Duration
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, size, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, size, AccessLocalWrite|AccessRemoteWrite)
		start := p.Now()
		for i := 0; i < 16; i++ {
			c.qp.PostSend(p, SendWR{
				WRID: uint64(i), Op: WRWrite, LocalAddr: sva, LKey: smr.LKey, Len: size,
				RemoteAddr: rva, RKey: rmr.RKey,
			})
		}
		for i := 0; i < 16; i++ {
			c.scq.Wait(p)
		}
		elapsed = p.Now().Sub(start)
	})
	e.eng.Run()
	gbps := float64(16*size*8) / elapsed.Seconds() / 1e9
	if gbps < 35 || gbps > 40 {
		t.Fatalf("throughput = %.2f Gbps, want 35–40", gbps)
	}
}

func TestTwoQPsShareBandwidthFairly(t *testing.T) {
	e := newEnv(t)
	const size = 1 << 20
	var t1, t2 simtime.Duration
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c1 := makeEndpoint(t, p, e.a, RC)
		s1 := makeEndpoint(t, p, e.b, RC)
		c2 := makeEndpoint(t, p, e.a, RC)
		s2 := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c1, s1)
		connect(t, p, c2, s2)
		run := func(c *endpoint, sNode *node, s *endpoint, done *simtime.Duration) {
			e.eng.Spawn("flow", func(p *simtime.Proc) {
				sva, smr := c.n.buffer(t, p, c.pd, size, AccessLocalWrite)
				rva, rmr := sNode.buffer(t, p, s.pd, size, AccessLocalWrite|AccessRemoteWrite)
				start := p.Now()
				for i := 0; i < 8; i++ {
					c.qp.PostSend(p, SendWR{
						WRID: uint64(i), Op: WRWrite, LocalAddr: sva, LKey: smr.LKey, Len: size,
						RemoteAddr: rva, RKey: rmr.RKey,
					})
				}
				for i := 0; i < 8; i++ {
					c.scq.Wait(p)
				}
				*done = p.Now().Sub(start)
			})
		}
		run(c1, e.b, s1, &t1)
		run(c2, e.b, s2, &t2)
	})
	e.eng.Run()
	if t1 == 0 || t2 == 0 {
		t.Fatal("flows did not finish")
	}
	ratio := float64(t1) / float64(t2)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair sharing: %v vs %v", t1, t2)
	}
}

func TestConnectionSetupCostPFvsVF(t *testing.T) {
	e := newEnv(t)
	var pfTime, vfTime simtime.Duration
	e.eng.Spawn("test", func(p *simtime.Proc) {
		setup := func(fn *Func) simtime.Duration {
			dev := e.a.dev
			start := p.Now()
			pd := dev.AllocPD(p, fn)
			va, err := e.a.hva.Alloc(1024)
			if err != nil {
				t.Fatal(err)
			}
			ext, _ := e.a.hva.Pin(va, 1024)
			mr := dev.RegMR(p, fn, pd, va, 1024, ext, AccessLocalWrite)
			cq := dev.CreateCQ(p, fn, 200)
			qp := dev.CreateQP(p, fn, pd, cq, cq, RC, DefaultCaps())
			dev.QueryGID(p, fn, 0)
			dev.ModifyQP(p, qp, Attr{ToState: StateInit})
			dev.ModifyQP(p, qp, Attr{ToState: StateRTR})
			dev.ModifyQP(p, qp, Attr{ToState: StateRTS})
			_ = mr
			return p.Now().Sub(start)
		}
		pfTime = setup(e.a.dev.PF())
		vf, err := e.a.dev.AddVF()
		if err != nil {
			t.Fatal(err)
		}
		vf.SetAddr(packet.NewIP(10, 0, 0, 1), packet.MAC{2, 0, 0, 0, 9, 1})
		vfTime = setup(vf)
	})
	e.eng.Run()
	// Paper Fig. 15a: ≈0.8 ms on the host, ≈1.9 ms via a VF.
	if pfTime < simtime.Ms(0.7) || pfTime > simtime.Ms(0.95) {
		t.Errorf("PF setup = %v, want ≈0.81 ms", pfTime)
	}
	if vfTime < simtime.Ms(1.7) || vfTime > simtime.Ms(2.1) {
		t.Errorf("VF setup = %v, want ≈1.9 ms", vfTime)
	}
}

func TestMaxVFsEnforced(t *testing.T) {
	e := newEnv(t)
	for i := 0; i < 8; i++ {
		if _, err := e.a.dev.AddVF(); err != nil {
			t.Fatalf("VF %d: %v", i, err)
		}
	}
	if _, err := e.a.dev.AddVF(); !errors.Is(err, ErrNoResources) {
		t.Fatalf("9th VF err = %v, want ErrNoResources", err)
	}
}

func TestSendWithImmediate(t *testing.T) {
	e := newEnv(t)
	var wc WC
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite)
		s.qp.PostRecv(p, RecvWR{WRID: 1, Addr: rva, LKey: rmr.LKey, Len: 64})
		c.qp.PostSend(p, SendWR{WRID: 2, Op: WRSendImm, LocalAddr: sva, LKey: smr.LKey, Len: 4, Imm: 42})
		wc = s.rcq.Wait(p)
	})
	e.eng.Run()
	if !wc.HasImm || wc.Imm != 42 {
		t.Fatalf("WC = %+v, want Imm 42", wc)
	}
}

func TestZeroLengthSend(t *testing.T) {
	e := newEnv(t)
	var wc WC
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite)
		s.qp.PostRecv(p, RecvWR{WRID: 1, Addr: rva, LKey: rmr.LKey, Len: 64})
		c.qp.PostSend(p, SendWR{WRID: 2, Op: WRSend, Len: 0})
		wc = s.rcq.Wait(p)
	})
	e.eng.Run()
	if wc.Status != WCSuccess || wc.ByteLen != 0 {
		t.Fatalf("WC = %+v", wc)
	}
}

func TestSendQueueCapacityEnforced(t *testing.T) {
	e := newEnv(t)
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		// Not connected: WQEs pile up in the SQ (state INIT can't post; go to RTS via loopback AV).
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		var fullErr error
		for i := 0; i < 200; i++ {
			err := c.qp.PostSend(p, SendWR{WRID: uint64(i), Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 4})
			if err != nil {
				fullErr = err
				break
			}
		}
		if !errors.Is(fullErr, ErrQueueFull) {
			t.Errorf("expected ErrQueueFull, got %v", fullErr)
		}
	})
	e.eng.Run()
}

func TestCQOverflowDropsCompletions(t *testing.T) {
	e := newEnv(t)
	e.eng.Spawn("test", func(p *simtime.Proc) {
		fn := e.a.dev.PF()
		pd := e.a.dev.AllocPD(p, fn)
		cq := e.a.dev.CreateCQ(p, fn, 2)
		qp := e.a.dev.CreateQP(p, fn, pd, cq, cq, RC, DefaultCaps())
		e.a.dev.ModifyQP(p, qp, Attr{ToState: StateInit})
		for i := 0; i < 5; i++ {
			cq.post(WC{WRID: uint64(i)})
		}
		if cq.Len() != 2 {
			t.Errorf("CQ len = %d, want 2 (capacity)", cq.Len())
		}
		if cq.dropped != 3 {
			t.Errorf("dropped = %d, want 3", cq.dropped)
		}
	})
	e.eng.Run()
}

func TestTokenBucket(t *testing.T) {
	tb := newTokenBucket(1e9, 8000) // 1 Gbps, 1000-byte burst
	ok, _ := tb.tryTake(0, 8000)
	if !ok {
		t.Fatal("burst should be available immediately")
	}
	ok, wait := tb.tryTake(0, 8000)
	if ok {
		t.Fatal("bucket should be empty")
	}
	if wait < simtime.Us(7.9) || wait > simtime.Us(8.2) {
		t.Fatalf("wait = %v, want ≈8µs", wait)
	}
	// After the wait, tokens are back.
	ok, _ = tb.tryTake(simtime.Time(wait), 8000)
	if !ok {
		t.Fatal("tokens should have refilled")
	}
}

func TestPsnDiffWraparound(t *testing.T) {
	cases := []struct {
		a, b uint32
		want int32
	}{
		{5, 3, 2},
		{3, 5, -2},
		{0, 0xffffff, 1},  // wrap forward
		{0xffffff, 0, -1}, // wrap back
		{1 << 22, 0, 1 << 22},
	}
	for _, c := range cases {
		if got := psnDiff(c.a, c.b); got != c.want {
			t.Errorf("psnDiff(%#x,%#x) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestResetCostBreakdown(t *testing.T) {
	e := newEnv(t)
	e.eng.Spawn("test", func(p *simtime.Proc) {
		x := makeEndpoint(t, p, e.a, RC)
		kernel, rnicShare := e.a.dev.ResetCostBreakdown(x.qp)
		if kernel != simtime.Us(100) {
			t.Errorf("kernel share = %v", kernel)
		}
		if rnicShare != simtime.Us(153) { // PF, idle
			t.Errorf("PF idle RNIC share = %v, want 153µs", rnicShare)
		}
		vf, _ := e.a.dev.AddVF()
		vf.SetAddr(packet.NewIP(10, 0, 0, 1), packet.MAC{2, 0, 0, 0, 9, 9})
		pd := e.a.dev.AllocPD(p, vf)
		cq := e.a.dev.CreateCQ(p, vf, 16)
		qv := e.a.dev.CreateQP(p, vf, pd, cq, cq, RC, DefaultCaps())
		_, rnicShare = e.a.dev.ResetCostBreakdown(qv)
		if rnicShare != simtime.Us(418) {
			t.Errorf("VF idle RNIC share = %v, want 418µs", rnicShare)
		}
	})
	e.eng.Run()
}

func TestVerbStringAndClass(t *testing.T) {
	if VerbPostSend.String() != "post_send" || VerbCreateQP.String() != "create_qp" {
		t.Error("verb names")
	}
	if StateRTS.String() != "RTS" || RC.String() != "RC" || WRWrite.String() != "WRITE" {
		t.Error("String methods")
	}
	if WCFlushErr.String() != "WR_FLUSH_ERR" {
		t.Error("WCStatus.String")
	}
}

// TestLoopbackSameDevice connects two QPs on one device: the NIC must
// hairpin the traffic internally rather than pushing it onto the wire.
func TestLoopbackSameDevice(t *testing.T) {
	e := newEnv(t)
	var got []byte
	e.eng.Spawn("test", func(p *simtime.Proc) {
		x := makeEndpoint(t, p, e.a, RC)
		y := makeEndpoint(t, p, e.a, RC) // same node
		connect(t, p, x, y)
		sva, smr := e.a.buffer(t, p, x.pd, 64, AccessLocalWrite)
		rva, rmr := e.a.buffer(t, p, y.pd, 64, AccessLocalWrite)
		e.a.hva.Write(sva, []byte("loop"))
		y.qp.PostRecv(p, RecvWR{WRID: 1, Addr: rva, LKey: rmr.LKey, Len: 64})
		x.qp.PostSend(p, SendWR{WRID: 2, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 4})
		wc := y.rcq.Wait(p)
		if wc.Status != WCSuccess {
			t.Errorf("WC = %+v", wc)
		}
		x.scq.Wait(p)
		got = make([]byte, 4)
		e.a.hva.Read(rva, got)
	})
	e.eng.Run()
	if string(got) != "loop" {
		t.Fatalf("got %q", got)
	}
	// Nothing must have crossed the physical port.
	if e := newEnv(t); e != nil {
		_ = e
	}
}
