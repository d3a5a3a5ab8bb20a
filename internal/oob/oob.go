// Package oob implements the out-of-band connection channel applications
// use to exchange QP information before RDMA communication starts (the
// "pre-established TCP connection" of Fig. 1, step 3 of Fig. 4). It is a
// tiny message-oriented, connection-oriented transport over the tenant's
// virtual Ethernet network, so it traverses the vswitch and is subject to
// security groups — which is precisely how MasQ's first two security
// subproblems are solved: deny the rule and the QP exchange never happens.
package oob

import (
	"encoding/binary"
	"errors"
	"fmt"

	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/simnet"
	"masq/internal/simtime"
)

// Errors returned by the stack.
var (
	ErrTimeout = errors.New("oob: connection timed out (blocked by security rules?)")
	ErrClosed  = errors.New("oob: connection closed")
	ErrNoRoute = errors.New("oob: cannot resolve destination")
	ErrInUse   = errors.New("oob: port in use")
)

// header flags.
const (
	flagSYN byte = 1 << iota
	flagSYNACK
	flagDATA
	flagFIN
	flagACK // acknowledges the DATA segment carrying the same seq
)

// segment layout: srcPort(2) dstPort(2) flags(1) seq(1) pad(2), then
// payload. seq numbers DATA segments (mod 256) for ack/retransmit/dedup;
// it is zero on SYN/SYNACK/FIN.
const hdrLen = 8

// The retransmission layer. The overlay may lose frames (chaos loss
// windows, link cuts), so both the handshake and data segments are
// retransmitted with exponential backoff up to a retry budget — a
// transient loss window delays a connection instead of failing it.
const (
	synRetries  = 6                       // SYN transmissions per Dial
	dataRetries = 6                       // DATA transmissions per message
	retxTimeout = 2 * simtime.Millisecond // initial retransmit timeout; doubles per retry
)

// Stats counts retransmission-layer activity.
type Stats struct {
	SynRetx  uint64 // SYN segments re-sent by Dial
	DataRetx uint64 // DATA segments re-sent after an ack timeout
	DupData  uint64 // duplicate DATA segments discarded at the receiver
	Resets   uint64 // connections aborted after DATA retry exhaustion
}

// Resolver maps a destination virtual IP to its virtual MAC (ARP within
// the tenant network).
type Resolver func(dst packet.IP) (packet.MAC, bool)

type connKey struct {
	remoteIP   packet.IP
	localPort  uint16
	remotePort uint16
}

// Stack is a VM's out-of-band transport endpoint over its overlay port.
type Stack struct {
	Stats Stats

	eng       *simtime.Engine
	port      *overlay.VMPort
	resolve   Resolver
	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	dials     map[connKey]*simtime.Event[*Conn]
	nextPort  uint16
}

// NewStack creates the endpoint and starts its demultiplexer.
func NewStack(eng *simtime.Engine, port *overlay.VMPort, resolve Resolver) *Stack {
	s := &Stack{
		eng:       eng,
		port:      port,
		resolve:   resolve,
		listeners: make(map[uint16]*Listener),
		conns:     make(map[connKey]*Conn),
		dials:     make(map[connKey]*simtime.Event[*Conn]),
		nextPort:  20000,
	}
	eng.Spawn(fmt.Sprintf("oob:%v", port.EP.VIP), s.rxLoop)
	return s
}

// Listener accepts inbound connections on a port.
type Listener struct {
	Port    uint16
	backlog *simtime.Queue[*Conn]
}

// Accept blocks until a peer connects.
func (l *Listener) Accept(p *simtime.Proc) *Conn { return l.backlog.Get(p) }

// AcceptTimeout is Accept with a deadline.
func (l *Listener) AcceptTimeout(p *simtime.Proc, d simtime.Duration) (*Conn, bool) {
	return l.backlog.GetTimeout(p, d)
}

// Listen binds a port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if s.listeners[port] != nil {
		return nil, ErrInUse
	}
	l := &Listener{Port: port, backlog: simtime.NewQueue[*Conn](s.eng)}
	s.listeners[port] = l
	return l, nil
}

// Conn is an established bidirectional message channel. Messages are
// delivered reliably and in order: each DATA segment carries a sequence
// number, is acknowledged by the receiver, and is retransmitted with
// backoff until acked or the retry budget runs out (which resets the
// connection).
type Conn struct {
	stack     *Stack
	key       connKey
	remoteMAC packet.MAC
	inbox     *simtime.Queue[[]byte]
	closed    bool

	txSeq   byte              // next sequence number to assign
	rxNext  byte              // next sequence number to deliver
	pend    map[byte]*retxJob // unacked outbound segments
	reorder map[byte][]byte   // out-of-order inbound segments
}

// retxJob retransmits one unacked DATA segment until acked or exhausted.
type retxJob struct {
	c       *Conn
	seq     byte
	data    []byte
	tries   int
	backoff simtime.Duration
}

// Dial connects to (ip, port), performing a SYN/SYNACK handshake through
// the overlay. The SYN is retransmitted with exponential backoff within
// the timeout budget, so transient loss delays the handshake rather than
// failing it; ErrTimeout after the full budget means the path is down or
// the handshake is filtered by security rules.
func (s *Stack) Dial(p *simtime.Proc, ip packet.IP, port uint16, timeout simtime.Duration) (*Conn, error) {
	mac, ok := s.resolve(ip)
	if !ok {
		return nil, ErrNoRoute
	}
	s.nextPort++
	key := connKey{remoteIP: ip, localPort: s.nextPort, remotePort: port}
	ev := simtime.NewEvent[*Conn](s.eng)
	s.dials[key] = ev
	defer delete(s.dials, key)
	deadline := p.Now().Add(timeout)
	backoff := retxTimeout
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			s.Stats.SynRetx++
		}
		s.send(mac, ip, key.localPort, port, flagSYN, 0, nil)
		wait := backoff
		if attempt >= synRetries {
			wait = deadline.Sub(p.Now()) // last attempt: wait out the budget
		}
		if rem := deadline.Sub(p.Now()); wait > rem {
			wait = rem
		}
		if wait <= 0 {
			return nil, ErrTimeout
		}
		if conn, ok := ev.WaitTimeout(p, wait); ok {
			return conn, nil
		}
		if p.Now() >= deadline {
			return nil, ErrTimeout
		}
		backoff *= 2
	}
}

// Send transmits one message on the connection. It returns once the
// segment is on the wire; acknowledgment and retransmission run in the
// background (lost segments are re-sent with backoff; exhausting the
// budget resets the connection, surfacing ErrClosed to readers).
func (c *Conn) Send(p *simtime.Proc, msg []byte) error {
	if c.closed {
		return ErrClosed
	}
	seq := c.txSeq
	c.txSeq++
	if c.pend == nil {
		c.pend = make(map[byte]*retxJob)
	}
	j := &retxJob{c: c, seq: seq, data: append([]byte(nil), msg...), tries: 1, backoff: retxTimeout}
	c.pend[seq] = j
	c.stack.send(c.remoteMAC, c.key.remoteIP, c.key.localPort, c.key.remotePort, flagDATA, seq, msg)
	c.stack.eng.After(j.backoff, j.fire)
	return nil
}

// fire is the ack-timeout path of one outbound segment.
func (j *retxJob) fire() {
	c := j.c
	if c.closed || c.pend[j.seq] != j {
		return // acked (or conn torn down) before the timeout
	}
	if j.tries >= dataRetries {
		// The peer is gone (dead VM, partition outlasting the budget):
		// reset the connection so readers unblock with ErrClosed.
		c.stack.Stats.Resets++
		delete(c.pend, j.seq)
		c.closed = true
		c.inbox.Put(nil)
		delete(c.stack.conns, c.key)
		return
	}
	j.tries++
	j.backoff *= 2
	c.stack.Stats.DataRetx++
	c.stack.send(c.remoteMAC, c.key.remoteIP, c.key.localPort, c.key.remotePort, flagDATA, j.seq, j.data)
	c.stack.eng.After(j.backoff, j.fire)
}

// Recv blocks for the next message.
func (c *Conn) Recv(p *simtime.Proc) ([]byte, error) {
	msg := c.inbox.Get(p)
	if msg == nil {
		return nil, ErrClosed
	}
	return msg, nil
}

// RecvTimeout is Recv with a deadline.
func (c *Conn) RecvTimeout(p *simtime.Proc, d simtime.Duration) ([]byte, error) {
	msg, ok := c.inbox.GetTimeout(p, d)
	if !ok {
		return nil, ErrTimeout
	}
	if msg == nil {
		return nil, ErrClosed
	}
	return msg, nil
}

// Close tears the connection down on both sides.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.pend = nil // an orderly close abandons unacked segments
	c.stack.send(c.remoteMAC, c.key.remoteIP, c.key.localPort, c.key.remotePort, flagFIN, 0, nil)
	delete(c.stack.conns, c.key)
}

func (s *Stack) send(dstMAC packet.MAC, dstIP packet.IP, srcPort, dstPort uint16, flags, seq byte, data []byte) {
	seg := make([]byte, hdrLen+len(data))
	binary.BigEndian.PutUint16(seg[0:2], srcPort)
	binary.BigEndian.PutUint16(seg[2:4], dstPort)
	seg[4] = flags
	seg[5] = seq
	copy(seg[hdrLen:], data)
	frame := packet.Serialize(
		&packet.Ethernet{Dst: dstMAC, Src: s.port.EP.VMAC, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: s.port.EP.VIP, Dst: dstIP},
		packet.Payload(seg),
	)
	s.port.Send(simnet.Frame(frame))
}

func (s *Stack) rxLoop(p *simtime.Proc) {
	for {
		f := s.port.RX.Get(p)
		pkt, err := packet.Decode(f)
		if err != nil || pkt.IPv4() == nil || pkt.IPv4().Protocol != packet.ProtoTCP {
			continue
		}
		seg := []byte(pkt.Payload)
		if len(seg) < hdrLen {
			continue
		}
		srcPort := binary.BigEndian.Uint16(seg[0:2])
		dstPort := binary.BigEndian.Uint16(seg[2:4])
		flags := seg[4]
		seq := seg[5]
		srcIP := pkt.IPv4().Src
		srcMAC := pkt.Ethernet().Src

		switch {
		case flags&flagSYN != 0:
			l := s.listeners[dstPort]
			if l == nil {
				continue
			}
			key := connKey{remoteIP: srcIP, localPort: dstPort, remotePort: srcPort}
			if s.conns[key] != nil {
				// Retransmitted SYN for a connection we already accepted:
				// our SYNACK was lost. Re-answer, don't re-accept.
				s.send(srcMAC, srcIP, dstPort, srcPort, flagSYNACK, 0, nil)
				continue
			}
			conn := &Conn{stack: s, key: key, remoteMAC: srcMAC, inbox: simtime.NewQueue[[]byte](s.eng)}
			s.conns[key] = conn
			s.send(srcMAC, srcIP, dstPort, srcPort, flagSYNACK, 0, nil)
			l.backlog.Put(conn)
		case flags&flagSYNACK != 0:
			key := connKey{remoteIP: srcIP, localPort: dstPort, remotePort: srcPort}
			if ev := s.dials[key]; ev != nil && !ev.Triggered() {
				conn := &Conn{stack: s, key: key, remoteMAC: srcMAC, inbox: simtime.NewQueue[[]byte](s.eng)}
				s.conns[key] = conn
				ev.Trigger(conn)
			}
		case flags&flagACK != 0:
			key := connKey{remoteIP: srcIP, localPort: dstPort, remotePort: srcPort}
			if conn := s.conns[key]; conn != nil {
				delete(conn.pend, seq)
			}
		case flags&flagDATA != 0:
			key := connKey{remoteIP: srcIP, localPort: dstPort, remotePort: srcPort}
			conn := s.conns[key]
			if conn == nil {
				continue
			}
			// Always ack — a duplicate means our previous ack was lost.
			s.send(srcMAC, srcIP, dstPort, srcPort, flagACK, seq, nil)
			switch {
			case seq == conn.rxNext:
				data := make([]byte, len(seg)-hdrLen)
				copy(data, seg[hdrLen:])
				conn.inbox.Put(data)
				conn.rxNext++
				// Drain anything the loss reordered behind this segment.
				for {
					d, ok := conn.reorder[conn.rxNext]
					if !ok {
						break
					}
					delete(conn.reorder, conn.rxNext)
					conn.inbox.Put(d)
					conn.rxNext++
				}
			case byte(seq-conn.rxNext) < 128:
				// Ahead of the delivery cursor: an earlier segment is
				// still in flight (lost, being retransmitted). Buffer.
				if conn.reorder == nil {
					conn.reorder = make(map[byte][]byte)
				}
				if _, dup := conn.reorder[seq]; !dup {
					data := make([]byte, len(seg)-hdrLen)
					copy(data, seg[hdrLen:])
					conn.reorder[seq] = data
				}
			default:
				s.Stats.DupData++ // behind the cursor: already delivered
			}
		case flags&flagFIN != 0:
			key := connKey{remoteIP: srcIP, localPort: dstPort, remotePort: srcPort}
			if conn := s.conns[key]; conn != nil {
				conn.closed = true
				conn.pend = nil
				conn.inbox.Put(nil)
				delete(s.conns, key)
			}
		}
	}
}
