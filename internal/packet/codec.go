package packet

import (
	"fmt"
	"hash/crc32"
	"strings"
)

// icrcTable is the CRC-32C polynomial used for the RoCEv2 invariant CRC.
// (The real ICRC masks variant fields; the simulation computes it over the
// transport headers and payload, which protects everything that matters
// end-to-end here.)
var icrcTable = crc32.MakeTable(crc32.Castagnoli)

// Serialize encodes the layers outside-in into a single wire buffer.
// IPv4.TotalLen and UDP.Length are filled in when zero. If the packet
// contains a BTH, a 4-byte ICRC covering the BTH and everything after it is
// appended (and accounted for in the length fields). The buffer comes from
// the frame free list (frame.go) and every byte of it is written here; the
// caller owns it until it sends it.
func Serialize(layers ...Layer) []byte {
	// One headerLen pass, cached for the later loops (the interface
	// dispatch per layer shows up at packet rates).
	var hlbuf [16]int
	hls := hlbuf[:0]
	total := 0
	bthIdx := -1
	for i, l := range layers {
		n := l.headerLen()
		hls = append(hls, n)
		total += n
		if _, ok := l.(*BTH); ok {
			bthIdx = i
		}
	}
	icrcLen := 0
	if bthIdx >= 0 {
		icrcLen = 4
	}
	buf := newFrame(total + icrcLen)

	// Fill length fields bottom-up first: bytes remaining after each header.
	remaining := total + icrcLen
	for i, l := range layers {
		switch h := l.(type) {
		case *IPv4:
			if h.TotalLen == 0 {
				h.TotalLen = uint16(remaining)
			}
		case *UDP:
			if h.Length == 0 {
				h.Length = uint16(remaining)
			}
		}
		remaining -= hls[i]
	}

	off := 0
	bthOff := -1
	for i, l := range layers {
		if i == bthIdx {
			bthOff = off
		}
		n := hls[i]
		l.marshal(buf[off : off+n])
		off += n
	}
	if bthIdx >= 0 {
		crc := crc32.Checksum(buf[bthOff:off], icrcTable)
		buf[off] = byte(crc >> 24)
		buf[off+1] = byte(crc >> 16)
		buf[off+2] = byte(crc >> 8)
		buf[off+3] = byte(crc)
	}
	return buf
}

// Packet is a decoded packet: a pointer to each header it carries (nil for
// one it lacks), the application payload, and — for VXLAN — the decoded
// inner packet. Only the decoder builds one, so the headers are the whole
// packet.
type Packet struct {
	Payload Payload
	Inner   *Packet // non-nil after a VXLAN header
	// InnerRaw is the undecoded inner frame bytes behind a VXLAN header,
	// useful for forwarding without re-serialization.
	InnerRaw []byte

	arena *decodeArena // backing arena, for Release

	ethHdr  *Ethernet
	ipHdr   *IPv4
	udpHdr  *UDP
	vxHdr   *VXLAN
	bthHdr  *BTH
	dethHdr *DETH
	rethHdr *RETH
	aethHdr *AETH
	aeHdr   *AtomicETH
	aaHdr   *AtomicAckETH
	immHdr  *ImmDt
}

// Ethernet returns the Ethernet header, or nil.
func (p *Packet) Ethernet() *Ethernet { return p.ethHdr }

// IPv4 returns the IPv4 header, or nil.
func (p *Packet) IPv4() *IPv4 { return p.ipHdr }

// UDP returns the UDP header, or nil.
func (p *Packet) UDP() *UDP { return p.udpHdr }

// VXLAN returns the VXLAN header, or nil.
func (p *Packet) VXLAN() *VXLAN { return p.vxHdr }

// BTH returns the base transport header, or nil.
func (p *Packet) BTH() *BTH { return p.bthHdr }

// RETH returns the RDMA extended transport header, or nil.
func (p *Packet) RETH() *RETH { return p.rethHdr }

// AETH returns the ACK extended transport header, or nil.
func (p *Packet) AETH() *AETH { return p.aethHdr }

// DETH returns the datagram extended transport header, or nil.
func (p *Packet) DETH() *DETH { return p.dethHdr }

// AtomicETH returns the atomic request header, or nil.
func (p *Packet) AtomicETH() *AtomicETH { return p.aeHdr }

// AtomicAckETH returns the atomic response header, or nil.
func (p *Packet) AtomicAckETH() *AtomicAckETH { return p.aaHdr }

// ImmDt returns the immediate-data header, or nil.
func (p *Packet) ImmDt() *ImmDt { return p.immHdr }

// String names the packet's headers outside-in, in the order the decoder
// reads them, then the inner packet and the payload size, e.g.
// "Ethernet/IPv4/UDP/BTH/Payload(3B)".
func (p *Packet) String() string {
	var parts []string
	for _, h := range [...]struct {
		present bool
		name    string
	}{
		{p.ethHdr != nil, "Ethernet"},
		{p.ipHdr != nil, "IPv4"},
		{p.udpHdr != nil, "UDP"},
		{p.vxHdr != nil, "VXLAN"},
		{p.bthHdr != nil, "BTH"},
		{p.dethHdr != nil, "DETH"},
		{p.rethHdr != nil, "RETH"},
		{p.aeHdr != nil, "AtomicETH"},
		{p.aethHdr != nil, "AETH"},
		{p.aaHdr != nil, "AtomicAckETH"},
		{p.immHdr != nil, "ImmDt"},
	} {
		if h.present {
			parts = append(parts, h.name)
		}
	}
	if p.Inner != nil {
		parts = append(parts, "("+p.Inner.String()+")")
	}
	if len(p.Payload) > 0 {
		parts = append(parts, fmt.Sprintf("Payload(%dB)", len(p.Payload)))
	}
	return strings.Join(parts, "/")
}

// decodeArena backs one Decode call with a single allocation: the Packet
// and every header struct the frame could contain share one block and one
// lifetime (the returned *Packet pins them).
// Decode is the hottest allocation site in a packet-level run — collapsing
// its ~9 small allocations into one is worth the arena's slack bytes.
type decodeArena struct {
	pkt  Packet
	eth  Ethernet
	ip   IPv4
	udp  UDP
	vx   VXLAN
	bth  BTH
	deth DETH
	reth RETH
	ae   AtomicETH
	aeth AETH
	aa   AtomicAckETH
	imm  ImmDt

	pool  *Pool  // owning pool, nil for one-shot arenas
	frame []byte // the decoded frame, owned by the packet until Release
}

// Pool recycles decode arenas for consumers with a clear packet lifetime
// (the RNIC RX pipeline copies every payload byte out before moving on).
// Pool.Decode draws an arena from the free list and Packet.Release returns
// it, together with the frame, so steady-state decoding and serializing
// allocate nothing. Packets whose consumers may retain them (or that never
// call Release) fall back to the garbage collector — an unreleased arena
// or frame is lost to its list, never corrupted.
type Pool struct {
	free []*decodeArena
}

// Decode is the package-level Decode drawing its arena from the pool. On
// success the packet takes ownership of data: the caller must hold no other
// reference to it, and Release puts it on the frame free list. The packet
// and every header it exposes are valid only until Release. On error the
// frame stays the caller's.
func (pl *Pool) Decode(data []byte) (*Packet, error) {
	var a *decodeArena
	if n := len(pl.free); n > 0 {
		a = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
	} else {
		a = &decodeArena{}
	}
	a.pool = pl
	p, err := decodeInto(a, data)
	if err != nil {
		*a = decodeArena{}
		pl.free = append(pl.free, a)
		return nil, err
	}
	a.frame = data
	return p, nil
}

// Release returns the packet's arena to its pool and its frame to the
// frame free list; the packet, all its headers and its payload are invalid
// afterwards. It is a no-op for packets decoded outside a pool, so release
// points need not know how a packet was made.
func (p *Packet) Release() {
	a := p.arena
	if a == nil || a.pool == nil {
		return
	}
	pl, frame := a.pool, a.frame
	*a = decodeArena{} // drop frame/payload references before pooling
	pl.free = append(pl.free, a)
	freeFrame(frame)
}

// Decode parses a full Ethernet frame produced by Serialize.
func Decode(data []byte) (*Packet, error) {
	return decodeInto(&decodeArena{}, data)
}

func decodeInto(a *decodeArena, data []byte) (*Packet, error) {
	p := &a.pkt
	p.arena = a
	n, err := a.eth.unmarshal(data)
	if err != nil {
		return nil, err
	}
	p.ethHdr = &a.eth
	rest := data[n:]

	if a.eth.EtherType != EtherTypeIPv4 {
		p.Payload = Payload(rest)
		return p, nil
	}
	n, err = a.ip.unmarshal(rest)
	if err != nil {
		return nil, err
	}
	p.ipHdr = &a.ip
	if int(a.ip.TotalLen) < n || int(a.ip.TotalLen) > len(rest) {
		return nil, fmt.Errorf("packet: ipv4 total length %d outside [%d, %d]", a.ip.TotalLen, n, len(rest))
	}
	rest = rest[n:a.ip.TotalLen]

	if a.ip.Protocol != ProtoUDP {
		p.Payload = Payload(rest)
		return p, nil
	}
	n, err = a.udp.unmarshal(rest)
	if err != nil {
		return nil, err
	}
	p.udpHdr = &a.udp
	rest = rest[n:]

	switch a.udp.DstPort {
	case PortRoCEv2:
		return p, decodeRoCE(a, rest)
	case PortRoCEShared:
		// Flow-tagged RoCE (shared-connection mode): a VXLAN header
		// carrying the flow tag sits between UDP and the BTH.
		n, err = a.vx.unmarshal(rest)
		if err != nil {
			return nil, err
		}
		p.vxHdr = &a.vx
		return p, decodeRoCE(a, rest[n:])
	case PortVXLAN:
		n, err = a.vx.unmarshal(rest)
		if err != nil {
			return nil, err
		}
		p.vxHdr = &a.vx
		inner, err := Decode(rest[n:])
		if err != nil {
			return nil, fmt.Errorf("packet: inner frame: %w", err)
		}
		p.Inner = inner
		p.InnerRaw = rest[n:]
		return p, nil
	default:
		p.Payload = Payload(rest)
		return p, nil
	}
}

func decodeRoCE(a *decodeArena, rest []byte) error {
	p := &a.pkt
	start := rest // ICRC covers from BTH
	n, err := a.bth.unmarshal(rest)
	if err != nil {
		return err
	}
	p.bthHdr = &a.bth
	rest = rest[n:]

	op := a.bth.OpCode
	if op.IsUD() {
		n, err = a.deth.unmarshal(rest)
		if err != nil {
			return err
		}
		p.dethHdr = &a.deth
		rest = rest[n:]
	}
	if op == OpReadRequest || (op.IsWrite() && (op.IsFirst() || op == OpWriteOnly || op == OpWriteOnlyImm)) {
		n, err = a.reth.unmarshal(rest)
		if err != nil {
			return err
		}
		p.rethHdr = &a.reth
		rest = rest[n:]
	}
	if op.IsAtomic() {
		n, err = a.ae.unmarshal(rest)
		if err != nil {
			return err
		}
		p.aeHdr = &a.ae
		rest = rest[n:]
	}
	if op == OpAcknowledge || op == OpAtomicAcknowledge || op == OpReadResponseFirst || op == OpReadResponseLast || op == OpReadResponseOnly {
		n, err = a.aeth.unmarshal(rest)
		if err != nil {
			return err
		}
		p.aethHdr = &a.aeth
		rest = rest[n:]
	}
	if op == OpAtomicAcknowledge {
		n, err = a.aa.unmarshal(rest)
		if err != nil {
			return err
		}
		p.aaHdr = &a.aa
		rest = rest[n:]
	}
	if op.HasImmediate() {
		n, err = a.imm.unmarshal(rest)
		if err != nil {
			return err
		}
		p.immHdr = &a.imm
		rest = rest[n:]
	}

	if len(rest) < 4 {
		return fmt.Errorf("packet: roce packet missing icrc")
	}
	icrc := uint32(rest[len(rest)-4])<<24 | uint32(rest[len(rest)-3])<<16 |
		uint32(rest[len(rest)-2])<<8 | uint32(rest[len(rest)-1])
	covered := start[:len(start)-4]
	if got := crc32.Checksum(covered, icrcTable); got != icrc {
		return fmt.Errorf("packet: icrc mismatch: got %#x want %#x", got, icrc)
	}
	p.Payload = Payload(rest[:len(rest)-4])
	return nil
}
