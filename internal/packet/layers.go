package packet

import (
	"encoding/binary"
	"fmt"
)

// Layer is one protocol header (or the payload) of a packet to Serialize.
type Layer interface {
	// headerLen is the serialized length in bytes.
	headerLen() int
	// marshal writes the header into b, which is at least headerLen bytes.
	marshal(b []byte)
}

// EtherType values used by the simulation.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
)

// IP protocol numbers used by the simulation.
const (
	ProtoTCP byte = 6
	ProtoUDP byte = 17
)

// Well-known UDP destination ports.
const (
	PortRoCEv2 uint16 = 4791
	PortVXLAN  uint16 = 4789
	// PortRoCEShared carries flow-tagged RoCEv2 traffic (MasQ's
	// shared-connection mode): a VXLAN header bearing the flow tag sits
	// between UDP and BTH, demultiplexing guest flows that share one host
	// connection. Plain RoCEv2 on 4791 never carries the extra header.
	PortRoCEShared uint16 = 4790
)

// Ethernet is an Ethernet II frame header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

func (*Ethernet) headerLen() int { return 14 }

func (h *Ethernet) marshal(b []byte) {
	copy(b[0:6], h.Dst[:])
	copy(b[6:12], h.Src[:])
	binary.BigEndian.PutUint16(b[12:14], h.EtherType)
}

func (h *Ethernet) unmarshal(b []byte) (int, error) {
	if len(b) < 14 {
		return 0, fmt.Errorf("packet: ethernet header truncated (%d bytes)", len(b))
	}
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = binary.BigEndian.Uint16(b[12:14])
	return 14, nil
}

// IPv4 is an IPv4 header without options (IHL = 5).
type IPv4 struct {
	DSCP     byte
	TotalLen uint16 // filled by Serialize when zero
	ID       uint16
	TTL      byte
	Protocol byte
	Checksum uint16 // filled by Serialize; verified by Decode
	Src, Dst IP
}

func (*IPv4) headerLen() int { return 20 }

func (h *IPv4) marshal(b []byte) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.DSCP << 2
	binary.BigEndian.PutUint16(b[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	b[6], b[7] = 0x40, 0 // don't fragment
	b[8] = h.TTL
	b[9] = h.Protocol
	binary.BigEndian.PutUint16(b[10:12], 0)
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	h.Checksum = internetChecksum(b[:20])
	binary.BigEndian.PutUint16(b[10:12], h.Checksum)
}

func (h *IPv4) unmarshal(b []byte) (int, error) {
	if len(b) < 20 {
		return 0, fmt.Errorf("packet: ipv4 header truncated (%d bytes)", len(b))
	}
	if b[0] != 0x45 {
		return 0, fmt.Errorf("packet: unsupported ipv4 version/IHL byte %#x", b[0])
	}
	if internetChecksum(b[:20]) != 0 {
		return 0, fmt.Errorf("packet: ipv4 header checksum mismatch")
	}
	h.DSCP = b[1] >> 2
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.ID = binary.BigEndian.Uint16(b[4:6])
	h.TTL = b[8]
	h.Protocol = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:12])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	return 20, nil
}

// internetChecksum is the RFC 1071 ones-complement sum of b. Computed over a
// header whose checksum field holds the correct value, it returns zero.
func internetChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// UDP is a UDP header. The checksum is left zero (legal for IPv4), matching
// common RoCEv2 practice where the ICRC protects the payload.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16 // filled by Serialize when zero
}

func (*UDP) headerLen() int { return 8 }

func (h *UDP) marshal(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint16(b[4:6], h.Length)
	binary.BigEndian.PutUint16(b[6:8], 0)
}

func (h *UDP) unmarshal(b []byte) (int, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("packet: udp header truncated (%d bytes)", len(b))
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	return 8, nil
}

// VXLAN is a VXLAN header (RFC 7348).
type VXLAN struct {
	VNI uint32 // 24 bits
	// FlowTag demultiplexes guest flows sharing one host connection
	// (shared-connection mode). A nonzero tag is carried in the first
	// reserved field behind a private flag bit; a zero tag marshals a
	// byte-identical standard VXLAN header.
	FlowTag uint16
}

func (*VXLAN) headerLen() int { return 8 }

func (h *VXLAN) marshal(b []byte) {
	b[0] = 0x08 // I flag: VNI valid
	b[1], b[2], b[3] = 0, 0, 0
	if h.FlowTag != 0 {
		b[0] |= 0x04 // private flag: flow tag valid
		b[1] = byte(h.FlowTag >> 8)
		b[2] = byte(h.FlowTag)
	}
	b[4] = byte(h.VNI >> 16)
	b[5] = byte(h.VNI >> 8)
	b[6] = byte(h.VNI)
	b[7] = 0
}

func (h *VXLAN) unmarshal(b []byte) (int, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("packet: vxlan header truncated (%d bytes)", len(b))
	}
	if b[0]&0x08 == 0 {
		return 0, fmt.Errorf("packet: vxlan I flag not set")
	}
	h.VNI = uint32(b[4])<<16 | uint32(b[5])<<8 | uint32(b[6])
	h.FlowTag = 0
	if b[0]&0x04 != 0 {
		h.FlowTag = uint16(b[1])<<8 | uint16(b[2])
	}
	return 8, nil
}
