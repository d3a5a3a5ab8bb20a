package packet

import (
	"encoding/binary"
	"fmt"
)

// OpCode is the BTH operation code. The top three bits select the transport
// class (RC = 000, UD = 011) and the low five bits the operation.
type OpCode byte

// Reliable-connection opcodes.
const (
	OpSendFirst          OpCode = 0x00
	OpSendMiddle         OpCode = 0x01
	OpSendLast           OpCode = 0x02
	OpSendLastImm        OpCode = 0x03
	OpSendOnly           OpCode = 0x04
	OpSendOnlyImm        OpCode = 0x05
	OpWriteFirst         OpCode = 0x06
	OpWriteMiddle        OpCode = 0x07
	OpWriteLast          OpCode = 0x08
	OpWriteLastImm       OpCode = 0x09
	OpWriteOnly          OpCode = 0x0a
	OpWriteOnlyImm       OpCode = 0x0b
	OpReadRequest        OpCode = 0x0c
	OpReadResponseFirst  OpCode = 0x0d
	OpReadResponseMiddle OpCode = 0x0e
	OpReadResponseLast   OpCode = 0x0f
	OpReadResponseOnly   OpCode = 0x10
	OpAcknowledge        OpCode = 0x11
	OpAtomicAcknowledge  OpCode = 0x12
	OpCompareSwap        OpCode = 0x13
	OpFetchAdd           OpCode = 0x14
)

// Unreliable-datagram opcodes.
const (
	OpUDSendOnly    OpCode = 0x64
	OpUDSendOnlyImm OpCode = 0x65
)

var opNames = map[OpCode]string{
	OpSendFirst:          "SEND_FIRST",
	OpSendMiddle:         "SEND_MIDDLE",
	OpSendLast:           "SEND_LAST",
	OpSendLastImm:        "SEND_LAST_IMM",
	OpSendOnly:           "SEND_ONLY",
	OpSendOnlyImm:        "SEND_ONLY_IMM",
	OpWriteFirst:         "RDMA_WRITE_FIRST",
	OpWriteMiddle:        "RDMA_WRITE_MIDDLE",
	OpWriteLast:          "RDMA_WRITE_LAST",
	OpWriteLastImm:       "RDMA_WRITE_LAST_IMM",
	OpWriteOnly:          "RDMA_WRITE_ONLY",
	OpWriteOnlyImm:       "RDMA_WRITE_ONLY_IMM",
	OpReadRequest:        "RDMA_READ_REQUEST",
	OpReadResponseFirst:  "RDMA_READ_RESPONSE_FIRST",
	OpReadResponseMiddle: "RDMA_READ_RESPONSE_MIDDLE",
	OpReadResponseLast:   "RDMA_READ_RESPONSE_LAST",
	OpReadResponseOnly:   "RDMA_READ_RESPONSE_ONLY",
	OpAcknowledge:        "ACKNOWLEDGE",
	OpAtomicAcknowledge:  "ATOMIC_ACKNOWLEDGE",
	OpCompareSwap:        "COMPARE_SWAP",
	OpFetchAdd:           "FETCH_ADD",
	OpUDSendOnly:         "UD_SEND_ONLY",
	OpUDSendOnlyImm:      "UD_SEND_ONLY_IMM",
}

func (op OpCode) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("OpCode(%#x)", byte(op))
}

// IsUD reports whether the opcode belongs to the unreliable-datagram class.
func (op OpCode) IsUD() bool { return op&0xe0 == 0x60 }

// IsFirst reports whether the opcode starts a multi-packet message.
func (op OpCode) IsFirst() bool {
	switch op {
	case OpSendFirst, OpWriteFirst, OpReadResponseFirst:
		return true
	}
	return false
}

// IsLast reports whether the opcode completes a message (LAST or ONLY).
func (op OpCode) IsLast() bool {
	switch op {
	case OpSendLast, OpSendLastImm, OpSendOnly, OpSendOnlyImm,
		OpWriteLast, OpWriteLastImm, OpWriteOnly, OpWriteOnlyImm,
		OpReadResponseLast, OpReadResponseOnly,
		OpUDSendOnly, OpUDSendOnlyImm:
		return true
	}
	return false
}

// IsSend reports whether the opcode is a SEND variant (consumes a receive
// WQE at the responder).
func (op OpCode) IsSend() bool {
	switch op {
	case OpSendFirst, OpSendMiddle, OpSendLast, OpSendLastImm, OpSendOnly,
		OpSendOnlyImm, OpUDSendOnly, OpUDSendOnlyImm:
		return true
	}
	return false
}

// IsWrite reports whether the opcode is an RDMA WRITE variant.
func (op OpCode) IsWrite() bool {
	switch op {
	case OpWriteFirst, OpWriteMiddle, OpWriteLast, OpWriteLastImm,
		OpWriteOnly, OpWriteOnlyImm:
		return true
	}
	return false
}

// IsReadResponse reports whether the opcode is an RDMA READ response.
func (op OpCode) IsReadResponse() bool {
	switch op {
	case OpReadResponseFirst, OpReadResponseMiddle, OpReadResponseLast,
		OpReadResponseOnly:
		return true
	}
	return false
}

// IsAtomic reports whether the opcode is an atomic request.
func (op OpCode) IsAtomic() bool {
	return op == OpCompareSwap || op == OpFetchAdd
}

// HasImmediate reports whether an ImmDt header follows the BTH/RETH.
func (op OpCode) HasImmediate() bool {
	switch op {
	case OpSendLastImm, OpSendOnlyImm, OpWriteLastImm, OpWriteOnlyImm, OpUDSendOnlyImm:
		return true
	}
	return false
}

// BTH is the InfiniBand base transport header (12 bytes).
type BTH struct {
	OpCode   OpCode
	SolEvent bool
	PartKey  uint16
	DestQP   uint32 // 24 bits
	AckReq   bool
	PSN      uint32 // 24 bits
}

func (*BTH) headerLen() int { return 12 }

func (h *BTH) marshal(b []byte) {
	b[0] = byte(h.OpCode)
	b[1] = 0x40 // TVer 0, PadCnt 0, MigReq 1 (as on the wire from mlx HCAs)
	if h.SolEvent {
		b[1] |= 0x80
	}
	binary.BigEndian.PutUint16(b[2:4], h.PartKey)
	b[4] = 0
	put24(b[5:8], h.DestQP)
	b[8] = 0
	if h.AckReq {
		b[8] = 0x80
	}
	put24(b[9:12], h.PSN)
}

func (h *BTH) unmarshal(b []byte) (int, error) {
	if len(b) < 12 {
		return 0, fmt.Errorf("packet: bth truncated (%d bytes)", len(b))
	}
	h.OpCode = OpCode(b[0])
	h.SolEvent = b[1]&0x80 != 0
	h.PartKey = binary.BigEndian.Uint16(b[2:4])
	h.DestQP = get24(b[5:8])
	h.AckReq = b[8]&0x80 != 0
	h.PSN = get24(b[9:12])
	return 12, nil
}

// RETH is the RDMA extended transport header carried on WRITE/READ requests.
type RETH struct {
	VA     uint64
	RKey   uint32
	DMALen uint32
}

func (*RETH) headerLen() int { return 16 }

func (h *RETH) marshal(b []byte) {
	binary.BigEndian.PutUint64(b[0:8], h.VA)
	binary.BigEndian.PutUint32(b[8:12], h.RKey)
	binary.BigEndian.PutUint32(b[12:16], h.DMALen)
}

func (h *RETH) unmarshal(b []byte) (int, error) {
	if len(b) < 16 {
		return 0, fmt.Errorf("packet: reth truncated (%d bytes)", len(b))
	}
	h.VA = binary.BigEndian.Uint64(b[0:8])
	h.RKey = binary.BigEndian.Uint32(b[8:12])
	h.DMALen = binary.BigEndian.Uint32(b[12:16])
	return 16, nil
}

// AETH syndrome values (high bits of the syndrome byte).
const (
	AckSyndromeACK    byte = 0x00
	AckSyndromeRNRNAK byte = 0x20
	AckSyndromeNAK    byte = 0x60
)

// NAK codes carried in the low five bits of a NAK syndrome.
const (
	NakPSNSequenceError   byte = 0
	NakInvalidRequest     byte = 1
	NakRemoteAccessError  byte = 2
	NakRemoteOperationErr byte = 3
	NakInvalidRDRequest   byte = 4
)

// AETH is the ACK extended transport header.
type AETH struct {
	Syndrome byte
	MSN      uint32 // 24 bits
}

func (*AETH) headerLen() int { return 4 }

func (h *AETH) marshal(b []byte) {
	b[0] = h.Syndrome
	put24(b[1:4], h.MSN)
}

func (h *AETH) unmarshal(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("packet: aeth truncated (%d bytes)", len(b))
	}
	h.Syndrome = b[0]
	h.MSN = get24(b[1:4])
	return 4, nil
}

// IsNAK reports whether the AETH carries a NAK, returning its code.
func (h *AETH) IsNAK() (byte, bool) {
	if h.Syndrome&0x60 == 0x60 {
		return h.Syndrome & 0x1f, true
	}
	return 0, false
}

// IsRNR reports whether the AETH carries a receiver-not-ready NAK.
func (h *AETH) IsRNR() bool { return h.Syndrome&0xe0 == 0x20 }

// DETH is the datagram extended transport header used by UD.
type DETH struct {
	QKey  uint32
	SrcQP uint32 // 24 bits
}

func (*DETH) headerLen() int { return 8 }

func (h *DETH) marshal(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], h.QKey)
	b[4] = 0
	put24(b[5:8], h.SrcQP)
}

func (h *DETH) unmarshal(b []byte) (int, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("packet: deth truncated (%d bytes)", len(b))
	}
	h.QKey = binary.BigEndian.Uint32(b[0:4])
	h.SrcQP = get24(b[5:8])
	return 8, nil
}

// AtomicETH is the atomic extended transport header carried on
// COMPARE_SWAP and FETCH_ADD requests (28 bytes).
type AtomicETH struct {
	VA      uint64
	RKey    uint32
	SwapAdd uint64 // swap value (CSwap) or addend (FetchAdd)
	Compare uint64 // compare value (CSwap only)
}

func (*AtomicETH) headerLen() int { return 28 }

func (h *AtomicETH) marshal(b []byte) {
	binary.BigEndian.PutUint64(b[0:8], h.VA)
	binary.BigEndian.PutUint32(b[8:12], h.RKey)
	binary.BigEndian.PutUint64(b[12:20], h.SwapAdd)
	binary.BigEndian.PutUint64(b[20:28], h.Compare)
}

func (h *AtomicETH) unmarshal(b []byte) (int, error) {
	if len(b) < 28 {
		return 0, fmt.Errorf("packet: atomiceth truncated (%d bytes)", len(b))
	}
	h.VA = binary.BigEndian.Uint64(b[0:8])
	h.RKey = binary.BigEndian.Uint32(b[8:12])
	h.SwapAdd = binary.BigEndian.Uint64(b[12:20])
	h.Compare = binary.BigEndian.Uint64(b[20:28])
	return 28, nil
}

// AtomicAckETH carries the original value back on an atomic response
// (8 bytes, following the AETH).
type AtomicAckETH struct {
	Orig uint64
}

func (*AtomicAckETH) headerLen() int { return 8 }

func (h *AtomicAckETH) marshal(b []byte) { binary.BigEndian.PutUint64(b[0:8], h.Orig) }

func (h *AtomicAckETH) unmarshal(b []byte) (int, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("packet: atomicacketh truncated (%d bytes)", len(b))
	}
	h.Orig = binary.BigEndian.Uint64(b[0:8])
	return 8, nil
}

// ImmDt carries the 4-byte immediate data of *_IMM opcodes.
type ImmDt struct {
	Value uint32
}

func (*ImmDt) headerLen() int { return 4 }

func (h *ImmDt) marshal(b []byte) { binary.BigEndian.PutUint32(b[0:4], h.Value) }

func (h *ImmDt) unmarshal(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("packet: immdt truncated (%d bytes)", len(b))
	}
	h.Value = binary.BigEndian.Uint32(b[0:4])
	return 4, nil
}

// Payload is the application bytes of a packet.
type Payload []byte

func (p Payload) headerLen() int   { return len(p) }
func (p Payload) marshal(b []byte) { copy(b, p) }

func put24(b []byte, v uint32) {
	b[0] = byte(v >> 16)
	b[1] = byte(v >> 8)
	b[2] = byte(v)
}

func get24(b []byte) uint32 {
	return uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])
}
