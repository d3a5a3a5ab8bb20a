package packet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// FuzzDecode drives the wire decoder with arbitrary inputs. It must reject
// what it cannot read without panicking, and a packet it reads must be
// nothing but its typed headers and payload: serializing those in decode
// order gives a frame that decodes to the same headers, payload and
// String. Seeds cover each protocol family, and IPv4 headers whose total
// length is shorter than the header itself.
func FuzzDecode(f *testing.F) {
	f.Add(Serialize(rocePacket([]byte("seed payload"))...))
	f.Add(Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(1, 1, 1, 1), Dst: NewIP(2, 2, 2, 2)},
		&UDP{SrcPort: 1, DstPort: PortVXLAN},
		&VXLAN{VNI: 9},
		Payload(Serialize(rocePacket([]byte("inner"))...)),
	))
	f.Add(Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(1, 1, 1, 1), Dst: NewIP(2, 2, 2, 2)},
		&UDP{SrcPort: 1, DstPort: PortRoCEv2},
		&BTH{OpCode: OpFetchAdd, DestQP: 1, PSN: 1},
		&AtomicETH{VA: 8, RKey: 1, SwapAdd: 2, Compare: 3},
	))
	f.Add(Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(1, 1, 1, 1), Dst: NewIP(2, 2, 2, 2)},
		&UDP{SrcPort: 1, DstPort: PortRoCEShared},
		&VXLAN{VNI: 9, FlowTag: 3},
		&BTH{OpCode: OpUDSendOnlyImm, DestQP: 1, PSN: 1},
		&DETH{QKey: 1, SrcQP: 2},
		&ImmDt{Value: 4},
		Payload("tagged"),
	))
	f.Add(Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(1, 1, 1, 1), Dst: NewIP(2, 2, 2, 2)},
		&UDP{SrcPort: 1, DstPort: PortRoCEv2},
		&BTH{OpCode: OpWriteOnlyImm, DestQP: 1, PSN: 1},
		&RETH{VA: 8, RKey: 1, DMALen: 5},
		&ImmDt{Value: 4},
		Payload("write"),
	))
	for _, data := range shortIPv4Frames() {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return // decode errors are fine; panics are not
		}
		// Serialize fills zero length fields and rewrites the IPv4
		// checksum in p's own headers, so p is compared only afterwards.
		q, err := Decode(Serialize(layersOf(p)...))
		if err != nil {
			t.Fatalf("%v: re-serialized frame does not decode: %v", p, err)
		}
		if err := samePacket(p, q); err != nil {
			t.Fatalf("%v: round trip differs: %v", p, err)
		}
	})
}

// layersOf lists p's headers in decode order, then its payload, or the raw
// inner frame behind a VXLAN header.
func layersOf(p *Packet) []Layer {
	var ls []Layer
	add := func(present bool, l Layer) {
		if present {
			ls = append(ls, l)
		}
	}
	add(p.Ethernet() != nil, p.Ethernet())
	add(p.IPv4() != nil, p.IPv4())
	add(p.UDP() != nil, p.UDP())
	add(p.VXLAN() != nil, p.VXLAN())
	add(p.BTH() != nil, p.BTH())
	add(p.DETH() != nil, p.DETH())
	add(p.RETH() != nil, p.RETH())
	add(p.AtomicETH() != nil, p.AtomicETH())
	add(p.AETH() != nil, p.AETH())
	add(p.AtomicAckETH() != nil, p.AtomicAckETH())
	add(p.ImmDt() != nil, p.ImmDt())
	if p.Inner != nil {
		return append(ls, Payload(p.InnerRaw))
	}
	return append(ls, p.Payload)
}

// samePacket reports every header, payload, inner frame or String on
// which a and b differ.
func samePacket(a, b *Packet) error {
	errs := []error{
		sameHeader("Ethernet", a.Ethernet(), b.Ethernet()),
		sameHeader("IPv4", a.IPv4(), b.IPv4()),
		sameHeader("UDP", a.UDP(), b.UDP()),
		sameHeader("VXLAN", a.VXLAN(), b.VXLAN()),
		sameHeader("BTH", a.BTH(), b.BTH()),
		sameHeader("DETH", a.DETH(), b.DETH()),
		sameHeader("RETH", a.RETH(), b.RETH()),
		sameHeader("AtomicETH", a.AtomicETH(), b.AtomicETH()),
		sameHeader("AETH", a.AETH(), b.AETH()),
		sameHeader("AtomicAckETH", a.AtomicAckETH(), b.AtomicAckETH()),
		sameHeader("ImmDt", a.ImmDt(), b.ImmDt()),
	}
	if !bytes.Equal(a.Payload, b.Payload) {
		errs = append(errs, fmt.Errorf("payload %x, then %x", []byte(a.Payload), []byte(b.Payload)))
	}
	if !bytes.Equal(a.InnerRaw, b.InnerRaw) {
		errs = append(errs, fmt.Errorf("inner frame %x, then %x", a.InnerRaw, b.InnerRaw))
	}
	if (a.Inner == nil) != (b.Inner == nil) {
		errs = append(errs, fmt.Errorf("inner packet %v, then %v", a.Inner, b.Inner))
	} else if a.Inner != nil {
		if err := samePacket(a.Inner, b.Inner); err != nil {
			errs = append(errs, fmt.Errorf("inner packet: %w", err))
		}
	}
	if a.String() != b.String() {
		errs = append(errs, fmt.Errorf("String %q, then %q", a.String(), b.String()))
	}
	return errors.Join(errs...)
}

func sameHeader[H comparable](name string, a, b *H) error {
	if (a == nil) != (b == nil) || a != nil && *a != *b {
		return fmt.Errorf("%s %+v, then %+v", name, a, b)
	}
	return nil
}
