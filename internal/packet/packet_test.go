package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"testing/quick"
)

func TestParseIP(t *testing.T) {
	cases := []struct {
		in   string
		want IP
		ok   bool
	}{
		{"192.168.1.1", IP{192, 168, 1, 1}, true},
		{"0.0.0.0", IP{}, true},
		{"255.255.255.255", IP{255, 255, 255, 255}, true},
		{"256.1.1.1", IP{}, false},
		{"1.2.3", IP{}, false},
		{"1.2.3.4.5", IP{}, false},
		{"a.b.c.d", IP{}, false},
		{"", IP{}, false},
		{"1..2.3", IP{}, false},
	}
	for _, c := range cases {
		got, ok := ParseIP(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseIP(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestIPStringRoundtrip(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		ip := NewIP(a, b, c, d)
		got, ok := ParseIP(ip.String())
		return ok && got == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCIDRContains(t *testing.T) {
	c, ok := ParseCIDR("192.168.1.0/24")
	if !ok {
		t.Fatal("ParseCIDR failed")
	}
	if !c.Contains(NewIP(192, 168, 1, 77)) {
		t.Error("should contain 192.168.1.77")
	}
	if c.Contains(NewIP(192, 168, 2, 1)) {
		t.Error("should not contain 192.168.2.1")
	}
	all, _ := ParseCIDR("0.0.0.0/0")
	if !all.Contains(NewIP(8, 8, 8, 8)) {
		t.Error("/0 should contain everything")
	}
	host, _ := ParseCIDR("10.0.0.5/32")
	if !host.Contains(NewIP(10, 0, 0, 5)) || host.Contains(NewIP(10, 0, 0, 6)) {
		t.Error("/32 must match exactly one host")
	}
}

func TestParseCIDRRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "1.2.3.4", "1.2.3.4/", "1.2.3.4/33", "x/24", "1.2.3.4/ab"} {
		if _, ok := ParseCIDR(s); ok {
			t.Errorf("ParseCIDR(%q) accepted", s)
		}
	}
}

func TestGIDFromIPRoundtrip(t *testing.T) {
	f := func(a, b, c, d byte) bool {
		ip := NewIP(a, b, c, d)
		g := GIDFromIP(ip)
		got, ok := g.IP()
		return ok && got == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGIDNotIPv4Mapped(t *testing.T) {
	var g GID
	g[0] = 0xfe
	if _, ok := g.IP(); ok {
		t.Error("non-mapped GID decoded as IPv4")
	}
	if !(GID{}).IsZero() {
		t.Error("zero GID not zero")
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x00, 0xde, 0xad, 0xbe, 0xef}
	if m.String() != "02:00:de:ad:be:ef" {
		t.Errorf("MAC.String() = %q", m.String())
	}
}

func rocePacket(payload []byte) []Layer {
	return []Layer{
		&Ethernet{Dst: MAC{2, 0, 0, 0, 0, 2}, Src: MAC{2, 0, 0, 0, 0, 1}, EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(10, 0, 0, 1), Dst: NewIP(10, 0, 0, 2)},
		&UDP{SrcPort: 49152, DstPort: PortRoCEv2},
		&BTH{OpCode: OpSendOnly, PartKey: 0xffff, DestQP: 0x11, PSN: 7, AckReq: true},
		Payload(payload),
	}
}

func TestSerializeDecodeSendOnly(t *testing.T) {
	payload := []byte("hello rdma")
	data := Serialize(rocePacket(payload)...)
	p, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.BTH() == nil || p.BTH().OpCode != OpSendOnly || p.BTH().DestQP != 0x11 || p.BTH().PSN != 7 {
		t.Fatalf("BTH = %+v", p.BTH())
	}
	if !p.BTH().AckReq {
		t.Error("AckReq lost")
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload = %q", p.Payload)
	}
	if p.IPv4().Src != NewIP(10, 0, 0, 1) || p.IPv4().Dst != NewIP(10, 0, 0, 2) {
		t.Fatalf("IPs = %v -> %v", p.IPv4().Src, p.IPv4().Dst)
	}
	if p.UDP().DstPort != PortRoCEv2 {
		t.Fatalf("dst port = %d", p.UDP().DstPort)
	}
}

func TestSerializeDecodeWriteWithRETH(t *testing.T) {
	layers := []Layer{
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(1, 1, 1, 1), Dst: NewIP(2, 2, 2, 2)},
		&UDP{SrcPort: 1000, DstPort: PortRoCEv2},
		&BTH{OpCode: OpWriteOnly, DestQP: 42, PSN: 100},
		&RETH{VA: 0xdeadbeef0000, RKey: 0x1234, DMALen: 64},
		Payload(make([]byte, 64)),
	}
	p, err := Decode(Serialize(layers...))
	if err != nil {
		t.Fatal(err)
	}
	r := p.RETH()
	if r == nil || r.VA != 0xdeadbeef0000 || r.RKey != 0x1234 || r.DMALen != 64 {
		t.Fatalf("RETH = %+v", r)
	}
	if len(p.Payload) != 64 {
		t.Fatalf("payload len = %d", len(p.Payload))
	}
}

func TestSerializeDecodeAck(t *testing.T) {
	layers := []Layer{
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(2, 2, 2, 2), Dst: NewIP(1, 1, 1, 1)},
		&UDP{SrcPort: 1000, DstPort: PortRoCEv2},
		&BTH{OpCode: OpAcknowledge, DestQP: 9, PSN: 55},
		&AETH{Syndrome: AckSyndromeACK, MSN: 3},
	}
	p, err := Decode(Serialize(layers...))
	if err != nil {
		t.Fatal(err)
	}
	a := p.AETH()
	if a == nil || a.MSN != 3 {
		t.Fatalf("AETH = %+v", a)
	}
	if _, nak := a.IsNAK(); nak {
		t.Error("plain ACK decoded as NAK")
	}
}

func TestNAKSyndrome(t *testing.T) {
	a := &AETH{Syndrome: AckSyndromeNAK | NakRemoteAccessError}
	code, nak := a.IsNAK()
	if !nak || code != NakRemoteAccessError {
		t.Fatalf("IsNAK = %v, %v", code, nak)
	}
	rnr := &AETH{Syndrome: AckSyndromeRNRNAK | 5}
	if !rnr.IsRNR() {
		t.Error("RNR not detected")
	}
	if a.IsRNR() {
		t.Error("NAK misdetected as RNR")
	}
}

func TestSerializeDecodeUD(t *testing.T) {
	layers := []Layer{
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(1, 1, 1, 1), Dst: NewIP(2, 2, 2, 2)},
		&UDP{SrcPort: 1000, DstPort: PortRoCEv2},
		&BTH{OpCode: OpUDSendOnly, DestQP: 7, PSN: 1},
		&DETH{QKey: 0x1ee7, SrcQP: 3},
		Payload([]byte("dgram")),
	}
	p, err := Decode(Serialize(layers...))
	if err != nil {
		t.Fatal(err)
	}
	d := p.DETH()
	if d == nil || d.QKey != 0x1ee7 || d.SrcQP != 3 {
		t.Fatalf("DETH = %+v", d)
	}
	if string(p.Payload) != "dgram" {
		t.Fatalf("payload = %q", p.Payload)
	}
}

func TestSerializeDecodeImmediate(t *testing.T) {
	layers := []Layer{
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(1, 1, 1, 1), Dst: NewIP(2, 2, 2, 2)},
		&UDP{SrcPort: 1, DstPort: PortRoCEv2},
		&BTH{OpCode: OpSendOnlyImm, DestQP: 1, PSN: 1},
		&ImmDt{Value: 0xcafebabe},
		Payload([]byte("x")),
	}
	p, err := Decode(Serialize(layers...))
	if err != nil {
		t.Fatal(err)
	}
	if p.ImmDt() == nil || p.ImmDt().Value != 0xcafebabe {
		t.Fatalf("ImmDt = %+v", p.ImmDt())
	}
}

func TestVXLANEncapsulation(t *testing.T) {
	inner := Serialize(rocePacket([]byte("tunneled"))...)
	outer := []Layer{
		&Ethernet{Dst: MAC{2, 0, 0, 0, 1, 2}, Src: MAC{2, 0, 0, 0, 1, 1}, EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(172, 16, 0, 1), Dst: NewIP(172, 16, 0, 2)},
		&UDP{SrcPort: 55555, DstPort: PortVXLAN},
		&VXLAN{VNI: 0xabc123},
		Payload(inner),
	}
	p, err := Decode(Serialize(outer...))
	if err != nil {
		t.Fatal(err)
	}
	if p.VXLAN() == nil || p.VXLAN().VNI != 0xabc123 {
		t.Fatalf("VXLAN = %+v", p.VXLAN())
	}
	if p.Inner == nil {
		t.Fatal("inner packet not decoded")
	}
	if string(p.Inner.Payload) != "tunneled" {
		t.Fatalf("inner payload = %q", p.Inner.Payload)
	}
	if p.Inner.BTH() == nil {
		t.Fatal("inner BTH missing")
	}
}

func TestICRCDetectsCorruption(t *testing.T) {
	data := Serialize(rocePacket([]byte("payload bytes"))...)
	data[len(data)-6] ^= 0xff // flip a payload byte
	if _, err := Decode(data); err == nil {
		t.Fatal("corrupted packet decoded without error")
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	data := Serialize(rocePacket([]byte("x"))...)
	data[14+8] ^= 0xff // flip the TTL inside the IPv4 header
	if _, err := Decode(data); err == nil {
		t.Fatal("corrupted IPv4 header decoded without error")
	}
}

func TestDecodeTruncated(t *testing.T) {
	data := Serialize(rocePacket([]byte("some payload"))...)
	for _, n := range []int{0, 5, 14, 20, 33, 40, 45} {
		if n >= len(data) {
			continue
		}
		if _, err := Decode(data[:n]); err == nil {
			t.Errorf("Decode of %d-byte prefix succeeded", n)
		}
	}
	for i, data := range shortIPv4Frames() {
		if _, err := Decode(data); err == nil {
			t.Errorf("frame %d: IPv4 total length below the header length decoded", i)
		}
	}
}

// shortIPv4Frames returns a UDP frame whose IPv4 header, checksum intact,
// claims a total length of 5 bytes, less than the header's own 20, and
// the same frame behind a VXLAN header.
func shortIPv4Frames() [][]byte {
	short := Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TotalLen: 5, TTL: 64, Protocol: ProtoUDP, Src: NewIP(1, 1, 1, 1), Dst: NewIP(2, 2, 2, 2)},
		&UDP{SrcPort: 1, DstPort: 9},
		Payload("short"),
	)
	tunneled := Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(172, 16, 0, 1), Dst: NewIP(172, 16, 0, 2)},
		&UDP{SrcPort: 1, DstPort: PortVXLAN},
		&VXLAN{VNI: 9},
		Payload(short),
	)
	return [][]byte{short, tunneled}
}

func TestInternetChecksumSelfVerifies(t *testing.T) {
	f := func(a, b, c, d byte, id uint16, ttl byte) bool {
		h := &IPv4{TTL: ttl | 1, Protocol: ProtoUDP, ID: id, Src: NewIP(a, b, c, d), Dst: NewIP(d, c, b, a), TotalLen: 20}
		buf := make([]byte, 20)
		h.marshal(buf)
		return internetChecksum(buf) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBTHRoundtripQuick(t *testing.T) {
	f := func(op byte, se, ack bool, pkey uint16, qp, psn uint32) bool {
		in := &BTH{
			OpCode:   OpCode(op),
			SolEvent: se,
			AckReq:   ack,
			PartKey:  pkey,
			DestQP:   qp & 0xffffff,
			PSN:      psn & 0xffffff,
		}
		buf := make([]byte, in.headerLen())
		in.marshal(buf)
		out := &BTH{}
		if _, err := out.unmarshal(buf); err != nil {
			return false
		}
		return *in == *out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRETHRoundtripQuick(t *testing.T) {
	f := func(va uint64, rkey, l uint32) bool {
		in := &RETH{VA: va, RKey: rkey, DMALen: l}
		buf := make([]byte, in.headerLen())
		in.marshal(buf)
		out := &RETH{}
		if _, err := out.unmarshal(buf); err != nil {
			return false
		}
		return *in == *out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPayloadRoundtripQuick(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 4000 {
			payload = payload[:4000]
		}
		data := Serialize(rocePacket(payload)...)
		p, err := Decode(data)
		if err != nil {
			return false
		}
		return bytes.Equal(p.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpCodePredicates(t *testing.T) {
	cases := []struct {
		op                    OpCode
		first, last, send, wr bool
	}{
		{OpSendFirst, true, false, true, false},
		{OpSendMiddle, false, false, true, false},
		{OpSendOnly, false, true, true, false},
		{OpSendLastImm, false, true, true, false},
		{OpWriteFirst, true, false, false, true},
		{OpWriteOnly, false, true, false, true},
		{OpWriteMiddle, false, false, false, true},
		{OpAcknowledge, false, false, false, false},
		{OpUDSendOnly, false, true, true, false},
	}
	for _, c := range cases {
		if c.op.IsFirst() != c.first || c.op.IsLast() != c.last ||
			c.op.IsSend() != c.send || c.op.IsWrite() != c.wr {
			t.Errorf("%v predicates wrong: first=%v last=%v send=%v write=%v",
				c.op, c.op.IsFirst(), c.op.IsLast(), c.op.IsSend(), c.op.IsWrite())
		}
	}
	if !OpUDSendOnly.IsUD() || OpSendOnly.IsUD() {
		t.Error("IsUD wrong")
	}
	if !OpSendOnlyImm.HasImmediate() || OpSendOnly.HasImmediate() {
		t.Error("HasImmediate wrong")
	}
	if !OpReadResponseOnly.IsReadResponse() || OpReadRequest.IsReadResponse() {
		t.Error("IsReadResponse wrong")
	}
}

func TestPacketString(t *testing.T) {
	p, err := Decode(Serialize(rocePacket([]byte("abc"))...))
	if err != nil {
		t.Fatal(err)
	}
	want := "Ethernet/IPv4/UDP/BTH/Payload(3B)"
	if p.String() != want {
		t.Errorf("String() = %q, want %q", p.String(), want)
	}
}

func TestSerializeNonRoCEHasNoICRC(t *testing.T) {
	layers := []Layer{
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(1, 1, 1, 1), Dst: NewIP(2, 2, 2, 2)},
		&UDP{SrcPort: 9, DstPort: 12345},
		Payload([]byte("plain")),
	}
	data := Serialize(layers...)
	want := 14 + 20 + 8 + 5
	if len(data) != want {
		t.Fatalf("len = %d, want %d (no ICRC)", len(data), want)
	}
	p, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Payload) != "plain" {
		t.Fatalf("payload = %q", p.Payload)
	}
}

// TestDecodeNeverPanics fuzzes the decoder with arbitrary bytes and with
// mutations of valid packets: it may reject, but must never panic.
func TestDecodeNeverPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decode panicked: %v", r)
		}
	}()
	f := func(data []byte) bool {
		Decode(data) // errors are fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Mutations of a valid frame exercise deeper decode paths.
	valid := Serialize(rocePacket([]byte("seed packet for mutation"))...)
	g := func(pos uint16, val byte) bool {
		m := append([]byte(nil), valid...)
		m[int(pos)%len(m)] = val
		Decode(m)
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestSerializeRoundtripAllOpcodes walks every RC opcode through a
// serialize/decode cycle with the headers it requires.
func TestSerializeRoundtripAllOpcodes(t *testing.T) {
	ops := []OpCode{
		OpSendFirst, OpSendMiddle, OpSendLast, OpSendLastImm, OpSendOnly,
		OpSendOnlyImm, OpWriteFirst, OpWriteMiddle, OpWriteLast,
		OpWriteLastImm, OpWriteOnly, OpWriteOnlyImm, OpReadRequest,
		OpReadResponseFirst, OpReadResponseMiddle, OpReadResponseLast,
		OpReadResponseOnly, OpAcknowledge, OpUDSendOnly, OpUDSendOnlyImm,
	}
	for _, op := range ops {
		layers := []Layer{
			&Ethernet{EtherType: EtherTypeIPv4},
			&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(1, 1, 1, 1), Dst: NewIP(2, 2, 2, 2)},
			&UDP{SrcPort: 7, DstPort: PortRoCEv2},
			&BTH{OpCode: op, DestQP: 5, PSN: 9},
		}
		if op.IsUD() {
			layers = append(layers, &DETH{QKey: 1, SrcQP: 2})
		}
		if op == OpReadRequest || (op.IsWrite() && (op.IsFirst() || op == OpWriteOnly || op == OpWriteOnlyImm)) {
			layers = append(layers, &RETH{VA: 1, RKey: 2, DMALen: 3})
		}
		if op == OpAcknowledge || op == OpReadResponseFirst || op == OpReadResponseLast || op == OpReadResponseOnly {
			layers = append(layers, &AETH{Syndrome: AckSyndromeACK, MSN: 1})
		}
		if op.HasImmediate() {
			layers = append(layers, &ImmDt{Value: 7})
		}
		layers = append(layers, Payload([]byte("x")))
		p, err := Decode(Serialize(layers...))
		if err != nil {
			t.Errorf("%v: %v", op, err)
			continue
		}
		if p.BTH() == nil || p.BTH().OpCode != op {
			t.Errorf("%v: decoded opcode %v", op, p.BTH())
		}
	}
}

func TestPcapRoundtrip(t *testing.T) {
	frames := []CapturedFrame{
		{TimeNanos: 1_500_000_123, Data: Serialize(rocePacket([]byte("one"))...)},
		{TimeNanos: 2_000_000_456, Data: Serialize(rocePacket([]byte("two"))...)},
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, frames); err != nil {
		t.Fatal(err)
	}
	got, err := readPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d frames", len(got))
	}
	for i := range frames {
		if got[i].TimeNanos != frames[i].TimeNanos {
			t.Errorf("frame %d time %d, want %d", i, got[i].TimeNanos, frames[i].TimeNanos)
		}
		if !bytes.Equal(got[i].Data, frames[i].Data) {
			t.Errorf("frame %d data mismatch", i)
		}
		// Captured frames must still decode as RoCE packets.
		p, err := Decode(got[i].Data)
		if err != nil || p.BTH() == nil {
			t.Errorf("frame %d no longer decodes: %v", i, err)
		}
	}
}

func TestPcapHeaderIsWiresharkCompatible(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePcap(&buf, nil); err != nil {
		t.Fatal(err)
	}
	h := buf.Bytes()
	if len(h) != 24 {
		t.Fatalf("header length %d", len(h))
	}
	// Magic 0xa1b23c4d little-endian = nanosecond pcap.
	if h[0] != 0x4d || h[1] != 0x3c || h[2] != 0xb2 || h[3] != 0xa1 {
		t.Fatalf("magic bytes % x", h[:4])
	}
	if h[20] != 1 { // LINKTYPE_ETHERNET
		t.Fatalf("linktype %d", h[20])
	}
}

func TestReadPcapRejectsGarbage(t *testing.T) {
	if _, err := readPcap(bytes.NewReader([]byte("not a pcap file at all....."))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// readPcap parses a stream produced by WritePcap (round-trip checks; it is
// not a general pcap reader — only the nanosecond classic format is
// accepted).
func readPcap(r io.Reader) ([]CapturedFrame, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != pcapMagicNanos {
		return nil, fmt.Errorf("packet: not a nanosecond pcap stream")
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:24]); lt != pcapLinkTypeEth {
		return nil, fmt.Errorf("packet: unsupported link type %d", lt)
	}
	var out []CapturedFrame
	rec := make([]byte, 16)
	for {
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
		n := binary.LittleEndian.Uint32(rec[8:12])
		if n > pcapSnapLen {
			return nil, fmt.Errorf("packet: absurd record length %d", n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
		}
		out = append(out, CapturedFrame{
			TimeNanos: int64(binary.LittleEndian.Uint32(rec[0:4]))*1e9 + int64(binary.LittleEndian.Uint32(rec[4:8])),
			Data:      data,
		})
	}
}

func TestVXLANFlowTagRoundtrip(t *testing.T) {
	for _, tag := range []uint16{1, 2, 0x00ff, 0xffff} {
		var b [8]byte
		h := VXLAN{VNI: 0xabc123, FlowTag: tag}
		h.marshal(b[:])
		if b[0]&0x04 == 0 {
			t.Fatalf("tag %d: flow-tag flag bit not set", tag)
		}
		var got VXLAN
		if _, err := got.unmarshal(b[:]); err != nil {
			t.Fatal(err)
		}
		if got.FlowTag != tag || got.VNI != 0xabc123 {
			t.Fatalf("tag %d: roundtrip = %+v", tag, got)
		}
	}
}

// TestVXLANZeroFlowTagByteIdentical: a zero flow tag marshals the exact
// standard RFC 7348 header — the shared-connection extension is invisible
// unless used, so default-mode traces stay byte-identical.
func TestVXLANZeroFlowTagByteIdentical(t *testing.T) {
	var b [8]byte
	(&VXLAN{VNI: 0xabc123}).marshal(b[:])
	want := [8]byte{0x08, 0, 0, 0, 0xab, 0xc1, 0x23, 0}
	if b != want {
		t.Fatalf("zero-tag header = %x, want %x", b, want)
	}
	var got VXLAN
	if _, err := got.unmarshal(b[:]); err != nil {
		t.Fatal(err)
	}
	if got.FlowTag != 0 {
		t.Fatalf("zero-tag header decoded tag %d", got.FlowTag)
	}
}

// TestSharedPortDecode: port 4790 carries a flow-tagged VXLAN shim directly
// in front of the BTH; the decoder surfaces both the tag and the RoCE
// transport headers of the same frame.
func TestSharedPortDecode(t *testing.T) {
	payload := []byte("shared flow")
	data := Serialize(
		&Ethernet{Dst: MAC{2, 0, 0, 0, 0, 2}, Src: MAC{2, 0, 0, 0, 0, 1}, EtherType: EtherTypeIPv4},
		&IPv4{TTL: 64, Protocol: ProtoUDP, Src: NewIP(10, 0, 0, 1), Dst: NewIP(10, 0, 0, 2)},
		&UDP{SrcPort: 49152, DstPort: PortRoCEShared},
		&VXLAN{VNI: 100, FlowTag: 7},
		&BTH{OpCode: OpSendOnly, PartKey: 0xffff, DestQP: 0x11, PSN: 3},
		Payload(payload),
	)
	p, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.VXLAN() == nil || p.VXLAN().FlowTag != 7 || p.VXLAN().VNI != 100 {
		t.Fatalf("VXLAN shim = %+v", p.VXLAN())
	}
	if p.BTH() == nil || p.BTH().DestQP != 0x11 {
		t.Fatalf("BTH = %+v", p.BTH())
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload = %q", p.Payload)
	}
}
