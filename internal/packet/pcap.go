package packet

import (
	"encoding/binary"
	"io"
)

// Pcap support: simulated traffic can be captured and inspected with
// standard tooling (tcpdump -r, Wireshark, tshark). The classic pcap
// format is used (not pcapng): a 24-byte global header followed by
// 16-byte-headed records. Timestamps are the virtual-time nanoseconds of
// the simulation.

const (
	pcapMagicNanos  = 0xa1b23c4d // nanosecond-resolution magic
	pcapVersionMaj  = 2
	pcapVersionMin  = 4
	pcapLinkTypeEth = 1 // LINKTYPE_ETHERNET
	pcapSnapLen     = 65535
)

// CapturedFrame is one frame with its virtual capture time in nanoseconds.
type CapturedFrame struct {
	TimeNanos int64
	Data      []byte
}

// WritePcap writes frames as a nanosecond-resolution pcap stream.
func WritePcap(w io.Writer, frames []CapturedFrame) error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicNanos)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMaj)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMin)
	// thiszone (4) and sigfigs (4) stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], pcapLinkTypeEth)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	rec := make([]byte, 16)
	for _, f := range frames {
		sec := uint32(f.TimeNanos / 1e9)
		nsec := uint32(f.TimeNanos % 1e9)
		binary.LittleEndian.PutUint32(rec[0:4], sec)
		binary.LittleEndian.PutUint32(rec[4:8], nsec)
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(f.Data)))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(len(f.Data)))
		if _, err := w.Write(rec); err != nil {
			return err
		}
		if _, err := w.Write(f.Data); err != nil {
			return err
		}
	}
	return nil
}
