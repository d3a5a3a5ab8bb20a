// Package packet implements encoding and decoding of the wire formats used
// by the simulated network: Ethernet, IPv4, UDP, VXLAN, and the RoCEv2
// (InfiniBand-over-UDP) transport headers BTH, RETH, AETH, DETH and ImmDt.
//
// Serialize writes a list of headers (each a Layer) and a Payload outside-in
// into one wire frame. Decode reads a frame back into a Packet, which holds
// a typed pointer per header it found. The decoder is closed-world: it knows
// exactly the protocols the simulation uses, and the UDP port and the BTH
// opcode fix which headers follow, which keeps it small and allocation-light.
package packet

import (
	"fmt"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// BroadcastMAC is the Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IP is an IPv4 address.
type IP [4]byte

func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// IsZero reports whether the address is 0.0.0.0.
func (ip IP) IsZero() bool { return ip == IP{} }

// NewIP builds an IP from four octets.
func NewIP(a, b, c, d byte) IP { return IP{a, b, c, d} }

// ParseIP parses dotted-quad notation. It returns the zero IP and false on
// malformed input.
func ParseIP(s string) (IP, bool) {
	var ip IP
	var idx, val, digits int
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if digits == 0 || idx > 3 {
				return IP{}, false
			}
			ip[idx] = byte(val)
			idx++
			val, digits = 0, 0
			continue
		}
		c := s[i]
		if c < '0' || c > '9' {
			return IP{}, false
		}
		val = val*10 + int(c-'0')
		if val > 255 || digits == 3 {
			return IP{}, false
		}
		digits++
	}
	if idx != 4 {
		return IP{}, false
	}
	return ip, true
}

// CIDR is an IPv4 prefix, e.g. 192.168.1.0/24.
type CIDR struct {
	IP   IP
	Bits int
}

func (c CIDR) String() string { return fmt.Sprintf("%v/%d", c.IP, c.Bits) }

// Contains reports whether ip falls inside the prefix.
func (c CIDR) Contains(ip IP) bool {
	if c.Bits <= 0 {
		return true
	}
	if c.Bits > 32 {
		return false
	}
	mask := ^uint32(0) << (32 - uint(c.Bits))
	return ipU32(ip)&mask == ipU32(c.IP)&mask
}

// ParseCIDR parses "a.b.c.d/n". It returns false on malformed input.
func ParseCIDR(s string) (CIDR, bool) {
	slash := -1
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			slash = i
			break
		}
	}
	if slash < 0 {
		return CIDR{}, false
	}
	ip, ok := ParseIP(s[:slash])
	if !ok {
		return CIDR{}, false
	}
	bits := 0
	if slash+1 >= len(s) {
		return CIDR{}, false
	}
	for i := slash + 1; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return CIDR{}, false
		}
		bits = bits*10 + int(c-'0')
		if bits > 32 {
			return CIDR{}, false
		}
	}
	return CIDR{IP: ip, Bits: bits}, true
}

// MaskIP zeroes the host bits of ip, keeping the first bits prefix bits.
// bits <= 0 yields 0.0.0.0; bits >= 32 returns ip unchanged.
func MaskIP(ip IP, bits int) IP {
	if bits <= 0 {
		return IP{}
	}
	if bits >= 32 {
		return ip
	}
	v := ipU32(ip) & (^uint32(0) << (32 - uint(bits)))
	return IP{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

func ipU32(ip IP) uint32 {
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// GID is a 128-bit RDMA global identifier. RoCEv2 GIDs are IPv4-mapped IPv6
// addresses (::ffff:a.b.c.d).
type GID [16]byte

// GIDFromIP returns the RoCEv2 GID for an IPv4 address.
func GIDFromIP(ip IP) GID {
	var g GID
	g[10], g[11] = 0xff, 0xff
	copy(g[12:], ip[:])
	return g
}

// IP returns the IPv4 address embedded in an IPv4-mapped GID and true, or
// the zero IP and false if the GID is not IPv4-mapped.
func (g GID) IP() (IP, bool) {
	for i := 0; i < 10; i++ {
		if g[i] != 0 {
			return IP{}, false
		}
	}
	if g[10] != 0xff || g[11] != 0xff {
		return IP{}, false
	}
	return IP{g[12], g[13], g[14], g[15]}, true
}

// IsZero reports whether the GID is all zeros.
func (g GID) IsZero() bool { return g == GID{} }

func (g GID) String() string {
	if ip, ok := g.IP(); ok {
		return "::ffff:" + ip.String()
	}
	return fmt.Sprintf("%x", g[:])
}
