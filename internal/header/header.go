// Package header models packet headers as used by in-network ACLs: the
// 5-tuple (source IP, destination IP, source port, destination port,
// protocol), IPv4 prefixes, port ranges, and rule-match predicates over
// those fields.
//
// The bit layout used by the SMT encoding is fixed and documented here so
// every other package agrees on it: bits 0..31 are the source IP (most
// significant bit first), 32..63 the destination IP, 64..79 the source
// port, 80..95 the destination port, and 96..103 the protocol, for a total
// of NumBits = 104 bits per packet, matching the 104 boolean variables the
// paper mentions in §9.
package header

import (
	"fmt"
	"strconv"
	"strings"
)

// Field bit offsets and widths for the SMT encoding of a packet header.
const (
	SrcIPOff   = 0
	SrcIPBits  = 32
	DstIPOff   = 32
	DstIPBits  = 32
	SrcPortOff = 64
	PortBits   = 16
	DstPortOff = 80
	ProtoOff   = 96
	ProtoBits  = 8

	// NumBits is the total number of boolean variables needed to encode
	// one packet header.
	NumBits = 104
)

// Well-known protocol numbers accepted by the textual rule syntax.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// Packet is a concrete packet header (one point in the 104-bit space).
type Packet struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// String renders the packet in a compact human-readable form.
func (p Packet) String() string {
	return fmt.Sprintf("%s:%d -> %s:%d proto %d",
		ipString(p.SrcIP), p.SrcPort, ipString(p.DstIP), p.DstPort, p.Proto)
}

// Bit returns bit i of the packet under the fixed encoding layout,
// with i in [0, NumBits).
func (p Packet) Bit(i int) bool {
	switch {
	case i < DstIPOff:
		return p.SrcIP>>(31-(i-SrcIPOff))&1 == 1
	case i < SrcPortOff:
		return p.DstIP>>(31-(i-DstIPOff))&1 == 1
	case i < DstPortOff:
		return p.SrcPort>>(15-(i-SrcPortOff))&1 == 1
	case i < ProtoOff:
		return p.DstPort>>(15-(i-DstPortOff))&1 == 1
	default:
		return p.Proto>>(7-(i-ProtoOff))&1 == 1
	}
}

// Prefix is an IPv4 prefix: the Len most significant bits of Addr are
// significant, the rest must be zero. The zero value is 0.0.0.0/0, which
// matches every address.
type Prefix struct {
	Addr uint32
	Len  int
}

// AnyPrefix matches all IPv4 addresses.
var AnyPrefix = Prefix{}

// ParsePrefix parses "a.b.c.d/len" or a bare address "a.b.c.d" (treated
// as a /32). The input may also be "all" or "any" for 0.0.0.0/0.
func ParsePrefix(s string) (Prefix, error) {
	if s == "all" || s == "any" || s == "*" {
		return AnyPrefix, nil
	}
	addrPart := s
	length := 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		addrPart = s[:i]
		n, ok := parseDecimal(s[i+1:], 32)
		if !ok {
			return Prefix{}, fmt.Errorf("header: bad prefix length in %q", s)
		}
		length = n
	}
	if strings.Count(addrPart, ".") != 3 {
		return Prefix{}, fmt.Errorf("header: bad IPv4 address %q", s)
	}
	var addr uint32
	for i := 0; i < 4; i++ {
		part := addrPart
		if j := strings.IndexByte(addrPart, '.'); j >= 0 {
			part, addrPart = addrPart[:j], addrPart[j+1:]
		}
		n, ok := parseDecimal(part, 255)
		if !ok {
			return Prefix{}, fmt.Errorf("header: bad IPv4 octet in %q", s)
		}
		addr = addr<<8 | uint32(n)
	}
	p := Prefix{Addr: addr, Len: length}
	return p.Canonical(), nil
}

// parseDecimal parses s as strconv.Atoi does (an optional sign, then
// one or more decimal digits) and accepts the result when it lies in
// [0, limit].
func parseDecimal(s string, limit int) (int, bool) {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		if s[0] == '-' {
			limit = 0 // only -0, -00, ... lie in range
		}
		s = s[1:]
	}
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + int(c-'0'); n > limit {
			return 0, false
		}
	}
	return n, true
}

// MustParsePrefix is ParsePrefix that panics on error; intended for
// constants in tests and examples.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Canonical zeros the host bits of the prefix.
func (p Prefix) Canonical() Prefix {
	return Prefix{Addr: p.Addr & p.mask(), Len: p.Len}
}

func (p Prefix) mask() uint32 {
	if p.Len <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - p.Len)
}

// Matches reports whether addr is inside the prefix.
func (p Prefix) Matches(addr uint32) bool {
	return addr&p.mask() == p.Addr&p.mask()
}

// Contains reports whether every address in q is also in p.
func (p Prefix) Contains(q Prefix) bool {
	return p.Len <= q.Len && p.Matches(q.Addr)
}

// Overlaps reports whether p and q share any address. For prefixes this
// happens exactly when one contains the other.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q) || q.Contains(p)
}

// Intersect returns the intersection of p and q. Because prefixes nest,
// the intersection is the longer of the two when they overlap. ok is
// false when they are disjoint.
func (p Prefix) Intersect(q Prefix) (Prefix, bool) {
	switch {
	case p.Contains(q):
		return q, true
	case q.Contains(p):
		return p, true
	default:
		return Prefix{}, false
	}
}

// IsAny reports whether the prefix is 0.0.0.0/0.
func (p Prefix) IsAny() bool { return p.Len == 0 }

// Size returns the number of addresses covered, as a float-free uint64
// (2^(32-Len)).
func (p Prefix) Size() uint64 { return 1 << (32 - p.Len) }

// Halves splits the prefix into its two children (/Len+1). It panics on a
// /32.
func (p Prefix) Halves() (Prefix, Prefix) {
	if p.Len >= 32 {
		panic("header: cannot split a /32 prefix")
	}
	left := Prefix{Addr: p.Addr, Len: p.Len + 1}
	right := Prefix{Addr: p.Addr | 1<<(31-p.Len), Len: p.Len + 1}
	return left, right
}

// Parent returns the prefix shortened by one bit. It panics on a /0.
func (p Prefix) Parent() Prefix {
	if p.Len <= 0 {
		panic("header: /0 prefix has no parent")
	}
	return Prefix{Addr: p.Addr, Len: p.Len - 1}.Canonical()
}

// String renders the prefix in CIDR form, or "all" for 0.0.0.0/0.
func (p Prefix) String() string {
	if p.IsAny() {
		return "all"
	}
	return fmt.Sprintf("%s/%d", ipString(p.Addr), p.Len)
}

func ipString(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", a>>24&0xff, a>>16&0xff, a>>8&0xff, a&0xff)
}

// PortRange is an inclusive range of ports. The zero value is invalid;
// use AnyPort for the full range.
type PortRange struct {
	Lo, Hi uint16
}

// AnyPort matches all 65536 ports.
var AnyPort = PortRange{0, 65535}

// ParsePortRange parses "80", "80-443", or "all"/"any".
func ParsePortRange(s string) (PortRange, error) {
	if s == "all" || s == "any" || s == "*" {
		return AnyPort, nil
	}
	lo, hi := s, s
	if i := strings.IndexByte(s, '-'); i >= 0 {
		lo, hi = s[:i], s[i+1:]
	}
	l, err := strconv.ParseUint(lo, 10, 16)
	if err != nil {
		return PortRange{}, fmt.Errorf("header: bad port %q", s)
	}
	h, err := strconv.ParseUint(hi, 10, 16)
	if err != nil || h < l {
		return PortRange{}, fmt.Errorf("header: bad port range %q", s)
	}
	return PortRange{uint16(l), uint16(h)}, nil
}

// Matches reports whether port is in the range.
func (r PortRange) Matches(port uint16) bool { return r.Lo <= port && port <= r.Hi }

// Contains reports whether q is entirely within r.
func (r PortRange) Contains(q PortRange) bool { return r.Lo <= q.Lo && q.Hi <= r.Hi }

// Overlaps reports whether the ranges share any port.
func (r PortRange) Overlaps(q PortRange) bool { return r.Lo <= q.Hi && q.Lo <= r.Hi }

// Intersect returns the common sub-range; ok is false when disjoint.
func (r PortRange) Intersect(q PortRange) (PortRange, bool) {
	lo, hi := max16(r.Lo, q.Lo), min16(r.Hi, q.Hi)
	if lo > hi {
		return PortRange{}, false
	}
	return PortRange{lo, hi}, true
}

// IsAny reports whether the range covers every port.
func (r PortRange) IsAny() bool { return r == AnyPort }

// String renders the range ("all", "80", or "80-443").
func (r PortRange) String() string {
	switch {
	case r.IsAny():
		return "all"
	case r.Lo == r.Hi:
		return strconv.Itoa(int(r.Lo))
	default:
		return fmt.Sprintf("%d-%d", r.Lo, r.Hi)
	}
}

func max16(a, b uint16) uint16 {
	if a > b {
		return a
	}
	return b
}

func min16(a, b uint16) uint16 {
	if a < b {
		return a
	}
	return b
}

// ProtoMatch matches an inclusive range of protocol numbers. Exact-value
// matches are Lo == Hi; "any" is [0, 255]. A range representation (rather
// than any-or-exact) keeps the class space closed under complement: the
// traffic classes "not TCP" split into the two ranges [0,5] and [7,255],
// which the generate primitive's atomization relies on. The zero value
// matches only protocol 0.
type ProtoMatch struct {
	Lo, Hi uint8
}

// AnyProto matches all protocol numbers.
var AnyProto = ProtoMatch{0, 255}

// Proto returns a ProtoMatch for one specific protocol.
func Proto(v uint8) ProtoMatch { return ProtoMatch{v, v} }

// ParseProto parses "tcp", "udp", "icmp", a number or number range, or
// "all"/"any"/"ip".
func ParseProto(s string) (ProtoMatch, error) {
	switch s {
	case "all", "any", "ip", "*":
		return AnyProto, nil
	case "tcp":
		return Proto(ProtoTCP), nil
	case "udp":
		return Proto(ProtoUDP), nil
	case "icmp":
		return Proto(ProtoICMP), nil
	}
	lo, hi := s, s
	if i := strings.IndexByte(s, '-'); i >= 0 {
		lo, hi = s[:i], s[i+1:]
	}
	l, err := strconv.ParseUint(lo, 10, 8)
	if err != nil {
		return ProtoMatch{}, fmt.Errorf("header: bad protocol %q", s)
	}
	h, err := strconv.ParseUint(hi, 10, 8)
	if err != nil || h < l {
		return ProtoMatch{}, fmt.Errorf("header: bad protocol %q", s)
	}
	return ProtoMatch{uint8(l), uint8(h)}, nil
}

// IsAny reports whether the match covers every protocol number.
func (m ProtoMatch) IsAny() bool { return m.Lo == 0 && m.Hi == 255 }

// Matches reports whether proto is matched.
func (m ProtoMatch) Matches(proto uint8) bool { return m.Lo <= proto && proto <= m.Hi }

// Contains reports whether every protocol matched by q is matched by m.
func (m ProtoMatch) Contains(q ProtoMatch) bool { return m.Lo <= q.Lo && q.Hi <= m.Hi }

// Overlaps reports whether m and q match a common protocol.
func (m ProtoMatch) Overlaps(q ProtoMatch) bool { return m.Lo <= q.Hi && q.Lo <= m.Hi }

// Intersect returns the common protocol range; ok is false when disjoint.
func (m ProtoMatch) Intersect(q ProtoMatch) (ProtoMatch, bool) {
	lo, hi := m.Lo, m.Hi
	if q.Lo > lo {
		lo = q.Lo
	}
	if q.Hi < hi {
		hi = q.Hi
	}
	if lo > hi {
		return ProtoMatch{}, false
	}
	return ProtoMatch{lo, hi}, true
}

// String renders the protocol match.
func (m ProtoMatch) String() string {
	switch {
	case m.IsAny():
		return "all"
	case m == Proto(ProtoTCP):
		return "tcp"
	case m == Proto(ProtoUDP):
		return "udp"
	case m == Proto(ProtoICMP):
		return "icmp"
	case m.Lo == m.Hi:
		return strconv.Itoa(int(m.Lo))
	default:
		return fmt.Sprintf("%d-%d", m.Lo, m.Hi)
	}
}

// Match is a 5-tuple predicate: the conjunction of per-field constraints.
// It is the matching part of an ACL rule, and also the representation of a
// traffic class, a fix neighborhood, and an overlap field in ACL
// synthesis.
//
// Note that the zero value constrains ports and protocol to exactly 0
// (PortRange and ProtoMatch zero values are the singleton ranges {0});
// use MatchAll, NewMatch, DstMatch, or SrcMatch to build wildcard
// matches. Keeping the zero values unambiguous matters: the fix
// primitive's neighborhoods must be able to denote "exactly port 0".
type Match struct {
	Src     Prefix
	Dst     Prefix
	SrcPort PortRange
	DstPort PortRange
	Proto   ProtoMatch
}

// MatchAll matches every packet.
var MatchAll = Match{SrcPort: AnyPort, DstPort: AnyPort, Proto: AnyProto}

// DstMatch returns a Match constraining only the destination prefix, the
// most common rule shape in the paper's examples.
func DstMatch(p Prefix) Match {
	m := MatchAll
	m.Dst = p
	return m
}

// SrcMatch returns a Match constraining only the source prefix.
func SrcMatch(p Prefix) Match {
	m := MatchAll
	m.Src = p
	return m
}

// Matches reports whether packet p satisfies every field constraint.
func (m Match) Matches(p Packet) bool {
	return m.Src.Matches(p.SrcIP) && m.Dst.Matches(p.DstIP) &&
		m.SrcPort.Matches(p.SrcPort) && m.DstPort.Matches(p.DstPort) &&
		m.Proto.Matches(p.Proto)
}

// Overlaps reports whether some packet satisfies both m and q. Because
// every field constraint is a prefix, range, or value set, overlap
// decomposes per field (this is the satisfiability test m_k ∧ m_k' from
// Definition 4.2 of the paper, decided syntactically).
func (m Match) Overlaps(q Match) bool {
	return m.Src.Overlaps(q.Src) && m.Dst.Overlaps(q.Dst) &&
		m.SrcPort.Overlaps(q.SrcPort) && m.DstPort.Overlaps(q.DstPort) &&
		m.Proto.Overlaps(q.Proto)
}

// Contains reports whether every packet matching q also matches m.
func (m Match) Contains(q Match) bool {
	return m.Src.Contains(q.Src) && m.Dst.Contains(q.Dst) &&
		m.SrcPort.Contains(q.SrcPort) && m.DstPort.Contains(q.DstPort) &&
		m.Proto.Contains(q.Proto)
}

// Intersect returns the conjunction of m and q as a Match; ok is false
// when they are disjoint. The intersection of per-field prefixes/ranges
// is again a prefix/range, so Match is closed under intersection.
func (m Match) Intersect(q Match) (Match, bool) {
	var out Match
	var ok bool
	if out.Src, ok = m.Src.Intersect(q.Src); !ok {
		return Match{}, false
	}
	if out.Dst, ok = m.Dst.Intersect(q.Dst); !ok {
		return Match{}, false
	}
	if out.SrcPort, ok = m.SrcPort.Intersect(q.SrcPort); !ok {
		return Match{}, false
	}
	if out.DstPort, ok = m.DstPort.Intersect(q.DstPort); !ok {
		return Match{}, false
	}
	if out.Proto, ok = m.Proto.Intersect(q.Proto); !ok {
		return Match{}, false
	}
	return out, true
}

// IsAll reports whether the match is unconstrained.
func (m Match) IsAll() bool {
	return m.Src.IsAny() && m.Dst.IsAny() && m.SrcPort.IsAny() &&
		m.DstPort.IsAny() && m.Proto.IsAny()
}

// Equal reports whether m and q denote the same predicate.
func (m Match) Equal(q Match) bool { return m == q }

// SamplePacket returns one packet inside the match (the lowest corner).
func (m Match) SamplePacket() Packet {
	return Packet{
		SrcIP:   m.Src.Addr,
		DstIP:   m.Dst.Addr,
		SrcPort: m.SrcPort.Lo,
		DstPort: m.DstPort.Lo,
		Proto:   m.Proto.Lo,
	}
}

// String renders the match in rule syntax, e.g.
// "src 10.0.0.0/8 dst 1.0.0.0/8 dport 80 proto tcp", or "all".
func (m Match) String() string {
	if m.IsAll() {
		return "all"
	}
	var parts []string
	if !m.Src.IsAny() {
		parts = append(parts, "src "+m.Src.String())
	}
	if !m.Dst.IsAny() {
		parts = append(parts, "dst "+m.Dst.String())
	}
	if !m.SrcPort.IsAny() {
		parts = append(parts, "sport "+m.SrcPort.String())
	}
	if !m.DstPort.IsAny() {
		parts = append(parts, "dport "+m.DstPort.String())
	}
	if !m.Proto.IsAny() {
		parts = append(parts, "proto "+m.Proto.String())
	}
	return strings.Join(parts, " ")
}
