package header

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePrefix(t *testing.T) {
	cases := []struct {
		in   string
		want Prefix
		err  bool
	}{
		{"1.0.0.0/8", Prefix{0x01000000, 8}, false},
		{"10.1.2.3", Prefix{0x0a010203, 32}, false},
		{"all", AnyPrefix, false},
		{"any", AnyPrefix, false},
		{"0.0.0.0/0", AnyPrefix, false},
		{"1.2.3.4/24", Prefix{0x01020300, 24}, false}, // host bits zeroed
		{"256.0.0.1", Prefix{}, true},
		{"1.2.3", Prefix{}, true},
		{"1.2.3.4/33", Prefix{}, true},
		{"1.2.3.4/x", Prefix{}, true},
	}
	for _, c := range cases {
		got, err := ParsePrefix(c.in)
		if c.err != (err != nil) {
			t.Errorf("ParsePrefix(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParsePrefix(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// parsePrefixSplit is ParsePrefix as it was written with strings.Split
// and strconv.Atoi, kept as the reference the allocation-free version
// must agree with.
func parsePrefixSplit(s string) (Prefix, error) {
	if s == "all" || s == "any" || s == "*" {
		return AnyPrefix, nil
	}
	addrPart := s
	length := 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		addrPart = s[:i]
		n, err := strconv.Atoi(s[i+1:])
		if err != nil || n < 0 || n > 32 {
			return Prefix{}, fmt.Errorf("header: bad prefix length in %q", s)
		}
		length = n
	}
	parts := strings.Split(addrPart, ".")
	if len(parts) != 4 {
		return Prefix{}, fmt.Errorf("header: bad IPv4 address %q", s)
	}
	var addr uint32
	for _, part := range parts {
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 255 {
			return Prefix{}, fmt.Errorf("header: bad IPv4 octet in %q", s)
		}
		addr = addr<<8 | uint32(n)
	}
	return Prefix{Addr: addr, Len: length}.Canonical(), nil
}

// TestParsePrefixAgreesWithSplit checks corner cases and random strings
// over the prefix alphabet: the same prefix, or the same error.
func TestParsePrefixAgreesWithSplit(t *testing.T) {
	inputs := []string{
		"", "all", "any", "*", "All", "/", "/8", "1.2.3.4/", "+8", "08",
		"1.2.3.4.", "1..2.3", ".1.2.3", "256.0.0.0", "255.255.255.255",
		"1.2.3.4/33", "1.2.3.4/32", "1.2.3.4/0", "1.2.3.4/+8", "1.2.3.4/-0",
		"1.2.3.4/-1", "1.2.3.4/08", "+1.2.3.4", "-0.0.0.0", "-1.0.0.0",
		"01.002.0003.00004/0008", "1.2.3.4/8/8", "1.2.3.4 /8", " 1.2.3.4",
		"1.2.3.0x4", "1_0.0.0.0", "00000000000000000000001.2.3.4",
		"99999999999999999999.0.0.0", "1.2.3.4/99999999999999999999",
	}
	r := rand.New(rand.NewSource(1))
	const alphabet = "0123456789./+- _xa"
	for i := 0; i < 20000; i++ {
		b := make([]byte, r.Intn(20))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		inputs = append(inputs, string(b))
	}
	for i := 0; i < 2000; i++ {
		inputs = append(inputs, fmt.Sprintf("%d.%d.%d.%d/%d",
			r.Intn(300), r.Intn(300), r.Intn(300), r.Intn(300), r.Intn(40)))
	}
	for _, s := range inputs {
		got, gotErr := ParsePrefix(s)
		want, wantErr := parsePrefixSplit(s)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
			t.Errorf("ParsePrefix(%q) = %v, %v; reference %v, %v", s, got, gotErr, want, wantErr)
		}
	}
}

func TestParsePrefixAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { MustParsePrefix("10.20.30.0/24") }); n != 0 {
		t.Errorf("ParsePrefix allocates %v times per call", n)
	}
}

func TestPrefixStringRoundTrip(t *testing.T) {
	for _, s := range []string{"1.0.0.0/8", "10.20.0.0/16", "192.168.1.1/32", "all"} {
		p := MustParsePrefix(s)
		q, err := ParsePrefix(p.String())
		if err != nil || q != p {
			t.Errorf("round trip %q -> %q -> %+v (err %v)", s, p.String(), q, err)
		}
	}
}

func TestPrefixContainsOverlap(t *testing.T) {
	p8 := MustParsePrefix("1.0.0.0/8")
	p16 := MustParsePrefix("1.2.0.0/16")
	q16 := MustParsePrefix("2.2.0.0/16")
	if !p8.Contains(p16) {
		t.Error("1.0.0.0/8 should contain 1.2.0.0/16")
	}
	if p16.Contains(p8) {
		t.Error("1.2.0.0/16 should not contain 1.0.0.0/8")
	}
	if !p8.Overlaps(p16) || !p16.Overlaps(p8) {
		t.Error("overlap should be symmetric and true for nested prefixes")
	}
	if p8.Overlaps(q16) {
		t.Error("1.0.0.0/8 should not overlap 2.2.0.0/16")
	}
	if got, ok := p8.Intersect(p16); !ok || got != p16 {
		t.Errorf("intersect = %v,%v want %v,true", got, ok, p16)
	}
	if _, ok := p16.Intersect(q16); ok {
		t.Error("disjoint prefixes should not intersect")
	}
}

func TestPrefixHalvesParent(t *testing.T) {
	p := MustParsePrefix("1.0.0.0/8")
	l, r := p.Halves()
	if l != MustParsePrefix("1.0.0.0/9") || r != MustParsePrefix("1.128.0.0/9") {
		t.Errorf("Halves = %v, %v", l, r)
	}
	if l.Parent() != p || r.Parent() != p {
		t.Errorf("Parent of halves should be the original prefix")
	}
	if !p.Contains(l) || !p.Contains(r) || l.Overlaps(r) {
		t.Error("halves must nest in parent and be disjoint")
	}
}

func TestPrefixMatchesBoundary(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if !p.Matches(0x0a000000) || !p.Matches(0x0affffff) {
		t.Error("prefix must match its first and last address")
	}
	if p.Matches(0x0b000000) || p.Matches(0x09ffffff) {
		t.Error("prefix must not match adjacent addresses")
	}
}

func TestPortRange(t *testing.T) {
	r, err := ParsePortRange("80-443")
	if err != nil || r != (PortRange{80, 443}) {
		t.Fatalf("ParsePortRange: %v %v", r, err)
	}
	single, _ := ParsePortRange("22")
	if single != (PortRange{22, 22}) {
		t.Errorf("single port = %v", single)
	}
	if _, err := ParsePortRange("443-80"); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := ParsePortRange("70000"); err == nil {
		t.Error("out-of-range port should fail")
	}
	if !r.Matches(80) || !r.Matches(443) || r.Matches(79) || r.Matches(444) {
		t.Error("range boundaries wrong")
	}
	got, ok := r.Intersect(PortRange{400, 500})
	if !ok || got != (PortRange{400, 443}) {
		t.Errorf("Intersect = %v, %v", got, ok)
	}
	if _, ok := r.Intersect(PortRange{500, 600}); ok {
		t.Error("disjoint ranges should not intersect")
	}
	if AnyPort.String() != "all" || single.String() != "22" || r.String() != "80-443" {
		t.Error("PortRange.String formatting wrong")
	}
}

func TestProtoMatch(t *testing.T) {
	tcp, _ := ParseProto("tcp")
	if tcp != Proto(ProtoTCP) {
		t.Fatalf("tcp = %v", tcp)
	}
	anyp, _ := ParseProto("all")
	if !anyp.IsAny() {
		t.Fatal("all should be Any")
	}
	rng, err := ParseProto("6-17")
	if err != nil || rng != (ProtoMatch{6, 17}) {
		t.Fatalf("proto range = %v, %v", rng, err)
	}
	if rng.String() != "6-17" {
		t.Errorf("range String = %q", rng.String())
	}
	if _, err := ParseProto("17-6"); err == nil {
		t.Error("inverted proto range should fail")
	}
	if !anyp.Contains(tcp) || tcp.Contains(anyp) {
		t.Error("containment wrong")
	}
	if !tcp.Overlaps(anyp) || tcp.Overlaps(Proto(ProtoUDP)) {
		t.Error("overlap wrong")
	}
	got, ok := anyp.Intersect(tcp)
	if !ok || got != tcp {
		t.Errorf("any ∩ tcp = %v, %v", got, ok)
	}
	if _, ok := tcp.Intersect(Proto(ProtoUDP)); ok {
		t.Error("tcp ∩ udp should be empty")
	}
	if tcp.String() != "tcp" || anyp.String() != "all" {
		t.Error("proto String wrong")
	}
	if _, err := ParseProto("999"); err == nil {
		t.Error("protocol 999 should fail to parse")
	}
}

func TestMatchBasics(t *testing.T) {
	m := DstMatch(MustParsePrefix("1.0.0.0/8"))
	in := Packet{DstIP: 0x01020304}
	out := Packet{DstIP: 0x02020304}
	if !m.Matches(in) || m.Matches(out) {
		t.Error("DstMatch matching wrong")
	}
	if m.IsAll() || !MatchAll.IsAll() {
		t.Error("IsAll wrong")
	}
	if !MatchAll.Contains(m) || m.Contains(MatchAll) {
		t.Error("Contains wrong")
	}
}

func TestMatchZeroValuePortIsExact(t *testing.T) {
	// The zero values of PortRange and ProtoMatch are the singleton {0}:
	// a Match literal that leaves them unset matches only port-0/proto-0
	// packets. (The fix primitive's neighborhoods rely on "exactly port
	// 0" being expressible.) Wildcards must be explicit.
	m := Match{Dst: MustParsePrefix("1.0.0.0/8")}
	zero := Packet{DstIP: 0x01000001}
	busy := Packet{DstIP: 0x01000001, SrcPort: 12345, DstPort: 80, Proto: ProtoTCP}
	if !m.Matches(zero) {
		t.Error("zero-value fields should match the all-zero packet")
	}
	if m.Matches(busy) {
		t.Error("zero-value port/proto fields must NOT be wildcards")
	}
	if !DstMatch(MustParsePrefix("1.0.0.0/8")).Matches(busy) {
		t.Error("DstMatch should wildcard the other fields")
	}
}

func TestMatchIntersect(t *testing.T) {
	a := Match{Dst: MustParsePrefix("1.0.0.0/8"), SrcPort: AnyPort, DstPort: PortRange{80, 443}, Proto: AnyProto}
	b := Match{Dst: MustParsePrefix("1.2.0.0/16"), SrcPort: AnyPort, DstPort: PortRange{400, 500}, Proto: Proto(ProtoTCP)}
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	want := Match{
		Dst:     MustParsePrefix("1.2.0.0/16"),
		SrcPort: AnyPort,
		DstPort: PortRange{400, 443},
		Proto:   Proto(ProtoTCP),
	}
	if !got.Equal(want) {
		t.Errorf("Intersect = %+v, want %+v", got, want)
	}
	c := DstMatch(MustParsePrefix("9.0.0.0/8"))
	if _, ok := a.Intersect(c); ok {
		t.Error("disjoint dst should not intersect")
	}
}

func TestMatchString(t *testing.T) {
	m := Match{
		Src:     MustParsePrefix("10.0.0.0/8"),
		Dst:     MustParsePrefix("1.0.0.0/8"),
		SrcPort: AnyPort,
		DstPort: PortRange{80, 80},
		Proto:   Proto(ProtoTCP),
	}
	want := "src 10.0.0.0/8 dst 1.0.0.0/8 dport 80 proto tcp"
	if m.String() != want {
		t.Errorf("String = %q, want %q", m.String(), want)
	}
	if MatchAll.String() != "all" {
		t.Errorf("MatchAll.String = %q", MatchAll.String())
	}
}

func TestPacketBitLayout(t *testing.T) {
	p := Packet{
		SrcIP:   0x80000001,
		DstIP:   0x00000001,
		SrcPort: 0x8001,
		DstPort: 0x0001,
		Proto:   0x81,
	}
	checks := map[int]bool{
		0: true, 31: true, // src ip msb/lsb
		32: false, 63: true, // dst ip
		64: true, 79: true, // sport
		80: false, 95: true, // dport
		96: true, 103: true, // proto
	}
	for bit, want := range checks {
		if got := p.Bit(bit); got != want {
			t.Errorf("Bit(%d) = %v, want %v", bit, got, want)
		}
	}
}

// randomMatch builds a random but well-formed Match.
func randomMatch(r *rand.Rand) Match {
	m := MatchAll
	if r.Intn(2) == 0 {
		m.Src = Prefix{Addr: r.Uint32(), Len: r.Intn(33)}.Canonical()
	}
	if r.Intn(2) == 0 {
		m.Dst = Prefix{Addr: r.Uint32(), Len: r.Intn(33)}.Canonical()
	}
	if r.Intn(3) == 0 {
		lo := uint16(r.Intn(65536))
		hi := lo + uint16(r.Intn(int(65536-uint32(lo))))
		m.DstPort = PortRange{lo, hi}
	}
	if r.Intn(3) == 0 {
		m.Proto = Proto(uint8(1 + r.Intn(254)))
	}
	return m
}

func randomPacketIn(r *rand.Rand, m Match) Packet {
	p := m.SamplePacket()
	// Jitter host bits while staying inside the match.
	if m.Src.Len < 32 {
		p.SrcIP |= r.Uint32() & (1<<(32-m.Src.Len) - 1)
	}
	if m.Dst.Len < 32 {
		p.DstIP |= r.Uint32() & (1<<(32-m.Dst.Len) - 1)
	}
	if m.DstPort.Hi > m.DstPort.Lo {
		p.DstPort = m.DstPort.Lo + uint16(r.Intn(int(m.DstPort.Hi-m.DstPort.Lo)+1))
	}
	return p
}

func TestMatchIntersectProperty(t *testing.T) {
	// Property: for random matches a, b and random packets p inside a∩b,
	// p matches both a and b; and if the intersection is empty no sampled
	// packet of a matches b.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a, b := randomMatch(r), randomMatch(r)
		if inter, ok := a.Intersect(b); ok {
			p := randomPacketIn(r, inter)
			if !a.Matches(p) || !b.Matches(p) {
				t.Fatalf("packet %v in a∩b=%v does not match a=%v and b=%v", p, inter, a, b)
			}
			if !a.Overlaps(b) {
				t.Fatalf("Intersect ok but Overlaps false: %v, %v", a, b)
			}
		} else if a.Overlaps(b) {
			t.Fatalf("Intersect empty but Overlaps true: %v, %v", a, b)
		}
	}
}

func TestMatchContainsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a, b := randomMatch(r), randomMatch(r)
		if a.Contains(b) {
			p := randomPacketIn(r, b)
			if !a.Matches(p) {
				t.Fatalf("a=%v contains b=%v but packet %v in b not in a", a, b, p)
			}
		}
	}
}

func TestPrefixMatchesQuick(t *testing.T) {
	// Property: an address is in a prefix iff its top Len bits agree.
	f := func(addr uint32, raw uint8) bool {
		l := int(raw % 33)
		p := Prefix{Addr: addr, Len: l}.Canonical()
		return p.Matches(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketString(t *testing.T) {
	p := Packet{SrcIP: 0x0a000001, DstIP: 0x01020304, SrcPort: 1234, DstPort: 80, Proto: 6}
	want := "10.0.0.1:1234 -> 1.2.3.4:80 proto 6"
	if p.String() != want {
		t.Errorf("String = %q, want %q", p.String(), want)
	}
}
