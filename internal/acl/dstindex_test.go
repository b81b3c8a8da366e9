package acl

import (
	"math/rand"
	"slices"
	"testing"

	"jinjing/internal/header"
)

// TestDstIndexMatchesLinearScan pins the trie's three queries against
// their definitions over the indexed rule set, before and after
// out-of-order removals (SimplifyFastPass itself only ever removes a
// node's oldest rule).
func TestDstIndexMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for iter := 0; iter < 200; iter++ {
		a := randomACL(r, 1+r.Intn(30))
		ix := NewDstIndex(a.Rules)
		live := make([]bool, len(a.Rules))
		for i := range live {
			live[i] = true
		}
		check := func() {
			t.Helper()
			for q := 0; q < 40; q++ {
				m := randomACL(r, 1).Rules[0].Match
				if r.Intn(2) == 0 {
					m.Dst = header.Prefix{Addr: r.Uint32(), Len: 8 + r.Intn(25)}.Canonical()
				}
				first, overlap := len(a.Rules), false
				for i, rule := range a.Rules {
					if !live[i] {
						continue
					}
					if first == len(a.Rules) && rule.Match.Contains(m) {
						first = i
					}
					overlap = overlap || rule.Match.Overlaps(m)
				}
				if got := ix.FirstContaining(m); got != first {
					t.Fatalf("FirstContaining(%v) = %d, want %d\nrules=%v live=%v", m, got, first, a, live)
				}
				if got := ix.anyContaining(m); got != (first < len(a.Rules)) {
					t.Fatalf("anyContaining(%v) = %v\nrules=%v live=%v", m, got, a, live)
				}
				if got := ix.AnyOverlapping(m); got != overlap {
					t.Fatalf("AnyOverlapping(%v) = %v, want %v\nrules=%v live=%v", m, got, overlap, a, live)
				}
			}
		}
		check()
		for _, i := range r.Perm(len(a.Rules))[:r.Intn(len(a.Rules)+1)] {
			ix.remove(i)
			ix.remove(i) // a second removal is a no-op
			live[i] = false
		}
		check()
	}
}

// TestDstContainingMatchesLinearScan pins the per-atom walk against its
// definition: the ascending positions of the indexed rules whose
// destination contains the query prefix. Rule lists put rules at /0 (the
// root) and /32 (the leaves) beside nested prefixes, queries include /0
// and /32, and the index is queried again after removals in any order
// and in SimplifyFastPass' oldest-first order. The walk appends to the
// buffer it is given and leaves its prefix alone.
func TestDstContainingMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(3401))
	var roots, leaves, empties int
	for iter := 0; iter < 300; iter++ {
		a := randomACL(r, 1+r.Intn(40))
		for i := range a.Rules {
			switch r.Intn(8) {
			case 0:
				a.Rules[i].Match.Dst = header.AnyPrefix
			case 1:
				a.Rules[i].Match.Dst = header.Prefix{Addr: a.Rules[i].Match.Dst.Addr | r.Uint32()&0xffff, Len: 32}
			case 2:
				if i > 0 {
					a.Rules[i].Match.Dst = a.Rules[r.Intn(i)].Match.Dst // a shared node
				}
			}
		}
		ix := NewDstIndex(a.Rules)
		live := make([]bool, len(a.Rules))
		for i := range live {
			live[i] = true
		}
		check := func() {
			t.Helper()
			for q := 0; q < 40; q++ {
				var p header.Prefix
				switch r.Intn(4) {
				case 0:
					p = header.AnyPrefix
					roots++
				case 1: // a leaf under a rule's destination
					p = header.Prefix{Addr: a.Rules[r.Intn(len(a.Rules))].Match.Dst.Addr | r.Uint32()&0xffff, Len: 32}
					leaves++
				case 2: // a rule's own destination
					p = a.Rules[r.Intn(len(a.Rules))].Match.Dst
				default:
					p = header.Prefix{Addr: uint32(1+r.Intn(6))<<24 | r.Uint32()&0xffffff, Len: r.Intn(33)}.Canonical()
				}
				var want []int32
				for i, rule := range a.Rules {
					if live[i] && rule.Match.Dst.Contains(p) {
						want = append(want, int32(i))
					}
				}
				if len(want) == 0 {
					empties++
				}
				buf := []int32{-1}
				got := ix.DstContaining(p, buf)
				if got[0] != -1 || !slices.Equal(got[1:], want) {
					t.Fatalf("DstContaining(%v) = %v, want [-1] + %v\nrules=%v live=%v", p, got, want, a, live)
				}
			}
		}
		check()
		if r.Intn(2) == 0 {
			for _, i := range r.Perm(len(a.Rules))[:r.Intn(len(a.Rules)+1)] {
				ix.remove(i)
				live[i] = false
			}
		} else {
			for i, n := 0, r.Intn(len(a.Rules)+1); i < n; i++ {
				ix.remove(i)
				live[i] = false
			}
		}
		check()
	}
	if roots < 1000 || leaves < 1000 || empties < 500 {
		t.Fatalf("queries are lopsided: %d at /0, %d at /32, %d with no containing rule", roots, leaves, empties)
	}
}

// TestDstOverlappingMatchesLinearScan pins the overlap query the
// region-restricted folds gather their rules with against a linear
// Prefix.Overlaps scan: the ascending positions of the indexed rules whose
// destination overlaps the query prefix — ancestors, the prefix's own
// node and the whole subtree below it — before and after removals. The
// walk appends to the buffer it is given and leaves its prefix alone.
func TestDstOverlappingMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(3601))
	var above, below, empties int
	for iter := 0; iter < 300; iter++ {
		a := randomACL(r, 1+r.Intn(40))
		for i := range a.Rules {
			switch r.Intn(6) {
			case 0:
				a.Rules[i].Match.Dst = header.AnyPrefix
			case 1: // nested under an earlier rule's destination
				if i > 0 {
					p := a.Rules[r.Intn(i)].Match.Dst
					a.Rules[i].Match.Dst = header.Prefix{Addr: p.Addr | r.Uint32()>>uint(p.Len+1), Len: p.Len + r.Intn(33-p.Len)}.Canonical()
				}
			}
		}
		ix := NewDstIndex(a.Rules)
		live := make([]bool, len(a.Rules))
		for i := range live {
			live[i] = true
		}
		check := func() {
			t.Helper()
			for q := 0; q < 40; q++ {
				var p header.Prefix
				switch r.Intn(4) {
				case 0: // a rule's destination, shortened: rules lie below it
					p = a.Rules[r.Intn(len(a.Rules))].Match.Dst
					p = header.Prefix{Addr: p.Addr, Len: r.Intn(p.Len + 1)}.Canonical()
				case 1: // a rule's destination, lengthened: rules lie above it
					p = a.Rules[r.Intn(len(a.Rules))].Match.Dst
					p = header.Prefix{Addr: p.Addr | r.Uint32()>>uint(p.Len+1), Len: p.Len + r.Intn(33-p.Len)}.Canonical()
				default:
					p = header.Prefix{Addr: r.Uint32(), Len: r.Intn(33)}.Canonical()
				}
				var want []int32
				for i, rule := range a.Rules {
					if !live[i] || !rule.Match.Dst.Overlaps(p) {
						continue
					}
					want = append(want, int32(i))
					if rule.Match.Dst.Len > p.Len {
						below++
					} else if rule.Match.Dst.Len > 0 {
						above++
					}
				}
				if len(want) == 0 {
					empties++
				}
				got := ix.DstOverlapping(p, []int32{-1})
				if got[0] != -1 || !slices.Equal(got[1:], want) {
					t.Fatalf("DstOverlapping(%v) = %v, want [-1] + %v\nrules=%v live=%v", p, got, want, a, live)
				}
			}
		}
		check()
		for _, i := range r.Perm(len(a.Rules))[:r.Intn(len(a.Rules)+1)] {
			ix.remove(i)
			live[i] = false
		}
		check()
	}
	if above < 1000 || below < 1000 || empties < 500 {
		t.Fatalf("queries are lopsided: %d rules above the query, %d below, %d queries with none", above, below, empties)
	}
}

// TestDstIndexDecideMatchMatchesLinearScan pins FirstMatch against
// ACL.DecideMatch, the linear scan whose contract it carries: the same
// decision and the same atomicity verdict on every query. The rule lists
// mix nested destinations with same-destination buckets whose members
// differ only in source, port or protocol, and the queries are drawn to
// land above, on and below rule destinations and to straddle port and
// protocol boundaries — a straddler can sit on an ancestor of the
// query's destination, on its node, or in the subtree below it.
func TestDstIndexDecideMatchMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(1606))
	randRule := func() Rule {
		m := header.MatchAll
		m.Dst = header.Prefix{Addr: uint32(10+r.Intn(3))<<24 | uint32(r.Intn(4))<<22, Len: []int{0, 7, 8, 8, 10, 12}[r.Intn(6)]}.Canonical()
		if r.Intn(3) == 0 {
			m.Src = header.Prefix{Addr: uint32(172+r.Intn(2)) << 24, Len: 7 + r.Intn(3)}.Canonical()
		}
		switch r.Intn(5) {
		case 0:
			m.DstPort = header.PortRange{Lo: 80, Hi: 80}
		case 1:
			m.DstPort = header.PortRange{Lo: uint16(r.Intn(2000)), Hi: uint16(2000 + r.Intn(2000))}
		}
		if r.Intn(5) == 0 {
			m.SrcPort = header.PortRange{Lo: 1024, Hi: 65535}
		}
		if r.Intn(4) == 0 {
			m.Proto = header.Proto([]uint8{header.ProtoTCP, header.ProtoUDP}[r.Intn(2)])
		}
		return Rule{Action: Action(r.Intn(2) == 0), Match: m}
	}
	var atomics, straddles int
	for iter := 0; iter < 400; iter++ {
		a := &ACL{Default: Action(r.Intn(2) == 0)}
		for n := 1 + r.Intn(40); n > 0; n-- {
			rule := randRule()
			if len(a.Rules) > 0 && r.Intn(3) == 0 {
				rule.Match.Dst = a.Rules[r.Intn(len(a.Rules))].Match.Dst // same-destination bucket
			}
			a.Rules = append(a.Rules, rule)
		}
		ix := NewDstIndex(a.Rules)
		for q := 0; q < 60; q++ {
			m := randRule().Match
			switch r.Intn(4) {
			case 0: // a neighborhood: narrow in every field
				m = a.Rules[r.Intn(len(a.Rules))].Match
				m.Dst = header.Prefix{Addr: m.Dst.Addr | r.Uint32()>>uint(m.Dst.Len+1), Len: m.Dst.Len + r.Intn(33-m.Dst.Len)}.Canonical()
				m.DstPort = header.PortRange{Lo: m.DstPort.Lo, Hi: m.DstPort.Lo}
				m.Proto = header.Proto(m.Proto.Lo)
			case 1: // a rule's own match, widened one step in the destination
				m = a.Rules[r.Intn(len(a.Rules))].Match
				if m.Dst.Len > 0 {
					m.Dst = m.Dst.Parent()
				}
			}
			wantAct, wantOK := a.DecideMatch(m)
			pos, ok := ix.FirstMatch(m)
			if ok != wantOK {
				t.Fatalf("FirstMatch(%v) atomic = %v, DecideMatch says %v\nrules=%v", m, ok, wantOK, a)
			}
			if pos != ix.FirstContaining(m) {
				t.Fatalf("FirstMatch(%v) pos = %d, FirstContaining %d\nrules=%v", m, pos, ix.FirstContaining(m), a)
			}
			if !ok {
				straddles++
				continue
			}
			atomics++
			act := a.Default
			if pos < len(a.Rules) {
				act = a.Rules[pos].Action
			}
			if act != wantAct {
				t.Fatalf("FirstMatch(%v) = rule %d (%v), DecideMatch says %v\nrules=%v", m, pos, act, wantAct, a)
			}
		}
	}
	if atomics < 2000 || straddles < 2000 {
		t.Fatalf("queries are lopsided: %d atomic, %d straddling", atomics, straddles)
	}
}

// BenchmarkSimplifyFastSameDst is the generate-migration shape: tens of
// thousands of synthesized rules sharing one destination, none shadowing
// another. Every rule opposes the default, so each is removed from the
// later-rules index as it is visited — oldest first.
func BenchmarkSimplifyFastSameDst(b *testing.B) {
	const n = 20000
	a := &ACL{Default: Permit}
	for i := 0; i < n; i++ {
		m := header.DstMatch(header.MustParsePrefix("10.1.0.0/16"))
		m.Src = header.Prefix{Addr: 0xAC100000 | uint32(i), Len: 32}
		a.Rules = append(a.Rules, Rule{Action: Deny, Match: m})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(SimplifyFast(a).Rules); got != n {
			b.Fatalf("kept %d of %d rules", got, n)
		}
	}
}
