package pset

import (
	"math/rand"
	"slices"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/header"
)

// indexRule draws a rule whose destination comes from a small nested
// pool (/0, /6, /8, /12, /16 and /24 under a few first octets), so rule
// destinations contain, equal and sit inside one another and inside the
// region cubes below.
func indexRule(r *rand.Rand) acl.Rule {
	m := header.MatchAll
	ln := []int{0, 6, 8, 8, 12, 16, 16, 24}[r.Intn(8)]
	m.Dst = header.Prefix{Addr: uint32(1+r.Intn(4))<<24 | uint32(r.Intn(4))<<20 | uint32(r.Intn(2))<<8, Len: ln}.Canonical()
	if r.Intn(3) == 0 {
		m.Src = header.Prefix{Addr: uint32(10+r.Intn(2)) << 24, Len: 8 + r.Intn(2)}.Canonical()
	}
	if r.Intn(4) == 0 {
		m.DstPort = header.PortRange{Lo: uint16(r.Intn(100)), Hi: uint16(100 + r.Intn(1000))}
	}
	if r.Intn(6) == 0 {
		m.Proto = header.Proto(uint8([]int{1, 6, 17}[r.Intn(3)]))
	}
	return acl.Rule{Action: acl.Action(r.Intn(2) == 0), Match: m}
}

// indexRegion draws a region of one to six cubes. A cube's destination
// is a rule's destination shortened (it crosses several rule
// destinations), lengthened (it lies inside one), or unrelated, and its
// other fields are cut so that cubes straddle rule matches there too.
func indexRegion(r *rand.Rand, a *acl.ACL) Set {
	var cubes []header.Match
	for n := 1 + r.Intn(6); n > 0; n-- {
		m := header.MatchAll
		p := a.Rules[r.Intn(len(a.Rules))].Match.Dst
		switch r.Intn(3) {
		case 0:
			m.Dst = header.Prefix{Addr: p.Addr, Len: r.Intn(p.Len + 1)}.Canonical()
		case 1:
			m.Dst = header.Prefix{Addr: p.Addr | r.Uint32()>>uint(p.Len+1), Len: p.Len + r.Intn(33-p.Len)}.Canonical()
		default:
			m.Dst = header.Prefix{Addr: uint32(1+r.Intn(6))<<24 | r.Uint32()&0xffffff, Len: 4 + r.Intn(29)}.Canonical()
		}
		if r.Intn(3) == 0 {
			m.Src = header.Prefix{Addr: uint32(10+r.Intn(2)) << 24, Len: 7 + r.Intn(3)}.Canonical()
		}
		if r.Intn(3) == 0 {
			m.DstPort = header.PortRange{Lo: uint16(r.Intn(500)), Hi: uint16(500 + r.Intn(2000))}
		}
		cubes = append(cubes, m)
	}
	return FromMatches(cubes)
}

// TestIndexMatchesLinearFold pins the destination-indexed region folds
// against the linear scans they replaced, kept here as the reference:
// the first-match fold over every rule from the region's disjoint cubes,
// and every rule's match intersected with every cube, canonicalized with
// its duplicates. The indexed fold skips only rules that cannot overlap
// the remainder, so both must agree cube for cube — the same set, and
// under a tight budget the same overflow.
func TestIndexMatchesLinearFold(t *testing.T) {
	r := rand.New(rand.NewSource(3602))
	var skipped, overflowed, decided, nonEmpty int
	for iter := 0; iter < 600; iter++ {
		a := &acl.ACL{Default: acl.Action(r.Intn(2) == 0)}
		for n := 1 + r.Intn(60); n > 0; n-- {
			a.Rules = append(a.Rules, indexRule(r))
		}
		x := NewIndex(a, acl.NewDstIndex(a.Rules))
		ms := make([]header.Match, len(a.Rules))
		for i, rule := range a.Rules {
			ms[i] = rule.Match
		}
		for q := 0; q < 8; q++ {
			region := indexRegion(r, a)
			maxCubes := []int{0, 2, 4, 16, 512}[r.Intn(5)]

			want, wantOK := permittedSetFrom(a.Rules, a.Default, disjointCubes(region.cubes), maxCubes)
			got, folded, ok := x.PermittedSetWithin(region, maxCubes)
			if ok != wantOK {
				t.Fatalf("iter %d: indexed fold ok=%v, linear ok=%v (maxCubes %d)\nregion=%v\na=%v", iter, ok, wantOK, maxCubes, region, a)
			}
			if ok && !slices.Equal(got.cubes, want.cubes) {
				t.Fatalf("iter %d: indexed fold %v, linear %v\nregion=%v\na=%v", iter, got, want, region, a)
			}
			if ok {
				decided++
			} else {
				overflowed++
			}

			var raw []header.Match // every rule against every cube, duplicates kept
			for _, m := range ms {
				for _, c := range region.cubes {
					if in, ok := c.Intersect(m); ok {
						raw = append(raw, in)
					}
				}
			}
			wantIn := Set{cubes: canonicalize(raw)}
			gotIn, n := x.MatchesWithin(region)
			if !slices.Equal(gotIn.cubes, wantIn.cubes) {
				t.Fatalf("iter %d: indexed intersection %v, linear %v\nregion=%v\na=%v", iter, gotIn, wantIn, region, a)
			}
			if n != folded {
				t.Fatalf("iter %d: the fold visited %d rules, the intersection %d", iter, folded, n)
			}
			if n < len(a.Rules) {
				skipped++
			}
			if !gotIn.IsEmpty() {
				nonEmpty++
			}
		}
	}
	if skipped < 1000 || overflowed < 300 || decided < 1000 || nonEmpty < 1000 {
		t.Fatalf("population too weak: %d queries skipped rules, %d overflowed, %d decided, %d met a rule",
			skipped, overflowed, decided, nonEmpty)
	}
}

// BenchmarkPermittedSetWithin folds a synthesized-size ACL — 12,800
// rules over 256 /24 destinations under 16 /16s, each destination
// carrying source-, port- and protocol-cut rules — from a FEC-sized
// region: one /24 class, and a /16 holding sixteen of them.
func BenchmarkPermittedSetWithin(b *testing.B) {
	r := rand.New(rand.NewSource(3603))
	a := &acl.ACL{Default: acl.Permit}
	for len(a.Rules) < 12800 {
		m := header.MatchAll
		m.Dst = header.Prefix{Addr: 10<<24 | uint32(r.Intn(16))<<16 | uint32(r.Intn(16))<<8, Len: 24}
		m.Src = header.Prefix{Addr: 172<<24 | uint32(r.Intn(256))<<16, Len: 16}
		if r.Intn(2) == 0 {
			m.DstPort = header.PortRange{Lo: uint16(r.Intn(1024)), Hi: uint16(1024 + r.Intn(1024))}
		}
		if r.Intn(4) == 0 {
			m.Proto = header.Proto(header.ProtoTCP)
		}
		a.Rules = append(a.Rules, acl.Rule{Action: acl.Action(r.Intn(2) == 0), Match: m})
	}
	x := NewIndex(a, acl.NewDstIndex(a.Rules))
	for _, bc := range []struct {
		name string
		dst  string
	}{
		{"class-24", "10.3.7.0/24"},
		{"block-16", "10.3.0.0/16"},
	} {
		region := FromMatch(header.DstMatch(header.MustParsePrefix(bc.dst)))
		b.Run(bc.name, func(b *testing.B) {
			var folded int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ok bool
				if _, folded, ok = x.PermittedSetWithin(region, 0); !ok {
					b.Fatal("an unbudgeted fold cannot overflow")
				}
			}
			b.ReportMetric(float64(folded), "rules_folded")
		})
	}
}
