package acl

import (
	"math/rand"
	"testing"

	"jinjing/internal/header"
)

// TestDstIndexMatchesLinearScan pins the trie's three queries against
// their definitions over the indexed rule set, before and after
// out-of-order removals (simplifyFastPass itself only ever removes a
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
				if got := ix.anyOverlapping(m); got != overlap {
					t.Fatalf("anyOverlapping(%v) = %v, want %v\nrules=%v live=%v", m, got, overlap, a, live)
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
