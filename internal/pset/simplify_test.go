package pset_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/pset"
)

// TestSimplifyGuardUnlocksEarlierRule is the case acl.Simplify iterates to
// a fixpoint for: the shadowed deny guards the permit above it (dropping
// the permit first would expose it), so the permit only becomes removable
// on the pass after the deny went.
func TestSimplifyGuardUnlocksEarlierRule(t *testing.T) {
	a := acl.MustParse("permit dst 1.0.0.0/8, deny dst 1.0.0.0/8, deny dst 6.0.0.0/8, permit all")
	got, st := pset.Simplify(a)
	if want := acl.Simplify(a); !got.Equal(want) {
		t.Fatalf("cube-decided %v, SAT-decided %v", got, want)
	}
	if len(got.Rules) != 1 || got.Rules[0].Match.Dst != pfx("6.0.0.0/8") {
		t.Fatalf("simplified to %v, want just the 6/8 deny", got)
	}
	if st.OverBudget != 0 || st.Cube < 5 {
		t.Fatalf("decisions %+v: want two passes, all on cubes", st)
	}
}

// withGuards splices "permit M, deny M" pairs (in either polarity, not
// necessarily adjacent) into a random ACL, so that most draws need the
// second pass.
func withGuards(r *rand.Rand, a *acl.ACL) *acl.ACL {
	for k := r.Intn(4); k > 0 && len(a.Rules) < 63; k-- {
		m := randomACL(r, 1).Rules[0].Match
		act := acl.Action(r.Intn(2) == 0)
		i := r.Intn(len(a.Rules) + 1)
		a.Rules = append(a.Rules[:i], append([]acl.Rule{{Action: act, Match: m}}, a.Rules[i:]...)...)
		j := i + 1 + r.Intn(len(a.Rules)-i)
		a.Rules = append(a.Rules[:j], append([]acl.Rule{{Action: !act, Match: m}}, a.Rules[j:]...)...)
	}
	return a
}

// TestQuickSimplifyMatchesSAT: the cube-decided exact simplify returns
// acl.Simplify's ACL, rule for rule, on random lists up to the size fix
// and generate hand it (64 rules).
func TestQuickSimplifyMatchesSAT(t *testing.T) {
	count := 60
	if testing.Short() {
		count = 15
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(16)
		if r.Intn(4) == 0 {
			n = 17 + r.Intn(40)
		}
		a := withGuards(r, randomACL(r, n))
		got, _ := pset.Simplify(a)
		want := acl.Simplify(a)
		if !got.Equal(want) {
			t.Logf("ACL %v\ncube-decided %v\nSAT-decided  %v", a, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Error(err)
	}
}

// TestSimplifyKeepsRuleOnCubeOverflow: a catch-all under 63 pairwise
// disjoint point rules claims the header space minus 63 points — some
// 4,400 fragments, past the cube budget — so that one decision is not
// made, and its rule is kept. The catch-all is needed anyway: all 64
// rules stay and the decision model is unchanged.
func TestSimplifyKeepsRuleOnCubeOverflow(t *testing.T) {
	a := &acl.ACL{Default: acl.Permit}
	for i := 0; i < 63; i++ {
		a.Rules = append(a.Rules, acl.Rule{Action: acl.Permit, Match: header.Match{
			Src:     header.Prefix{Addr: 0x0a000000 | uint32(i)*0x01010101, Len: 32},
			Dst:     header.Prefix{Addr: 0xc0000000 | uint32(i)*0x00010203, Len: 32},
			SrcPort: header.PortRange{Lo: uint16(1000 + i), Hi: uint16(1000 + i)},
			DstPort: header.PortRange{Lo: 443, Hi: 443},
			Proto:   header.Proto(header.ProtoTCP),
		}})
	}
	a.Rules = append(a.Rules, acl.Rule{Action: acl.Deny, Match: header.MatchAll})
	got, st := pset.Simplify(a)
	if st.OverBudget == 0 {
		t.Fatalf("decisions %+v: the catch-all was meant to overflow the cube budget", st)
	}
	if len(got.Rules) != 64 {
		t.Fatalf("kept %d of 64 rules; every one is needed", len(got.Rules))
	}
	if !pset.EquivalentACLs(a, got) {
		t.Fatalf("simplify changed the decision model: %v", got)
	}
}

// redundantThird is a 64-rule ACL a third of whose rules are redundant,
// each by agreeing with a wider rule below it.
func redundantThird() *acl.ACL {
	a := &acl.ACL{Default: acl.Permit}
	for i := 0; len(a.Rules) < 64; i++ {
		p := header.Prefix{Addr: uint32(10+i) << 24, Len: 8}
		lo, _ := p.Halves()
		switch i % 3 {
		case 0: // a half repeats what the whole says below it
			a.Rules = append(a.Rules,
				acl.Rule{Action: acl.Deny, Match: header.DstMatch(lo)},
				acl.Rule{Action: acl.Deny, Match: header.DstMatch(p)})
		case 1: // so does a port slice
			web := header.DstMatch(p)
			web.DstPort = header.PortRange{Lo: 80, Hi: 80}
			a.Rules = append(a.Rules,
				acl.Rule{Action: acl.Deny, Match: web},
				acl.Rule{Action: acl.Deny, Match: header.DstMatch(p)})
		default: // needed rules
			src := header.DstMatch(lo)
			src.Src = header.Prefix{Addr: 172 << 24, Len: 8}
			a.Rules = append(a.Rules,
				acl.Rule{Action: acl.Permit, Match: src},
				acl.Rule{Action: acl.Deny, Match: header.DstMatch(lo)})
		}
	}
	return a
}

// BenchmarkSimplifyExact is the two exact deciders on one ACL of the
// size simplifyBounded's limit admits.
func BenchmarkSimplifyExact(b *testing.B) {
	a := redundantThird()
	want := acl.Simplify(a)
	if removed := len(a.Rules) - len(want.Rules); removed < 19 || removed > 23 {
		b.Fatalf("%d of 64 rules are redundant; want about a third", removed)
	}
	b.Run("cube", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got, _ := pset.Simplify(a); !got.Equal(want) {
				b.Fatal("cube-decided simplify disagrees with acl.Simplify")
			}
		}
	})
	b.Run("sat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := acl.Simplify(a); !got.Equal(want) {
				b.Fatal("acl.Simplify is not deterministic")
			}
		}
	})
}
