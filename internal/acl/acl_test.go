package acl

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"jinjing/internal/header"
	"jinjing/internal/smt"
)

func pfx(s string) header.Prefix { return header.MustParsePrefix(s) }

func TestParseAndString(t *testing.T) {
	a := MustParse("deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, permit all")
	if len(a.Rules) != 2 || a.Default != Permit {
		t.Fatalf("parsed %d rules default %v", len(a.Rules), a.Default)
	}
	if a.Rules[0].Action != Deny || !a.Rules[0].Match.Equal(header.DstMatch(pfx("1.0.0.0/8"))) {
		t.Fatalf("rule 0 = %v", a.Rules[0])
	}
	want := "deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, permit all"
	if a.String() != want {
		t.Fatalf("String = %q, want %q", a.String(), want)
	}
	// Round trip.
	b, err := Parse(a.String())
	if err != nil || !a.Equal(b) {
		t.Fatalf("round trip failed: %v %v", b, err)
	}
}

func TestParseRichRule(t *testing.T) {
	a := MustParse("permit src 10.0.0.0/8 dst 1.2.0.0/16 sport 1024-65535 dport 443 proto tcp; deny all")
	if len(a.Rules) != 1 || a.Default != Deny {
		t.Fatalf("parse: %v", a)
	}
	r := a.Rules[0]
	if r.Match.Src != pfx("10.0.0.0/8") || r.Match.DstPort != (header.PortRange{Lo: 443, Hi: 443}) ||
		r.Match.Proto != header.Proto(header.ProtoTCP) {
		t.Fatalf("match = %+v", r.Match)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"allow dst 1.0.0.0/8",
		"permit dst",
		"permit color red",
		"deny dst 300.0.0.0/8",
		"deny", // bare action with no match
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
	// Empty and comment-only input is a permit-all ACL.
	a, err := Parse(" \n# comment\n")
	if err != nil || len(a.Rules) != 0 || a.Default != Permit {
		t.Errorf("empty parse: %v %v", a, err)
	}
	// A catch-all that is not last is an ordinary (shadowing) rule, not
	// the default — synthesis emits such rules mid-list.
	mid, err := Parse("permit all, deny dst 1.0.0.0/8")
	if err != nil || len(mid.Rules) != 2 || !mid.Rules[0].Match.IsAll() {
		t.Errorf("mid-list catch-all parse: %v %v", mid, err)
	}
	if mid.Decide(header.Packet{DstIP: 1 << 24}) != Permit {
		t.Error("first-match catch-all should shadow the deny")
	}
}

func TestDecideFirstMatch(t *testing.T) {
	a := MustParse("deny dst 1.0.0.0/8, permit dst 1.2.0.0/16, permit all")
	inFirst := header.Packet{DstIP: 0x01020304} // matches both rules; first wins
	if a.Decide(inFirst) != Deny {
		t.Error("first-match semantics violated")
	}
	other := header.Packet{DstIP: 0x02000001}
	if a.Decide(other) != Permit {
		t.Error("default should permit")
	}
	if !a.Permits(other) || a.Permits(inFirst) {
		t.Error("Permits wrapper wrong")
	}
}

func TestDecideMatch(t *testing.T) {
	a := MustParse("deny dst 1.0.0.0/8, permit all")
	if act, ok := a.DecideMatch(header.DstMatch(pfx("1.2.0.0/16"))); !ok || act != Deny {
		t.Error("contained class should decide deny")
	}
	if act, ok := a.DecideMatch(header.DstMatch(pfx("9.0.0.0/8"))); !ok || act != Permit {
		t.Error("disjoint class should fall to default")
	}
	if _, ok := a.DecideMatch(header.DstMatch(pfx("0.0.0.0/1"))); ok {
		t.Error("straddling class must report not-atomic")
	}
}

func TestEncodingsAgreeWithInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for iter := 0; iter < 60; iter++ {
		a := randomACL(r, 1+r.Intn(12))
		bld := smt.NewBuilder()
		pv := bld.NewPacketVars()
		seq := a.EncodeSeq(bld, pv)
		tour := a.EncodeTournament(bld, pv)
		for j := 0; j < 40; j++ {
			p := randomPacket(r)
			assign := smt.AssignmentFor(pv, p)
			want := bool(a.Decide(p))
			if got := bld.Eval(seq, assign); got != want {
				t.Fatalf("seq encoding wrong: acl=%v p=%v got=%v", a, p, got)
			}
			if got := bld.Eval(tour, assign); got != want {
				t.Fatalf("tournament encoding wrong: acl=%v p=%v got=%v", a, p, got)
			}
		}
	}
}

func TestEncodingsEquivalentBySMT(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for iter := 0; iter < 20; iter++ {
		a := randomACL(r, 1+r.Intn(10))
		bld := smt.NewBuilder()
		pv := bld.NewPacketVars()
		seq := a.EncodeSeq(bld, pv)
		tour := a.EncodeTournament(bld, pv)
		if !bld.Valid(bld.Iff(seq, tour)) {
			t.Fatalf("encodings differ for %v", a)
		}
	}
}

func TestDifferentialRules(t *testing.T) {
	// §3.2 running example: A1 gains two deny rules at the top.
	a1 := MustParse("deny dst 6.0.0.0/8, permit all")
	a1p := MustParse("deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, deny dst 6.0.0.0/8, permit all")
	diff := Differential(a1, a1p)
	if len(diff) != 2 {
		t.Fatalf("diff = %v, want the two added deny rules", diff)
	}
	for _, d := range diff {
		if d.Action != Deny {
			t.Errorf("unexpected diff rule %v", d)
		}
	}
	// Identical ACLs have empty differential.
	if d := Differential(a1, a1.Clone()); len(d) != 0 {
		t.Errorf("self diff = %v", d)
	}
	// Removal shows up too.
	d2 := MustParse("deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, permit all")
	d2p := PermitAll()
	diff2 := Differential(d2, d2p)
	if len(diff2) != 2 {
		t.Fatalf("removal diff = %v", diff2)
	}
}

func TestDifferentialDefaultChange(t *testing.T) {
	a := MustParse("permit all")
	b := MustParse("deny all")
	d := Differential(a, b)
	if len(d) != 1 || !d[0].Match.IsAll() {
		t.Fatalf("default-change diff = %v", d)
	}
}

func TestTheorem41PacketLevelProperty(t *testing.T) {
	// For packets not matched by any differential rule, L and L' decide
	// identically (the h ∉ H case of the proof).
	r := rand.New(rand.NewSource(88))
	for iter := 0; iter < 40; iter++ {
		l := randomACL(r, 2+r.Intn(8))
		lp := perturb(r, l)
		diff := Differential(l, lp)
		for j := 0; j < 50; j++ {
			p := randomPacket(r)
			if slices.ContainsFunc(diff, func(r Rule) bool { return r.Match.Matches(p) }) {
				continue // p ∈ H, the packets some differential rule matches
			}
			if l.Decide(p) != lp.Decide(p) {
				t.Fatalf("packet %v outside diff decided differently\nL=%v\nL'=%v\ndiff=%v",
					p, l, lp, diff)
			}
		}
	}
}

func TestEquivalent(t *testing.T) {
	a := MustParse("deny dst 1.0.0.0/8, permit all")
	b := MustParse("deny dst 1.0.0.0/9, deny dst 1.128.0.0/9, permit all")
	if !Equivalent(a, b) {
		t.Error("split halves should be equivalent to the parent prefix")
	}
	c := MustParse("deny dst 1.0.0.0/9, permit all")
	if Equivalent(a, c) {
		t.Error("half deny is not equivalent")
	}
	if !Equivalent(PermitAll(), MustParse("permit dst 1.0.0.0/8, permit all")) {
		t.Error("redundant permit should not break equivalence")
	}
}

func TestSimplifyRunningExample(t *testing.T) {
	// §4.2: after fixing, A1 is "permit dst 1.0.0.0/8, permit dst
	// 2.0.0.0/8, deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, deny dst
	// 6.0.0.0/8, permit all" and simplification removes the first four.
	a := MustParse(`permit dst 1.0.0.0/8, permit dst 2.0.0.0/8,
		deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, deny dst 6.0.0.0/8, permit all`)
	s := Simplify(a)
	if !Equivalent(a, s) {
		t.Fatal("simplify changed the decision model")
	}
	if len(s.Rules) != 1 {
		t.Fatalf("simplified to %v, want just the 6/8 deny", s)
	}
	if s.Rules[0].Match.Dst != pfx("6.0.0.0/8") || s.Rules[0].Action != Deny {
		t.Fatalf("wrong surviving rule %v", s.Rules[0])
	}
}

func TestSimplifyPreservesModelProperty(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for iter := 0; iter < 25; iter++ {
		a := randomACL(r, 1+r.Intn(10))
		s := Simplify(a)
		if !Equivalent(a, s) {
			t.Fatalf("Simplify broke equivalence for %v -> %v", a, s)
		}
		if len(s.Rules) > len(a.Rules) {
			t.Fatalf("Simplify grew the ACL")
		}
		// Maximality: removing any remaining rule changes the model.
		for i := range s.Rules {
			trial := &ACL{Default: s.Default}
			trial.Rules = append(trial.Rules, s.Rules[:i]...)
			trial.Rules = append(trial.Rules, s.Rules[i+1:]...)
			if Equivalent(s, trial) {
				t.Fatalf("Simplify result not maximal: rule %d of %v is redundant", i, s)
			}
		}
	}
}

func TestSimplifyFastPreservesModel(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	for iter := 0; iter < 50; iter++ {
		a := randomACL(r, 1+r.Intn(12))
		s := SimplifyFast(a)
		for j := 0; j < 60; j++ {
			p := randomPacket(r)
			if a.Decide(p) != s.Decide(p) {
				t.Fatalf("SimplifyFast changed decision on %v\nbefore=%v\nafter=%v", p, a, s)
			}
		}
	}
}

func TestIsPermitAllAndClone(t *testing.T) {
	if !PermitAll().IsPermitAll() {
		t.Error("PermitAll should report true")
	}
	if MustParse("deny dst 1.0.0.0/8, permit all").IsPermitAll() {
		t.Error("deny rule should report false")
	}
	a := MustParse("deny dst 1.0.0.0/8, permit all")
	c := a.Clone()
	c.Rules[0].Action = Permit
	if a.Rules[0].Action != Deny {
		t.Error("Clone must deep-copy rules")
	}
}

// randomACL builds a random ACL of n rules over a small prefix universe so
// rules overlap frequently.
func randomACL(r *rand.Rand, n int) *ACL {
	a := &ACL{Default: Action(r.Intn(2) == 0)}
	for i := 0; i < n; i++ {
		m := header.MatchAll
		// Draw prefixes from a small pool for interesting overlaps.
		base := uint32(1+r.Intn(6)) << 24
		ln := []int{6, 8, 9, 16}[r.Intn(4)]
		m.Dst = header.Prefix{Addr: base, Len: ln}.Canonical()
		if r.Intn(4) == 0 {
			m.Src = header.Prefix{Addr: uint32(10+r.Intn(2)) << 24, Len: 8}.Canonical()
		}
		if r.Intn(5) == 0 {
			m.DstPort = header.PortRange{Lo: 80, Hi: uint16(80 + r.Intn(1000))}
		}
		a.Rules = append(a.Rules, Rule{Action: Action(r.Intn(2) == 0), Match: m})
	}
	return a
}

// perturb applies a small random edit script to a copy of the ACL.
func perturb(r *rand.Rand, a *ACL) *ACL {
	out := a.Clone()
	for edits := 1 + r.Intn(3); edits > 0; edits-- {
		switch r.Intn(3) {
		case 0: // insert
			pos := r.Intn(len(out.Rules) + 1)
			nr := randomACL(r, 1).Rules[0]
			out.Rules = append(out.Rules[:pos], append([]Rule{nr}, out.Rules[pos:]...)...)
		case 1: // delete
			if len(out.Rules) > 0 {
				pos := r.Intn(len(out.Rules))
				out.Rules = append(out.Rules[:pos], out.Rules[pos+1:]...)
			}
		case 2: // flip action
			if len(out.Rules) > 0 {
				pos := r.Intn(len(out.Rules))
				out.Rules[pos].Action = !out.Rules[pos].Action
			}
		}
	}
	return out
}

func randomPacket(r *rand.Rand) header.Packet {
	// Bias destinations into the small pool used by randomACL.
	dst := uint32(1+r.Intn(8))<<24 | r.Uint32()&0x00ffffff
	return header.Packet{
		SrcIP:   uint32(10+r.Intn(2))<<24 | r.Uint32()&0x00ffffff,
		DstIP:   dst,
		SrcPort: uint16(r.Intn(65536)),
		DstPort: uint16(r.Intn(2000)),
		Proto:   uint8([]int{1, 6, 17}[r.Intn(3)]),
	}
}

func TestActionString(t *testing.T) {
	if Permit.String() != "permit" || Deny.String() != "deny" {
		t.Error("Action.String wrong")
	}
	if !strings.Contains(Rule{Action: Deny, Match: header.DstMatch(pfx("1.0.0.0/8"))}.String(), "deny dst 1.0.0.0/8") {
		t.Error("Rule.String wrong")
	}
}

func BenchmarkEncodeSequential(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomACL(r, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld := smt.NewBuilder()
		pv := bld.NewPacketVars()
		a.EncodeSeq(bld, pv)
	}
}

func BenchmarkEncodeTournament(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := randomACL(r, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld := smt.NewBuilder()
		pv := bld.NewPacketVars()
		a.EncodeTournament(bld, pv)
	}
}

// BenchmarkTournamentVsSequential is the §9 ablation: equivalence queries
// on a large ACL under both encodings, reporting SAT conflicts (the
// stand-in for DPLL recursive calls).
func BenchmarkTournamentVsSequential(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	a := randomACL(r, 200)
	ap := perturb(r, a)
	run := func(b *testing.B, enc func(x *ACL, bld *smt.Builder, pv *smt.PacketVars) smt.F) {
		var conflicts int64
		for i := 0; i < b.N; i++ {
			bld := smt.NewBuilder()
			pv := bld.NewPacketVars()
			fa := enc(a, bld, pv)
			fb := enc(ap, bld, pv)
			s := smt.SolverOn(bld)
			s.Solve(bld.Xor(fa, fb))
			conflicts += s.Stats().Conflicts
		}
		b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
	}
	b.Run("sequential", func(b *testing.B) {
		run(b, func(x *ACL, bld *smt.Builder, pv *smt.PacketVars) smt.F { return x.EncodeSeq(bld, pv) })
	})
	b.Run("tournament", func(b *testing.B) {
		run(b, func(x *ACL, bld *smt.Builder, pv *smt.PacketVars) smt.F { return x.EncodeTournament(bld, pv) })
	})
}
