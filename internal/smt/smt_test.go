package smt

import (
	"math/rand"
	"testing"

	"jinjing/internal/header"
)

func TestConstants(t *testing.T) {
	if True.Not() != False || False.Not() != True {
		t.Fatal("constant negation broken")
	}
	b := NewBuilder()
	if b.Const(true) != True || b.Const(false) != False {
		t.Fatal("Const broken")
	}
}

func TestAndSimplifications(t *testing.T) {
	b := NewBuilder()
	x := b.Var()
	if b.And(x, True) != x || b.And(True, x) != x {
		t.Error("And identity broken")
	}
	if b.And(x, False) != False || b.And(False, x) != False {
		t.Error("And annihilator broken")
	}
	if b.And(x, x) != x {
		t.Error("And idempotence broken")
	}
	if b.And(x, x.Not()) != False {
		t.Error("And contradiction broken")
	}
	y := b.Var()
	if b.And(x, y) != b.And(y, x) {
		t.Error("hash-consing should make And commutative-identical")
	}
}

func TestOrIffIte(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var(), b.Var()
	cases := []struct{ xv, yv bool }{{false, false}, {false, true}, {true, false}, {true, true}}
	for _, c := range cases {
		assign := map[F]bool{x: c.xv, y: c.yv}
		if b.Eval(b.Or(x, y), assign) != (c.xv || c.yv) {
			t.Errorf("Or(%v,%v) wrong", c.xv, c.yv)
		}
		if b.Eval(b.Xor(x, y), assign) != (c.xv != c.yv) {
			t.Errorf("Xor(%v,%v) wrong", c.xv, c.yv)
		}
		if b.Eval(b.Iff(x, y), assign) != (c.xv == c.yv) {
			t.Errorf("Iff(%v,%v) wrong", c.xv, c.yv)
		}
		z := b.Var()
		for _, zv := range []bool{false, true} {
			assign[z] = zv
			want := c.yv
			if c.xv {
				want = c.yv
			}
			want = map[bool]bool{true: c.yv, false: zv}[c.xv]
			if b.Eval(b.Ite(x, y, z), assign) != want {
				t.Errorf("Ite(%v,%v,%v) wrong", c.xv, c.yv, zv)
			}
		}
	}
}

func TestSolveBasics(t *testing.T) {
	s := NewSolver()
	x, y := s.B.Var(), s.B.Var()
	s.Assert(s.B.Or(x, y))
	s.Assert(x.Not())
	if !s.Solve() {
		t.Fatal("should be SAT")
	}
	if s.Value(x) || !s.Value(y) {
		t.Fatal("model should have x=false, y=true")
	}
	s.Assert(y.Not())
	if s.Solve() {
		t.Fatal("should be UNSAT after y=false")
	}
}

func TestSolveWithAssumptions(t *testing.T) {
	s := NewSolver()
	x, y := s.B.Var(), s.B.Var()
	s.Assert(s.B.Or(x.Not(), y))
	if !s.Solve(x) {
		t.Fatal("SAT under x")
	}
	if !s.Value(y) {
		t.Fatal("y forced by x")
	}
	if !s.Solve(y.Not()) {
		t.Fatal("SAT under ¬y (x must be false)")
	}
	if s.Value(x) {
		t.Fatal("x must be false under ¬y")
	}
	if s.Solve(x, y.Not()) {
		t.Fatal("UNSAT under x ∧ ¬y")
	}
	// Assumptions must not persist.
	if !s.Solve(x) {
		t.Fatal("assumptions leaked into clause DB")
	}
}

func TestValid(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var(), b.Var()
	if !b.Valid(b.Or(x, x.Not())) {
		t.Error("x ∨ ¬x should be valid")
	}
	if b.Valid(b.Or(x, y)) {
		t.Error("x ∨ y should not be valid")
	}
	// De Morgan as a validity check.
	lhs := b.And(x, y).Not()
	rhs := b.Or(x.Not(), y.Not())
	if !b.Valid(b.Iff(lhs, rhs)) {
		t.Error("De Morgan should be valid")
	}
}

// randFormula builds a random formula over vars with given depth.
func randFormula(b *Builder, vars []F, r *rand.Rand, depth int) F {
	if depth == 0 || r.Intn(4) == 0 {
		f := vars[r.Intn(len(vars))]
		if r.Intn(2) == 0 {
			f = f.Not()
		}
		return f
	}
	x := randFormula(b, vars, r, depth-1)
	y := randFormula(b, vars, r, depth-1)
	switch r.Intn(5) {
	case 0:
		return b.And(x, y)
	case 1:
		return b.Or(x, y)
	case 2:
		return b.Xor(x, y)
	case 3:
		return b.Iff(x, y)
	default:
		z := randFormula(b, vars, r, depth-1)
		return b.Ite(x, y, z)
	}
}

func TestTseitinAgreesWithEval(t *testing.T) {
	// Property: if the SAT solver says SAT, the extracted model evaluates
	// the formula to true; if UNSAT, brute-force over all assignments
	// confirms no satisfying assignment exists.
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		b := NewBuilder()
		nv := 4 + r.Intn(4)
		vars := make([]F, nv)
		for i := range vars {
			vars[i] = b.Var()
		}
		f := randFormula(b, vars, r, 4)
		s := SolverOn(b)
		s.Assert(f)
		got := s.Solve()
		if got {
			if !s.EvalInModel(f) {
				t.Fatalf("iter %d: model does not satisfy formula", iter)
			}
			continue
		}
		// Brute force.
		for mask := 0; mask < 1<<nv; mask++ {
			assign := map[F]bool{}
			for i, v := range vars {
				assign[v] = mask>>i&1 == 1
			}
			if b.Eval(f, assign) {
				t.Fatalf("iter %d: solver said UNSAT but assignment %b satisfies", iter, mask)
			}
		}
	}
}

func TestAtMostK(t *testing.T) {
	for n := 1; n <= 5; n++ {
		for k := 0; k <= n; k++ {
			b := NewBuilder()
			vars := make([]F, n)
			for i := range vars {
				vars[i] = b.Var()
			}
			amk := b.AtMostK(vars, k)
			for mask := 0; mask < 1<<n; mask++ {
				assign := map[F]bool{}
				cnt := 0
				for i, v := range vars {
					val := mask>>i&1 == 1
					assign[v] = val
					if val {
						cnt++
					}
				}
				want := cnt <= k
				if got := b.Eval(amk, assign); got != want {
					t.Fatalf("AtMostK(n=%d,k=%d) mask=%b: got %v want %v", n, k, mask, got, want)
				}
			}
		}
	}
}

func TestSolveMinimize(t *testing.T) {
	s := NewSolver()
	b := s.B
	n := 6
	vars := make([]F, n)
	for i := range vars {
		vars[i] = b.Var()
	}
	// Require at least 2 of the first 4 to be true: (x0∨x1)(x2∨x3).
	s.Assert(b.Or(vars[0], vars[1]))
	s.Assert(b.Or(vars[2], vars[3]))
	k, ok := s.SolveMinimize(vars)
	if !ok || k != 2 {
		t.Fatalf("minimize = %d,%v; want 2,true", k, ok)
	}
	cnt := 0
	for _, v := range vars {
		if s.Value(v) {
			cnt++
		}
	}
	if cnt != 2 {
		t.Fatalf("model has %d true vars, want 2", cnt)
	}
	// Under an assumption that forces a third.
	k, ok = s.SolveMinimize(vars, vars[5])
	if !ok || k != 3 {
		t.Fatalf("minimize under assumption = %d,%v; want 3,true", k, ok)
	}
	// UNSAT case.
	s.Assert(vars[0].Not())
	s.Assert(vars[1].Not())
	if _, ok := s.SolveMinimize(vars); ok {
		t.Fatal("should be UNSAT")
	}
}

func TestMatchPredAgainstInterpreter(t *testing.T) {
	// Property: the circuit MatchPred(m) evaluated on packet p's bits
	// agrees with m.Matches(p), for random matches and packets.
	r := rand.New(rand.NewSource(13))
	b := NewBuilder()
	pv := b.NewPacketVars()
	for iter := 0; iter < 500; iter++ {
		m := header.Match{
			Src:     header.Prefix{Addr: r.Uint32(), Len: r.Intn(33)}.Canonical(),
			Dst:     header.Prefix{Addr: r.Uint32(), Len: r.Intn(33)}.Canonical(),
			SrcPort: header.AnyPort,
			DstPort: header.AnyPort,
			Proto:   header.AnyProto,
		}
		if r.Intn(2) == 0 {
			lo := uint16(r.Intn(65536))
			hi := lo + uint16(r.Intn(65536-int(lo)))
			m.DstPort = header.PortRange{Lo: lo, Hi: hi}
		}
		if r.Intn(3) == 0 {
			m.Proto = header.Proto(uint8(1 + r.Intn(254)))
		}
		pred := b.MatchPred(pv, m)
		for j := 0; j < 10; j++ {
			var p header.Packet
			if j%2 == 0 {
				// Random packet.
				p = header.Packet{
					SrcIP: r.Uint32(), DstIP: r.Uint32(),
					SrcPort: uint16(r.Intn(65536)), DstPort: uint16(r.Intn(65536)),
					Proto: uint8(r.Intn(256)),
				}
			} else {
				// Packet inside the match, jittered.
				p = m.SamplePacket()
				p.DstIP |= r.Uint32() & (1<<(32-m.Dst.Len) - 1)
				p.SrcIP |= r.Uint32() & (1<<(32-m.Src.Len) - 1)
			}
			got := b.Eval(pred, AssignmentFor(pv, p))
			want := m.Matches(p)
			if got != want {
				t.Fatalf("MatchPred disagrees: m=%v p=%v circuit=%v interp=%v", m, p, got, want)
			}
		}
	}
}

func TestPacketDecode(t *testing.T) {
	s := NewSolver()
	pv := s.B.NewPacketVars()
	m := header.Match{
		Src:     header.MustParsePrefix("10.1.0.0/16"),
		Dst:     header.MustParsePrefix("1.2.3.0/24"),
		SrcPort: header.AnyPort,
		DstPort: header.PortRange{Lo: 443, Hi: 443},
		Proto:   header.Proto(header.ProtoTCP),
	}
	s.Assert(s.B.MatchPred(pv, m))
	if !s.Solve() {
		t.Fatal("match should be satisfiable")
	}
	p := s.Packet(pv)
	if !m.Matches(p) {
		t.Fatalf("decoded packet %v does not satisfy match %v", p, m)
	}
	if p.DstPort != 443 || p.Proto != header.ProtoTCP {
		t.Fatalf("exact fields wrong in %v", p)
	}
}

func TestGeLeConst(t *testing.T) {
	b := NewBuilder()
	bits := make([]F, 8)
	for i := range bits {
		bits[i] = b.Var()
	}
	for _, c := range []uint64{0, 1, 77, 128, 254, 255} {
		ge := b.geConst(bits, c)
		le := b.leConst(bits, c)
		for v := uint64(0); v < 256; v++ {
			assign := map[F]bool{}
			for i := range bits {
				assign[bits[i]] = v>>(7-i)&1 == 1
			}
			if b.Eval(ge, assign) != (v >= c) {
				t.Fatalf("geConst(%d) wrong at %d", c, v)
			}
			if b.Eval(le, assign) != (v <= c) {
				t.Fatalf("leConst(%d) wrong at %d", c, v)
			}
		}
	}
}

func TestSharedBuilderMultipleSolvers(t *testing.T) {
	b := NewBuilder()
	x := b.Var()
	s1 := SolverOn(b)
	s2 := SolverOn(b)
	s1.Assert(x)
	s2.Assert(x.Not())
	if !s1.Solve() || !s1.Value(x) {
		t.Fatal("s1 should be SAT with x=true")
	}
	if !s2.Solve() || s2.Value(x) {
		t.Fatal("s2 should be SAT with x=false")
	}
}

func BenchmarkMatchPred(b *testing.B) {
	bb := NewBuilder()
	pv := bb.NewPacketVars()
	m := header.Match{
		Src:     header.MustParsePrefix("10.0.0.0/8"),
		Dst:     header.MustParsePrefix("1.2.0.0/16"),
		SrcPort: header.AnyPort,
		DstPort: header.PortRange{Lo: 80, Hi: 443},
		Proto:   header.Proto(header.ProtoTCP),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bb.MatchPred(pv, m)
	}
}

func BenchmarkSolveMatchOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSolver()
		pv := s.B.NewPacketVars()
		m1 := header.DstMatch(header.MustParsePrefix("1.0.0.0/8"))
		m2 := header.DstMatch(header.MustParsePrefix("1.2.0.0/16"))
		s.Assert(s.B.And(s.B.MatchPred(pv, m1), s.B.MatchPred(pv, m2)))
		if !s.Solve() {
			b.Fatal("should be SAT")
		}
	}
}
