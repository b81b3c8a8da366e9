package sat

import (
	"math/rand"
	"testing"
)

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(Pos(a)) {
		t.Fatal("unit clause should be addable")
	}
	if !s.Solve() {
		t.Fatal("single unit clause should be SAT")
	}
	if !s.ValueInModel(a) {
		t.Fatal("model must satisfy unit clause")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause should report unsat")
	}
	if s.Solve() {
		t.Fatal("solver with empty clause must be UNSAT")
	}
}

func TestContradictoryUnits(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(Pos(a))
	if s.AddClause(Neg(a)) {
		t.Fatal("contradictory unit should report unsat")
	}
	if s.Solve() {
		t.Fatal("must be UNSAT")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(Pos(a), Neg(a)) {
		t.Fatal("tautology should be trivially fine")
	}
	if s.NumClauses() != 0 {
		t.Fatal("tautology should not be stored")
	}
	if !s.Solve() {
		t.Fatal("empty DB is SAT")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// a, a->b, b->c, forces c.
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(Pos(a))
	s.AddClause(Neg(a), Pos(b))
	s.AddClause(Neg(b), Pos(c))
	if !s.Solve() {
		t.Fatal("chain should be SAT")
	}
	if !s.ValueInModel(a) || !s.ValueInModel(b) || !s.ValueInModel(c) {
		t.Fatal("all of a,b,c must be true")
	}
}

func TestUnsatTriangle(t *testing.T) {
	// (a∨b)(¬a∨b)(a∨¬b)(¬a∨¬b) is UNSAT.
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Pos(a), Pos(b))
	s.AddClause(Neg(a), Pos(b))
	s.AddClause(Pos(a), Neg(b))
	s.AddClause(Neg(a), Neg(b))
	if s.Solve() {
		t.Fatal("must be UNSAT")
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Neg(a), Pos(b)) // a -> b
	if !s.Solve(Pos(a)) {
		t.Fatal("SAT under a")
	}
	if !s.ValueInModel(b) {
		t.Fatal("b must be true when a assumed")
	}
	s.AddClause(Neg(b)) // now b must be false
	if s.Solve(Pos(a)) {
		t.Fatal("UNSAT under a after ¬b")
	}
	if !s.Solve(Neg(a)) {
		t.Fatal("still SAT under ¬a")
	}
	if !s.Solve() {
		t.Fatal("still SAT with no assumptions")
	}
}

func TestIncrementalReuse(t *testing.T) {
	s := New()
	vars := make([]Var, 10)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// x0 ∨ x1 ∨ ... ∨ x9
	lits := make([]Lit, len(vars))
	for i, v := range vars {
		lits[i] = Pos(v)
	}
	s.AddClause(lits...)
	for i := range vars {
		if !s.Solve() {
			t.Fatalf("iteration %d should be SAT", i)
		}
		// Block the found model's true vars one at a time.
		for _, v := range vars {
			if s.ValueInModel(v) {
				s.AddClause(Neg(v))
				break
			}
		}
	}
	if s.Solve() {
		t.Fatal("after blocking all variables the big clause is UNSAT")
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons in n holes — classically hard UNSAT.
	// Keep n small; this exercises clause learning heavily.
	n := 6
	s := New()
	pv := make([][]Var, n+1)
	for p := 0; p <= n; p++ {
		pv[p] = make([]Var, n)
		for h := 0; h < n; h++ {
			pv[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = Pos(pv[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(Neg(pv[p1][h]), Neg(pv[p2][h]))
			}
		}
	}
	if s.Solve() {
		t.Fatal("pigeonhole must be UNSAT")
	}
	if s.Stats.Conflicts == 0 {
		t.Fatal("pigeonhole should require conflicts")
	}
}

func TestGraphColoringSAT(t *testing.T) {
	// 3-color a 5-cycle (possible) and 2-color it (impossible).
	color := func(cycle, colors int) bool {
		s := New()
		v := make([][]Var, cycle)
		for i := range v {
			v[i] = make([]Var, colors)
			for c := range v[i] {
				v[i][c] = s.NewVar()
			}
			lits := make([]Lit, colors)
			for c := range v[i] {
				lits[c] = Pos(v[i][c])
			}
			s.AddClause(lits...)
		}
		for i := range v {
			j := (i + 1) % cycle
			for c := 0; c < colors; c++ {
				s.AddClause(Neg(v[i][c]), Neg(v[j][c]))
			}
		}
		return s.Solve()
	}
	if !color(5, 3) {
		t.Error("5-cycle is 3-colorable")
	}
	if color(5, 2) {
		t.Error("odd cycle is not 2-colorable")
	}
}

// dpllSolve is a tiny reference solver used to cross-check CDCL on random
// instances. Clauses are slices of Lits.
func dpllSolve(numVars int, clauses [][]Lit, assign []lbool) bool {
	// Unit propagation.
	for {
		progressed := false
		for _, c := range clauses {
			unassigned := -1
			satisfied := false
			cnt := 0
			for i, l := range c {
				switch val(assign, l) {
				case lTrue:
					satisfied = true
				case lUndef:
					unassigned = i
					cnt++
				}
			}
			if satisfied {
				continue
			}
			if cnt == 0 {
				return false
			}
			if cnt == 1 {
				l := c[unassigned]
				set(assign, l)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	// Pick an unassigned var.
	branch := -1
	for v := 0; v < numVars; v++ {
		if assign[v] == lUndef {
			branch = v
			break
		}
	}
	if branch < 0 {
		return true
	}
	for _, phase := range []lbool{lTrue, lFalse} {
		cp := make([]lbool, len(assign))
		copy(cp, assign)
		cp[branch] = phase
		if dpllSolve(numVars, clauses, cp) {
			return true
		}
	}
	return false
}

func val(assign []lbool, l Lit) lbool {
	a := assign[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Sign() {
		if a == lTrue {
			return lFalse
		}
		return lTrue
	}
	return a
}

func set(assign []lbool, l Lit) {
	if l.Sign() {
		assign[l.Var()] = lFalse
	} else {
		assign[l.Var()] = lTrue
	}
}

func TestRandom3SATAgainstDPLL(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		numVars := 6 + r.Intn(8)
		// Around the phase transition (4.26 clauses/var) both SAT and
		// UNSAT instances occur.
		numClauses := int(float64(numVars) * (3.5 + r.Float64()*2))
		clauses := make([][]Lit, numClauses)
		s := New()
		for v := 0; v < numVars; v++ {
			s.NewVar()
		}
		for i := range clauses {
			c := make([]Lit, 3)
			for j := range c {
				v := Var(r.Intn(numVars))
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses[i] = c
			s.AddClause(c...)
		}
		got := s.Solve()
		want := dpllSolve(numVars, clauses, make([]lbool, numVars))
		if got != want {
			t.Fatalf("iter %d: cdcl=%v dpll=%v (vars=%d clauses=%d)",
				iter, got, want, numVars, numClauses)
		}
		if got {
			// Verify the model satisfies every clause.
			for _, c := range clauses {
				ok := false
				for _, l := range c {
					mv := s.ValueInModel(l.Var())
					if mv != l.Sign() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, c)
				}
			}
		}
	}
}

func TestRandomWithAssumptionsAgainstDPLL(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 150; iter++ {
		numVars := 6 + r.Intn(6)
		numClauses := int(float64(numVars) * 4)
		clauses := make([][]Lit, 0, numClauses)
		s := New()
		for v := 0; v < numVars; v++ {
			s.NewVar()
		}
		for i := 0; i < numClauses; i++ {
			c := make([]Lit, 3)
			for j := range c {
				v := Var(r.Intn(numVars))
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		// One or two assumptions.
		nA := 1 + r.Intn(2)
		assumps := make([]Lit, 0, nA)
		seen := map[Var]bool{}
		for len(assumps) < nA {
			v := Var(r.Intn(numVars))
			if seen[v] {
				continue
			}
			seen[v] = true
			if r.Intn(2) == 0 {
				assumps = append(assumps, Pos(v))
			} else {
				assumps = append(assumps, Neg(v))
			}
		}
		got := s.Solve(assumps...)

		ref := make([]lbool, numVars)
		refClauses := clauses
		conflict := false
		for _, a := range assumps {
			if val(ref, a) == lFalse {
				conflict = true
				break
			}
			set(ref, a)
		}
		want := !conflict && dpllSolve(numVars, refClauses, ref)
		if got != want {
			t.Fatalf("iter %d: cdcl=%v dpll=%v assumps=%v", iter, got, want, assumps)
		}
		// The solver must remain reusable after assumption solving.
		if !s.ok && s.Solve() {
			t.Fatal("clause database unsat at level 0, yet Solve true")
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestLitHelpers(t *testing.T) {
	v := Var(3)
	if Pos(v).Var() != v || Neg(v).Var() != v {
		t.Error("Var extraction broken")
	}
	if Pos(v).Sign() || !Neg(v).Sign() {
		t.Error("Sign broken")
	}
	if Pos(v).Not() != Neg(v) || Neg(v).Not() != Pos(v) {
		t.Error("Not broken")
	}
	if Pos(v).String() != "v3" || Neg(v).String() != "~v3" {
		t.Error("String broken")
	}
}

func BenchmarkPigeonhole7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 7
		s := New()
		pv := make([][]Var, n+1)
		for p := 0; p <= n; p++ {
			pv[p] = make([]Var, n)
			for h := 0; h < n; h++ {
				pv[p][h] = s.NewVar()
			}
		}
		for p := 0; p <= n; p++ {
			lits := make([]Lit, n)
			for h := 0; h < n; h++ {
				lits[h] = Pos(pv[p][h])
			}
			s.AddClause(lits...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					s.AddClause(Neg(pv[p1][h]), Neg(pv[p2][h]))
				}
			}
		}
		if s.Solve() {
			b.Fatal("pigeonhole must be UNSAT")
		}
	}
}

func BenchmarkRandom3SAT(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		numVars := 60
		numClauses := 250
		s := New()
		for v := 0; v < numVars; v++ {
			s.NewVar()
		}
		for c := 0; c < numClauses; c++ {
			lits := make([]Lit, 3)
			for j := range lits {
				v := Var(r.Intn(numVars))
				if r.Intn(2) == 0 {
					lits[j] = Pos(v)
				} else {
					lits[j] = Neg(v)
				}
			}
			s.AddClause(lits...)
		}
		s.Solve()
	}
}
