package smt

import (
	"testing"

	"jinjing/internal/sat"
)

// assertPigeonhole asserts PHP(pigeons, holes) on s: every pigeon sits
// in some hole, no hole holds two pigeons. UNSAT iff pigeons > holes,
// and hard for CDCL — ideal for exercising budgets.
func assertPigeonhole(b *Builder, s *Solver, pigeons, holes int) {
	vars := make([][]F, pigeons)
	for p := range vars {
		vars[p] = make([]F, holes)
		for h := range vars[p] {
			vars[p][h] = b.Var()
		}
	}
	for p := 0; p < pigeons; p++ {
		s.Assert(b.OrAll(vars[p]...))
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.Assert(b.Or(vars[p1][h].Not(), vars[p2][h].Not()))
			}
		}
	}
}

func TestDecideLimitedBudgetThenResume(t *testing.T) {
	b := NewBuilder()
	s := SolverOn(b)
	assertPigeonhole(b, s, 8, 7)

	r := s.DecideLimited(sat.Budget{Conflicts: 5})
	if r.Outcome != sat.Unknown || r.Reason != sat.ReasonConflictBudget {
		t.Fatalf("got %v/%q, want unknown/conflict budget", r.Outcome, r.Reason)
	}
	learned := s.Stats().Learned
	if learned == 0 {
		t.Fatal("budget exhaustion must retain learned clauses")
	}

	// Escalating retries resume the proof and converge to UNSAT.
	budget := int64(20)
	for i := 0; ; i++ {
		r = s.DecideLimited(sat.Budget{Conflicts: budget})
		if r.Outcome != sat.Unknown {
			break
		}
		budget *= 4
		if i > 20 {
			t.Fatal("retries did not converge")
		}
	}
	if r.Outcome != sat.Unsat {
		t.Fatalf("final outcome = %v, want unsat", r.Outcome)
	}
	if s.Stats().Learned <= learned {
		t.Fatal("resumed search should have kept learning on top of retained clauses")
	}
}

func TestSolveLimitedModelOnSat(t *testing.T) {
	b := NewBuilder()
	s := SolverOn(b)
	assertPigeonhole(b, s, 5, 5)
	r := s.SolveLimited(sat.Budget{})
	if r.Outcome != sat.Sat {
		t.Fatalf("PHP(5,5) = %v, want sat", r.Outcome)
	}
	// Model must be loaded: Value must not panic and the assignment must
	// satisfy the constraints (spot check: at least one var true).
	any := false
	for f, v := range s.model {
		_ = f
		if v {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("satisfying model should place each pigeon somewhere")
	}
}

func TestInterruptSurfacesThroughSolver(t *testing.T) {
	b := NewBuilder()
	s := SolverOn(b)
	assertPigeonhole(b, s, 6, 5)
	s.Interrupt()
	if r := s.DecideLimited(sat.Budget{}); r.Outcome != sat.Unknown || r.Reason != sat.ReasonInterrupted {
		t.Fatalf("got %v/%q, want unknown/interrupted", r.Outcome, r.Reason)
	}
	s.ClearInterrupt()
	if r := s.DecideLimited(sat.Budget{}); r.Outcome != sat.Unsat {
		t.Fatalf("after clear: %v, want unsat", r.Outcome)
	}
}

func TestSolveMinimizeLimitedUnknown(t *testing.T) {
	b := NewBuilder()
	s := SolverOn(b)
	x, y := b.Var(), b.Var()
	s.Assert(b.Or(x, y))
	s.Interrupt()
	if _, r := s.SolveMinimizeLimited(sat.Budget{}, []F{x, y}); r.Outcome != sat.Unknown {
		t.Fatalf("interrupted minimize = %v, want unknown", r.Outcome)
	}
	s.ClearInterrupt()
	n, r := s.SolveMinimizeLimited(sat.Budget{}, []F{x, y})
	if r.Outcome != sat.Sat || n != 1 {
		t.Fatalf("minimize = (%d, %v), want (1, sat)", n, r.Outcome)
	}
}
