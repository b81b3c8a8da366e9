package sat

import (
	"sync"
	"testing"
	"time"
)

// pigeonhole builds the unsatisfiable PHP(n+1, n) instance, a standard
// workout that forces real conflict analysis.
func pigeonhole(s *Solver, pigeons, holes int) [][]Var {
	vars := make([][]Var, pigeons)
	for p := range vars {
		vars[p] = make([]Var, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = Pos(vars[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(Neg(vars[p1][h]), Neg(vars[p2][h]))
			}
		}
	}
	return vars
}

func TestSolveLimitedUnlimitedMatchesSolve(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if r := s.SolveLimited(Budget{}); r.Outcome != Sat {
		t.Fatalf("PHP(5,5) = %v, want sat", r.Outcome)
	}
	u := New()
	pigeonhole(u, 6, 5)
	if r := u.SolveLimited(Budget{}); r.Outcome != Unsat {
		t.Fatalf("PHP(6,5) = %v, want unsat", r.Outcome)
	}
}

func TestConflictBudgetExhausts(t *testing.T) {
	s := New()
	pigeonhole(s, 8, 7) // hard enough that 5 conflicts can't refute it
	r := s.SolveLimited(Budget{Conflicts: 5})
	if r.Outcome != Unknown {
		t.Fatalf("outcome = %v, want unknown", r.Outcome)
	}
	if r.Reason != ReasonConflictBudget {
		t.Fatalf("reason = %q, want %q", r.Reason, ReasonConflictBudget)
	}
	if s.decisionLevel() != 0 {
		t.Fatal("solver must be back at level 0 after Unknown")
	}
}

func TestPropagationBudgetExhausts(t *testing.T) {
	s := New()
	pigeonhole(s, 8, 7)
	r := s.SolveLimited(Budget{Propagations: 10})
	if r.Outcome != Unknown {
		t.Fatalf("outcome = %v, want unknown", r.Outcome)
	}
	if r.Reason != ReasonPropagationBudget {
		t.Fatalf("reason = %q, want %q", r.Reason, ReasonPropagationBudget)
	}
}

// TestBudgetRetryResumes proves the resume property: after a budget
// exhaustion the learned clauses survive, so escalating retries finish
// the refutation with bounded total work instead of restarting.
func TestBudgetRetryResumes(t *testing.T) {
	// Cold reference: how many conflicts a from-scratch refutation takes.
	ref := New()
	pigeonhole(ref, 7, 6)
	if !ref.Solve() {
		_ = 0 // UNSAT expected; Solve returns false
	}
	cold := ref.Stats.Conflicts

	s := New()
	pigeonhole(s, 7, 6)
	budget := int64(4)
	attempts := 0
	var r Result
	for {
		attempts++
		r = s.SolveLimited(Budget{Conflicts: budget})
		if r.Outcome != Unknown {
			break
		}
		if got := s.Stats.Learned; got == 0 {
			t.Fatal("no learned clauses retained across budget exhaustion")
		}
		budget *= 4
		if attempts > 30 {
			t.Fatal("retry loop did not converge")
		}
	}
	if r.Outcome != Unsat {
		t.Fatalf("final outcome = %v, want unsat", r.Outcome)
	}
	if attempts < 2 {
		t.Fatalf("budget 4 refuted PHP(7,6) immediately (cold takes %d conflicts); test needs a harder instance", cold)
	}
	// Resume bound: the geometric schedule may spend at most the sum of
	// its budgets; with resume the total stays within that envelope
	// instead of re-paying the full proof on every attempt.
	if s.Stats.Conflicts > 3*cold+64 {
		t.Fatalf("resumed refutation spent %d conflicts vs cold %d — state not preserved?", s.Stats.Conflicts, cold)
	}
}

func TestInterruptStopsSolve(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8) // long-running UNSAT instance
	var wg sync.WaitGroup
	wg.Add(1)
	var r Result
	go func() {
		defer wg.Done()
		r = s.SolveLimited(Budget{})
	}()
	time.Sleep(5 * time.Millisecond)
	s.Interrupt()
	wg.Wait()
	// The solve either finished legitimately before the interrupt
	// landed, or stopped with Unknown(interrupted).
	if r.Outcome == Unknown && r.Reason != ReasonInterrupted {
		t.Fatalf("reason = %q, want %q", r.Reason, ReasonInterrupted)
	}
	// Sticky until cleared: the next call must refuse to run.
	if r2 := s.SolveLimited(Budget{}); r2.Outcome != Unknown && r.Outcome == Unknown {
		t.Fatalf("interrupt flag not sticky: got %v", r2.Outcome)
	}
	s.ClearInterrupt()
	if r3 := s.SolveLimited(Budget{}); r3.Outcome != Unsat {
		t.Fatalf("after ClearInterrupt outcome = %v, want unsat", r3.Outcome)
	}
}

func TestSolvePanicsWhenInterrupted(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	s.Interrupt()
	defer func() {
		if recover() == nil {
			t.Fatal("interrupted unbudgeted Solve must panic, not return a bool")
		}
	}()
	s.Solve()
}
