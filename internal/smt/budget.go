package smt

// Budgeted and interruptible variants of the solving entry points. They
// surface sat.Budget / sat.Result through the Tseitin layer unchanged:
// the formula cache, clause database, and learned clauses all survive
// an Unknown outcome, so retrying with a larger budget resumes the
// underlying SAT search rather than restarting it.

import "jinjing/internal/sat"

// Interrupt asks the underlying SAT solver to stop at its next check
// point. Safe from any goroutine; in-flight *Limited calls return
// Unknown(interrupted). Sticky until ClearInterrupt.
func (s *Solver) Interrupt() { s.sat.Interrupt() }

// ClearInterrupt re-arms the solver after an Interrupt.
func (s *Solver) ClearInterrupt() { s.sat.ClearInterrupt() }

// SolveLimited is Solve with a resource budget: it decides the asserted
// constraints plus assumptions, giving up with Unknown when b is
// exhausted or Interrupt is called. On Sat the model is retained for
// Value/Packet queries; on any other outcome the previous model is
// dropped.
func (s *Solver) SolveLimited(b sat.Budget, assumptions ...F) sat.Result {
	lits := make([]sat.Lit, len(assumptions))
	for i, f := range assumptions {
		lits[i] = s.litFor(f)
	}
	r := s.sat.SolveLimited(b, lits...)
	if r.Outcome != sat.Sat {
		s.model = nil
		return r
	}
	s.model = make(map[F]bool)
	for idx, v := range s.satVar {
		if v >= 0 && s.B.nodes[idx].kind == kindVar {
			s.model[mkF(int32(idx), false)] = s.sat.ValueInModel(v)
		}
	}
	return r
}

// DecideLimited is Decide with a resource budget: the verdict without
// model extraction, or Unknown when the budget runs out first.
func (s *Solver) DecideLimited(b sat.Budget, assumptions ...F) sat.Result {
	lits := make([]sat.Lit, len(assumptions))
	for i, f := range assumptions {
		lits[i] = s.litFor(f)
	}
	s.model = nil
	return s.sat.SolveLimited(b, lits...)
}

// SolveMinimizeLimited is SolveMinimize under a budget. Each SAT query
// of the linear descent gets budget b independently. When any query
// comes back Unknown the minimization aborts and reports that Unknown:
// a partially minimized answer would not be a sound optimum. On Sat the
// returned count is the optimum and the incumbent model is loaded.
func (s *Solver) SolveMinimizeLimited(b sat.Budget, costs []F, assumptions ...F) (int, sat.Result) {
	r := s.SolveLimited(b, assumptions...)
	if r.Outcome != sat.Sat {
		return 0, r
	}
	best := 0
	for _, c := range costs {
		if s.EvalInModel(c) {
			best++
		}
	}
	for k := 0; k < best; k++ {
		bound := s.B.AtMostK(costs, k)
		as := append(append([]F(nil), assumptions...), bound)
		rk := s.SolveLimited(b, as...)
		if rk.Outcome == sat.Unknown {
			return 0, rk
		}
		if rk.Outcome == sat.Sat {
			return k, rk
		}
	}
	if best > 0 {
		// Re-derive the model for the best bound (the earlier queries may
		// have clobbered it with an UNSAT attempt).
		bound := s.B.AtMostK(costs, best)
		as := append(append([]F(nil), assumptions...), bound)
		rb := s.SolveLimited(b, as...)
		if rb.Outcome == sat.Unknown {
			return 0, rb
		}
		if rb.Outcome == sat.Unsat {
			panic("smt: minimization lost the incumbent model")
		}
	}
	return best, sat.Result{Outcome: sat.Sat}
}
