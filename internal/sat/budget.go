package sat

// Resource budgets and cooperative interruption for the CDCL loop.
//
// A budgeted solve has three outcomes instead of two: alongside SAT and
// UNSAT it can stop with Unknown when the budget runs out or the solver
// is interrupted from another goroutine. Stopping is always sound — the
// solver backtracks to level 0 and keeps every learned clause, so a
// retry with a larger budget resumes the proof rather than restarting
// it from scratch.

// Outcome is the three-valued verdict of a budgeted solve.
type Outcome int8

const (
	// Unknown means the solve stopped before reaching a verdict: the
	// budget was exhausted or the solver was interrupted. It is the
	// zero value so a forgotten outcome never reads as a verdict.
	Unknown Outcome = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the clauses are unsatisfiable under the assumptions.
	Unsat
)

// String renders the outcome for logs and error messages.
func (o Outcome) String() string {
	switch o {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Reasons reported with an Unknown outcome.
const (
	ReasonInterrupted       = "interrupted"
	ReasonConflictBudget    = "conflict budget exhausted"
	ReasonPropagationBudget = "propagation budget exhausted"
)

// Result is the outcome of a SolveLimited call. Reason is set only for
// Unknown and says why the solve stopped.
type Result struct {
	Outcome Outcome
	Reason  string
}

// Budget bounds the resources one SolveLimited call may spend. A zero
// field means unlimited. Limits are per call: a call with
// Budget{Conflicts: 1000} may spend up to 1000 conflicts beyond
// whatever earlier calls on the same solver already spent.
type Budget struct {
	Conflicts    int64
	Propagations int64
}

// Interrupt asks the solver to stop at the next check point in the
// search loop. Safe to call from any goroutine while a solve is in
// flight; the in-flight SolveLimited returns Unknown(interrupted). The
// flag is sticky — it also stops future calls — until ClearInterrupt.
func (s *Solver) Interrupt() { s.interrupt.Store(true) }

// ClearInterrupt re-arms the solver after an Interrupt.
func (s *Solver) ClearInterrupt() { s.interrupt.Store(false) }

// SolveLimited decides satisfiability under the assumptions, giving up
// with Unknown once b is exhausted or Interrupt is called. State is
// preserved on Unknown: the trail unwinds to level 0 but learned
// clauses and variable activity survive, so calling again with a larger
// budget continues where the last attempt stopped.
func (s *Solver) SolveLimited(b Budget, assumptions ...Lit) Result {
	if !s.ok {
		return Result{Outcome: Unsat}
	}
	s.backtrackTo(0)
	s.confLimit, s.propLimit = 0, 0
	if b.Conflicts > 0 {
		s.confLimit = s.Stats.Conflicts + b.Conflicts
	}
	if b.Propagations > 0 {
		s.propLimit = s.Stats.Propagations + b.Propagations
	}
	if s.interrupt.Load() {
		return Result{Outcome: Unknown, Reason: ReasonInterrupted}
	}

	maxLearnts := float64(len(s.clauses))/3 + 500
	var restarts int64
	for {
		restarts++
		limit := luby(restarts) * restartBase
		status := s.search(assumptions, limit, &maxLearnts)
		switch status {
		case lTrue:
			s.saveModelAndReset()
			return Result{Outcome: Sat}
		case lFalse:
			s.backtrackTo(0)
			return Result{Outcome: Unsat}
		}
		if s.stopReason != "" {
			r := Result{Outcome: Unknown, Reason: s.stopReason}
			s.stopReason = ""
			return r
		}
		s.Stats.Restarts++
		maxLearnts *= 1.1
	}
}

// stopRequested is the per-iteration check point of the search loop: an
// atomic load for the interrupt flag plus two integer compares for the
// budgets. When it fires it records why in s.stopReason and search
// unwinds to level 0 and returns lUndef.
func (s *Solver) stopRequested() bool {
	if s.interrupt.Load() {
		s.stopReason = ReasonInterrupted
		return true
	}
	if s.confLimit > 0 && s.Stats.Conflicts >= s.confLimit {
		s.stopReason = ReasonConflictBudget
		return true
	}
	if s.propLimit > 0 && s.Stats.Propagations >= s.propLimit {
		s.stopReason = ReasonPropagationBudget
		return true
	}
	return false
}
