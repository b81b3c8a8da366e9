package core

import (
	"jinjing/internal/obs"
	"jinjing/internal/smt"
)

// CheckMonolithic is the Minesweeper-style baseline the paper compares
// against in §1 and §4.1: instead of classifying traffic into forwarding
// equivalence classes and solving a small "delta" formula per class, it
// encodes the entire ACL configuration across every path of the scope
// into one big formula — full sequential decision models, no differential
// filtering, no per-FEC decomposition — and hands the whole thing to the
// solver in a single query. It decides the same property as Check.
func (e *Engine) CheckMonolithic() *CheckResult {
	o := e.obsv()
	root := e.startSpan("check.monolithic")
	res := &CheckResult{Consistent: true, Timings: Timings{}}

	ep := startPhase(root, res.Timings, "encode")
	tab := e.aclTable()
	pairs := e.scopeACLPairs()
	ids := make(map[string][2]int32, len(pairs))
	for _, p := range pairs {
		ids[p.binding.ID()] = [2]int32{tab.intern(p.before), tab.intern(p.after)}
	}

	enc := newEncoder(false /* sequential encoding */, tab.view(), o)
	solver := smt.SolverOn(enc.b)

	// Traffic classes forwarded along each path (so the one big formula
	// decides exactly the same property as the per-FEC decomposition).
	fecs := e.FECs()
	res.FECs = len(fecs)
	perPath := map[string]smt.F{}
	for _, fec := range fecs {
		pred := enc.classPred(fec.Classes)
		for _, p := range fec.Paths {
			key := p.Key()
			if cur, ok := perPath[key]; ok {
				perPath[key] = enc.b.Or(cur, pred)
			} else {
				perPath[key] = pred
			}
		}
	}

	// One violation disjunct per path of the whole scope:
	// ⋁_p (¬(desired_p ⇔ c'_p) ∧ ψ_p).
	viol := smt.False
	for _, p := range e.Paths() {
		psi, ok := perPath[p.Key()]
		if !ok {
			continue // no entering class is forwarded along p
		}
		desired, after := e.pathFormulas(enc, p, ids)
		viol = enc.b.Or(viol, enc.b.And(enc.b.Iff(desired, after).Not(), psi))
	}
	recordBuilderSize(o, enc)
	ep.end(obs.KV("fecs", res.FECs))

	sp := startPhase(root, res.Timings, "solve")
	res.SolvedFECs = res.FECs // everything reaches the solver at once
	if solver.Solve(viol) {
		res.Consistent = false
		res.Violations = append(res.Violations, Violation{Packet: solver.Packet(enc.pv)})
	}
	recordSolverStats(o, &res.SolverStats, solver.Stats())
	res.Conflicts = res.SolverStats.Conflicts
	sp.end(obs.KV("violations", len(res.Violations)))
	root.SetAttr("consistent", res.Consistent)
	root.End()
	return res
}
