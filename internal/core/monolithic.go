package core

import (
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
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
	res := &CheckResult{Consistent: true, Complete: true}

	ep := root.Child("encode")
	tab := e.aclTable()
	pairs := e.scopeACLPairs()
	ids := make(map[string][2]int32, len(pairs))
	for _, p := range pairs {
		ids[p.binding.ID()] = [2]int32{tab.intern(p.before), tab.intern(p.after)}
	}

	// The baseline's decision models are the full sequential ones (§4.1),
	// not the engine's tournament circuits: one per ACL-table ID.
	b := smt.NewBuilder()
	pv, acls, seq := b.NewPacketVars(), tab.view(), map[int32]smt.F{}
	encodeSeq := func(id int32) smt.F {
		if _, ok := seq[id]; !ok {
			seq[id] = acls[id].EncodeSeq(b, pv)
		}
		return seq[id]
	}
	solver := smt.SolverOn(b)

	// Traffic classes forwarded along each path (so the one big formula
	// decides exactly the same property as the per-FEC decomposition).
	fecs := e.FECs()
	res.FECs = len(fecs)
	perPath := map[string]smt.F{}
	for _, fec := range fecs {
		pred := classPred(b, pv, fec.Classes)
		for _, p := range fec.Paths {
			key := p.Key()
			if cur, ok := perPath[key]; ok {
				perPath[key] = b.Or(cur, pred)
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
		before, after := smt.True, smt.True
		for _, bind := range p.Bindings() {
			if pair, ok := ids[bind.ID()]; ok {
				before = b.And(before, encodeSeq(pair[0]))
				after = b.And(after, encodeSeq(pair[1]))
			}
		}
		desired := e.desiredFormula(b, pv, e.ctrlsOn(p), before)
		viol = b.Or(viol, b.And(b.Iff(desired, after).Not(), psi))
	}
	// The formula DAG's size: a proxy for encoding work.
	o.Gauge("smt.nodes").Set(int64(b.NumNodes()))
	ep.End(obs.KV("fecs", res.FECs))

	sp := root.Child("solve")
	res.SolvedFECs = res.FECs // everything reaches the solver at once
	if solver.Solve(viol) {
		res.Consistent = false
		res.Violations = append(res.Violations, Violation{Packet: solver.Packet(pv)})
	}
	recordSolverStats(o, &res.SolverStats, solver.Stats())
	sp.End(obs.KV("violations", len(res.Violations)))
	root.SetAttr("consistent", res.Consistent)
	root.End()
	return res
}

// ctrlsOn lists the controls governing p, in precedence order.
func (e *Engine) ctrlsOn(p topo.Path) []int32 {
	var cs []int32
	for i, c := range e.Controls {
		if c.AppliesTo(p) {
			cs = append(cs, int32(i))
		}
	}
	return cs
}

// desiredFormula composes the §6 reachability-update model r_p over the
// original path decision: of the controls governing the path (ctrls, in
// precedence order), the first whose match covers the packet dictates
// the outcome; otherwise the original decision is maintained.
func (e *Engine) desiredFormula(b *smt.Builder, pv *smt.PacketVars, ctrls []int32, orig smt.F) smt.F {
	out := orig
	// Later controls have lower priority, so fold in reverse: the first
	// control ends up outermost.
	for k := len(ctrls) - 1; k >= 0; k-- {
		c := e.Controls[ctrls[k]]
		var val smt.F
		switch c.Mode {
		case Isolate:
			val = smt.False
		case Open:
			val = smt.True
		case Maintain:
			val = orig
		}
		out = b.Ite(b.MatchPred(pv, c.Match), val, out)
	}
	return out
}

// classPred builds ψ for a set of destination classes: the packet's
// destination lies in one of them.
func classPred(b *smt.Builder, pv *smt.PacketVars, classes []header.Prefix) smt.F {
	out := smt.False
	for _, c := range classes {
		out = b.Or(out, b.MatchPred(pv, header.DstMatch(c)))
	}
	return out
}
