package core

import (
	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/smt"
)

// CheckConservative implements the §9 fallback for when forwarding
// equivalence classes are unavailable (no routing data): it verifies all
// traffic — 0.0.0.0/0 — on each ACL individually, i.e. checks that every
// interface's decision model is unchanged by the update. This is a
// sufficient (but much stronger) condition for reachability consistency:
// a "consistent" verdict is sound, while an "inconsistent" verdict may be
// a false positive (a rule changed on an interface that no affected
// traffic traverses).
//
// Control intents are outside this mode's scope (they are inherently
// per-path); calling it with controls set panics.
func (e *Engine) CheckConservative() *CheckResult {
	if len(e.Controls) > 0 {
		panic("core: CheckConservative cannot decide per-path control intents")
	}
	root := e.startSpan("check.conservative")
	res := &CheckResult{Consistent: true, Complete: true}
	sp := root.Child("solve")
	for _, p := range e.scopeACLPairs() {
		before, after := orPermitAll(p.before), orPermitAll(p.after)
		var equal bool
		if e.Opts.UseDifferential {
			// Theorem 4.1 applies per ACL too: compare related rules only.
			diff := acl.Differential(before, after)
			if len(diff) == 0 {
				continue
			}
			ix := acl.NewDstIndex(diff)
			equal = acl.Equivalent(acl.Related(before, ix), acl.Related(after, ix))
		} else {
			equal = acl.Equivalent(before, after)
		}
		if !equal {
			res.Consistent = false
			res.Violations = append(res.Violations, Violation{
				Packet: counterexamplePacket(before, after),
			})
		}
	}
	sp.End(obs.KV("violations", len(res.Violations)))
	root.SetAttr("consistent", res.Consistent)
	root.End()
	return res
}

// counterexamplePacket finds one packet the two ACLs decide differently
// (they are known inequivalent).
func counterexamplePacket(a, b *acl.ACL) header.Packet {
	bld := smt.NewBuilder()
	pv := bld.NewPacketVars()
	s := smt.SolverOn(bld)
	if s.Solve(bld.Xor(a.EncodeTournament(bld, pv), b.EncodeTournament(bld, pv))) {
		return s.Packet(pv)
	}
	return header.Packet{}
}
