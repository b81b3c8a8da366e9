package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/faultinject"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/sat"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// GenerateResult reports the outcome of the generate primitive.
type GenerateResult struct {
	// Generated is the Before snapshot with source bindings cleared to
	// permit-all and synthesized ACLs installed at the target bindings.
	Generated *topo.Network
	// ACLs maps target binding IDs to their synthesized ACLs.
	ACLs map[string]*acl.ACL

	Classes int // traffic classes derived
	AECs    int // ACL equivalence classes (§5.1)
	// DECSplitAECs counts AECs that were unsolvable at AEC level and
	// required the dataplane split (§5.3).
	DECSplitAECs int
	// Unsolvable lists classes for which no decision assignment exists
	// even at DEC level; non-empty means the intent has no valid plan.
	Unsolvable []header.Match

	// RulesGenerated is the total synthesized rule count across targets
	// (before/after simplification, for the Fig. 4c/4d "length of
	// generated ACLs" comparison).
	RulesGenerated     int
	RulesAfterSimplify int

	Verified bool
	// SolverStats aggregates the full SAT counters across every solver
	// the generation spun up: one per AEC/DEC solving attempt plus the
	// verification check.
	SolverStats sat.Stats
	// Conflicts equals SolverStats.Conflicts (kept for compatibility).
	Conflicts int64
	Timings   Timings
}

// aec is one ACL equivalence class with its solving state.
type aec struct {
	key     string
	classes []header.Match
	// decisions is the vector of original-ACL decisions across the
	// encoding bindings (the class signature).
	decisions []acl.Action
	// ctrlIn[i] reports whether the class lies inside control i's match.
	ctrlIn []bool

	solved bool            // true when one decision per target suffices
	dec    map[string]bool // target binding ID -> permit?
	decs   []*decGroup     // DEC-level decisions when !solved
}

// decGroup is one dataplane equivalence class of an AEC: the member
// classes sharing a forwarding behavior, with their own decisions.
type decGroup struct {
	classes []header.Match
	paths   []topo.Path
	dec     map[string]bool
}

// Generate runs the generate primitive (§5): it removes the ACLs at
// sources (setting them to permit-all) and synthesizes new ACLs at the
// engine's Allow bindings so that packet (or desired, under controls)
// reachability is preserved.
func (e *Engine) Generate(sources []topo.ACLBinding) (*GenerateResult, error) {
	return e.GenerateContext(context.Background(), sources)
}

// GenerateContext is Generate under a cancellation scope: ctx's
// cancellation (and Options.Deadline) interrupts every solver in
// flight, and Options.PerFECBudget bounds each AEC/DEC query. Like fix,
// generation is all-or-nothing — if any AEC's query ends Unknown, no
// plan is emitted and the returned error is an *ErrUnknownVerdicts
// naming the blocking AEC indices in ascending order.
func (e *Engine) GenerateContext(callCtx context.Context, sources []topo.ACLBinding) (*GenerateResult, error) {
	o := e.obsv()
	ls := e.ledgerBegin()
	cn, endCall := e.beginCall(callCtx)
	defer endCall()
	root := e.startSpan("generate", obs.KV("sources", len(sources)))
	defer root.End() // idempotent; covers the error returns
	res := &GenerateResult{ACLs: map[string]*acl.ACL{}, Timings: Timings{}}

	srcSet := map[string]bool{}
	for _, b := range sources {
		srcSet[b.ID()] = true
	}
	tgtSet := map[string]bool{}
	var targetIDs []string
	for _, b := range e.Allow {
		if !tgtSet[b.ID()] {
			tgtSet[b.ID()] = true
			targetIDs = append(targetIDs, b.ID())
		}
	}
	sort.Strings(targetIDs)
	if len(targetIDs) == 0 {
		return nil, fmt.Errorf("core: generate needs at least one allowed target binding")
	}

	// Encoding bindings: every original ACL attachment in Ω (the columns
	// of Table 4a).
	encBindings := e.Before.ACLGroup(e.Scope)
	encIdx := map[string]int{}
	for i, b := range encBindings {
		encIdx[b.ID()] = i
	}

	// Phase 1: derive classes and group them into AECs (§5.1).
	dp := startPhase(root, res.Timings, "derive-aec")
	classes, err := e.deriveClasses()
	if err != nil {
		return nil, err
	}
	res.Classes = len(classes)
	aecs, err := e.deriveAECs(encBindings, classes)
	if err != nil {
		return nil, err
	}
	res.AECs = len(aecs)
	dp.end(obs.KV("classes", res.Classes), obs.KV("aecs", res.AECs))

	// Phase 2: solve each AEC, falling back to DECs (§5.2, §5.3). Each
	// AEC is solved on its own fresh solver, a pure function of the AEC,
	// so with Options.Workers > 1 the loop fans out across goroutines
	// and — after the deterministic AEC-order merge below — produces
	// output identical to the sequential loop.
	sp := startPhase(root, res.Timings, "solve")
	task := o.StartTask("generate: AECs", int64(len(aecs)))
	src := e.fecSource()
	paths := src.Paths()
	type aecOutcome struct {
		decSplit   bool
		stats      sat.Stats
		unsolvable []header.Match
		unknown    string
	}
	solveOne := func(a *aec) aecOutcome {
		var out aecOutcome
		ok, unk, st := e.solveAEC(cn, o, a, paths, encIdx, srcSet, tgtSet, targetIDs)
		out.stats.Add(st)
		if unk != "" {
			// Undecided is not unsatisfiable: a DEC split on an Unknown
			// verdict would be guesswork, so the AEC blocks the plan.
			out.unknown = unk
			return out
		}
		if ok {
			a.solved = true
			return out
		}
		// DEC split: group the AEC's classes by forwarding behavior — the
		// FEC their destination falls in (-1: no path forwards it).
		out.decSplit = true
		groups := map[int]*decGroup{}
		var order []int
		for _, c := range a.classes {
			key := src.FECOf(c.Dst)
			g, ok := groups[key]
			if !ok {
				g = &decGroup{}
				if key >= 0 {
					g.paths = src.Materialize(key).Paths
				}
				groups[key] = g
				order = append(order, key)
			}
			g.classes = append(g.classes, c)
		}
		for _, key := range order {
			g := groups[key]
			sub := &aec{key: a.key, classes: g.classes, decisions: a.decisions, ctrlIn: a.ctrlIn}
			ok, unk, st := e.solveAEC(cn, o, sub, g.paths, encIdx, srcSet, tgtSet, targetIDs)
			out.stats.Add(st)
			if unk != "" {
				out.unknown = unk
				return out
			}
			if !ok {
				out.unsolvable = append(out.unsolvable, g.classes...)
				continue
			}
			g.dec = sub.dec
			a.decs = append(a.decs, g)
		}
		return out
	}
	outcomes := make([]aecOutcome, len(aecs))
	workers := e.Opts.Workers
	if workers < 1 {
		workers = 1
	}
	runParallel(o, workers, len(aecs), func(_, i int) {
		outcomes[i] = solveOne(aecs[i])
		task.Add(1)
	})
	var blockedAECs []int
	for i, out := range outcomes {
		recordSolverStats(o, &res.SolverStats, out.stats)
		if out.decSplit {
			res.DECSplitAECs++
		}
		if out.unknown != "" {
			blockedAECs = append(blockedAECs, i)
		}
		res.Unsolvable = append(res.Unsolvable, out.unsolvable...)
	}
	task.Done()
	res.Conflicts = res.SolverStats.Conflicts
	sp.end(obs.KV("dec_splits", res.DECSplitAECs), obs.KV("unsolvable", len(res.Unsolvable)))

	if len(blockedAECs) > 0 {
		err := &ErrUnknownVerdicts{Stage: "generate", AECs: blockedAECs}
		e.logGenerateDecision(ls, nil, err)
		return nil, err
	}
	if len(res.Unsolvable) > 0 {
		// No valid plan for the intent (§5.3); report without synthesis.
		e.logGenerateDecision(ls, res, nil)
		return res, nil
	}

	// Phase 3: synthesize ACLs at each target (§5.4, with §5.5
	// optimizations).
	syp := startPhase(root, res.Timings, "synthesize")
	rows := e.buildRows(aecs, encBindings)
	for _, id := range targetIDs {
		synth := e.synthesizeTarget(id, rows)
		res.RulesGenerated += len(synth.Rules)
		if e.Opts.SimplifyOutput {
			synth = simplifyBounded(synth)
		}
		res.RulesAfterSimplify += len(synth.Rules)
		res.ACLs[id] = synth
	}
	syp.end(obs.KV("rules", res.RulesGenerated), obs.KV("rules_simplified", res.RulesAfterSimplify))

	// Build the generated network.
	gen := e.Before.Clone()
	for _, b := range sources {
		gb, err := lookupBinding(gen, b.ID())
		if err != nil {
			return nil, err
		}
		gb.Iface.SetACL(gb.Dir, acl.PermitAll())
	}
	for id, a := range res.ACLs {
		gb, err := lookupBinding(gen, id)
		if err != nil {
			return nil, err
		}
		gb.Iface.SetACL(gb.Dir, a)
	}
	res.Generated = gen

	// Verify: the generated snapshot must pass check. The verification
	// engine is derived from this one — same session, dependency index,
	// and verdict cache — so repeated generate/verify rounds in a session
	// re-solve only the FECs whose synthesized ACLs changed.
	vp := startPhase(root, res.Timings, "verify")
	ver := e.derived(gen, vp.sp)
	cr := ver.CheckContext(callCtx)
	res.Verified = cr.Consistent && cr.Complete
	// The verification check recorded its own sat.* metrics; fold its
	// counters into this primitive's aggregate too.
	res.SolverStats.Add(cr.SolverStats)
	res.Conflicts = res.SolverStats.Conflicts
	vp.end(obs.KV("verified", res.Verified))

	o.Counter("generate.classes").Add(int64(res.Classes))
	o.Counter("generate.aecs").Add(int64(res.AECs))
	o.Counter("generate.aecs.dec_split").Add(int64(res.DECSplitAECs))
	o.Counter("generate.rules").Add(int64(res.RulesGenerated))
	o.Counter("generate.rules.simplified").Add(int64(res.RulesAfterSimplify))
	root.SetAttr("verified", res.Verified)
	e.logGenerateDecision(ls, res, nil)
	return res, nil
}

// deriveAECs groups classes by their decision vector across the original
// ACLs plus their control membership (§5.1, extended per §6).
func (e *Engine) deriveAECs(encBindings []topo.ACLBinding, classes []header.Match) ([]*aec, error) {
	groups := map[string]*aec{}
	var order []string
	for _, c := range classes {
		decs := classDecisions(encBindings, c)
		var key strings.Builder
		for _, d := range decs {
			if d == acl.Permit {
				key.WriteByte('p')
			} else {
				key.WriteByte('d')
			}
		}
		ctrlIn := make([]bool, len(e.Controls))
		for i, ctrl := range e.Controls {
			switch {
			case ctrl.Match.Contains(c):
				ctrlIn[i] = true
				key.WriteByte('1')
			case !ctrl.Match.Overlaps(c):
				key.WriteByte('0')
			default:
				return nil, fmt.Errorf("core: class %v not atomic wrt control match %v", c, ctrl.Match)
			}
		}
		k := key.String()
		g, ok := groups[k]
		if !ok {
			g = &aec{key: k, decisions: decs, ctrlIn: ctrlIn}
			groups[k] = g
			order = append(order, k)
		}
		g.classes = append(g.classes, c)
	}
	out := make([]*aec, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k])
	}
	return out, nil
}

// solveAEC finds per-target decisions for one AEC (or DEC) over the given
// path set, per Equations 8–10. Decision variables are phrased as "deny"
// variables so that unconstrained targets default to permit (the SAT
// solver branches false-first). Returns ok=false when unsatisfiable, or
// unknown != "" (and ok=false) when the query reached no verdict under
// the call's budget/cancellation, along with the attempt's full solver
// counters.
func (e *Engine) solveAEC(cn *canceller, o *obs.Observer, a *aec, paths []topo.Path, encIdx map[string]int, srcSet, tgtSet map[string]bool, targetIDs []string) (ok bool, unknown string, st sat.Stats) {
	s := smt.NewSolver()
	cn.register(s)
	b := s.B
	denyVars := map[string]smt.F{}
	for _, id := range targetIDs {
		denyVars[id] = b.Var()
	}

	for _, p := range paths {
		lhs := smt.True
		for _, bind := range p.Bindings() {
			id := bind.ID()
			switch {
			case tgtSet[id]:
				lhs = b.And(lhs, denyVars[id].Not())
			case srcSet[id]:
				// Source interfaces permit all traffic after migration.
			default:
				if i, ok := encIdx[id]; ok {
					lhs = b.And(lhs, b.Const(a.decisions[i] == acl.Permit))
				}
			}
		}
		s.Assert(b.Iff(lhs, b.Const(e.desiredForAEC(a, p, encIdx))))
	}
	r := e.solveWithRetries(cn, s, o, faultinject.GenerateAEC, true)
	if r.Outcome == sat.Unknown {
		return false, r.Reason, s.Stats()
	}
	if r.Outcome != sat.Sat {
		return false, "", s.Stats()
	}
	a.dec = make(map[string]bool, len(targetIDs))
	for _, id := range targetIDs {
		a.dec[id] = !s.Value(denyVars[id])
	}
	return true, "", s.Stats()
}

// desiredForAEC computes the (constant) desired decision of path p on an
// AEC: the original path decision, overridden by the first applicable
// control whose match covers the class (§6).
func (e *Engine) desiredForAEC(a *aec, p topo.Path, encIdx map[string]int) bool {
	orig := true
	for _, bind := range p.Bindings() {
		if i, ok := encIdx[bind.ID()]; ok && a.decisions[i] == acl.Deny {
			orig = false
			break
		}
	}
	for i, ctrl := range e.Controls {
		if !ctrl.AppliesTo(p) || !a.ctrlIn[i] {
			continue
		}
		switch ctrl.Mode {
		case Isolate:
			return false
		case Open:
			return true
		case Maintain:
			return orig
		}
	}
	return orig
}
