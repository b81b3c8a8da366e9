package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"jinjing/internal/acl"
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
	// generated ACLs" comparison). With simplification on, the "before"
	// is counted, not built: repeated rule groups are emitted at their
	// first and last position only (buildRows).
	RulesGenerated     int
	RulesAfterSimplify int

	Verified bool
	// SolverStats aggregates the full SAT counters across every solver
	// the generation spun up: one per AEC/DEC solving attempt (the
	// verification check runs none).
	SolverStats sat.Stats
}

// aec is one ACL equivalence class with its solving state.
type aec struct {
	classes []header.Match
	// decisions is the vector of original-ACL decisions across the
	// encoding bindings (the class signature).
	decisions []acl.Action
	// ctrlIn[i] reports whether the class lies inside control i's match.
	ctrlIn []bool
	// hits[i] lists the distinct first-match rule positions of the member
	// classes in encoding binding i's ACL (len(Rules) for the default), in
	// first-seen order: all that synthesis needs of the classes × bindings
	// lookups deriveAECs makes.
	hits [][]int32

	solved bool            // true when one decision per target suffices
	dec    map[string]bool // target binding ID -> permit?
	decs   []*decGroup     // DEC-level decisions when !solved
}

// decGroup is one dataplane equivalence class of an AEC: the member
// classes sharing a forwarding behavior, with their own decisions.
type decGroup struct {
	classes []header.Match
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
	res := &GenerateResult{ACLs: map[string]*acl.ACL{}}

	// Every failure is recorded in the decision ledger.
	fail := func(err error) (*GenerateResult, error) {
		e.logGenerateDecision(ls, nil, err)
		return nil, err
	}

	if len(e.Allow) == 0 {
		return fail(fmt.Errorf("core: generate needs at least one allowed target binding"))
	}
	// Encoding bindings: every original ACL attachment in Ω (the columns
	// of Table 4a).
	encBindings := e.Before.ACLGroup(e.Scope)

	// Phase 1: derive classes and group them into AECs (§5.1).
	dp := root.Child("derive-aec")
	classes, err := e.deriveClasses()
	if err != nil {
		return fail(err)
	}
	res.Classes = len(classes)
	aecs, err := e.deriveAECs(encBindings, classes)
	if err != nil {
		return fail(err)
	}
	res.AECs = len(aecs)
	atoms := dstAtoms(classes)
	o.Gauge("generate.dst_atoms").Set(int64(atoms))
	dp.End(obs.KV("classes", res.Classes), obs.KV("aecs", res.AECs), obs.KV("dst_atoms", atoms))

	// Phase 2: solve each AEC, falling back to DECs (§5.2, §5.3). Each
	// AEC is solved on its own fresh solver, a pure function of the AEC,
	// so with Options.Workers > 1 the loop fans out across goroutines
	// and — after the deterministic AEC-order merge below — produces
	// output identical to the sequential loop.
	sp := root.Child("solve")
	task := o.StartTask("generate: AECs", int64(len(aecs)))
	src := e.fecSource()
	ix := e.compileGenerate(src.Paths(), sources, encBindings)
	type aecOutcome struct {
		decSplit   bool
		stats      sat.Stats
		unsolvable []header.Match
		unknown    string
	}
	solveOne := func(a *aec) aecOutcome {
		var out aecOutcome
		ok, unk, st := e.solveAEC(cn, o, ix, a, ix.allShapes)
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
				groups[key] = g
				order = append(order, key)
			}
			g.classes = append(g.classes, c)
		}
		for _, key := range order {
			g := groups[key]
			var shapes []int32
			if key >= 0 {
				shapes = ix.shapesOn(src.PathIndices(key))
			}
			sub := &aec{decisions: a.decisions, ctrlIn: a.ctrlIn}
			ok, unk, st := e.solveAEC(cn, o, ix, sub, shapes)
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
	runParallel(o, workers, len(aecs), func(i int) {
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
	o.Gauge("generate.path_shapes").Set(int64(len(ix.shapes)))
	sp.End(obs.KV("dec_splits", res.DECSplitAECs), obs.KV("unsolvable", len(res.Unsolvable)),
		obs.KV("paths", len(ix.shapeOf)), obs.KV("path_shapes", len(ix.shapes)))

	if len(blockedAECs) > 0 {
		return fail(&ErrUnknownVerdicts{Stage: "generate", AECs: blockedAECs})
	}
	if len(res.Unsolvable) > 0 {
		// No valid plan for the intent (§5.3); report without synthesis.
		e.logGenerateDecision(ls, res, nil)
		return res, nil
	}

	// Phase 3: synthesize ACLs at each target (§5.4, with §5.5
	// optimizations).
	syp := root.Child("synthesize")
	table, err := e.buildRows(aecs, encBindings)
	if err != nil {
		return fail(err)
	}
	for _, id := range ix.targetIDs {
		synth, generated := e.synthesizeTarget(id, table)
		res.RulesGenerated += generated
		if e.Opts.OptimizeSynthesis {
			synth, _ = simplifyBounded(synth)
		}
		res.RulesAfterSimplify += len(synth.Rules)
		res.ACLs[id] = synth
	}
	rows := table.vectors()
	o.Gauge("generate.rows").Set(int64(rows))
	o.Gauge("generate.row_entries").Set(int64(len(table.rows)))
	syp.End(obs.KV("rules", res.RulesGenerated), obs.KV("rules_simplified", res.RulesAfterSimplify),
		obs.KV("rows", rows), obs.KV("row_entries", len(table.rows)))

	// Build the generated network.
	gen := e.Before.Clone()
	for _, b := range sources {
		gb, err := lookupBinding(gen, b.ID())
		if err != nil {
			return fail(err)
		}
		gb.Iface.SetACL(gb.Dir, acl.PermitAll())
	}
	for id, a := range res.ACLs {
		gb, err := lookupBinding(gen, id)
		if err != nil {
			return fail(err)
		}
		gb.Iface.SetACL(gb.Dir, a)
	}
	res.Generated = gen

	// Verify: the generated snapshot must pass check. The verification
	// engine is derived from this one — same binding index, ACL table
	// and verdict cache, when one is installed — so repeated
	// generate/verify rounds in a session re-solve only the FECs whose
	// synthesized ACLs changed.
	vp := root.Child("verify")
	ver := e.derived(gen, vp)
	cr := ver.CheckContext(callCtx)
	res.Verified = cr.Consistent && cr.Complete
	// The verification check recorded its own sat.* metrics; fold its
	// counters into this primitive's aggregate too.
	res.SolverStats.Add(cr.SolverStats)
	vp.End(obs.KV("verified", res.Verified))

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
// ACLs plus their control membership (§5.1, extended per §6). It makes
// generate's one first-match pass: the first rule of every encoding
// binding containing each class gives the class's decision there (the
// signature) and is recorded on the class's AEC for synthesis (aec.hits).
// Classes are atomic with respect to every in-scope rule by construction
// (deriveClasses), so the first containing rule is the first matching one.
// Bindings carrying one ACL content share its table ID, and the class is
// looked up once per distinct ID.
//
// What depends on a class's destination alone is computed once per
// destination atom, whenever the destination changes from the previous
// class: each distinct ACL's candidate rules (one trie walk) and the
// controls whose destination is disjoint from the atom, which are '0' for
// all its classes. A class then scans its atom's candidates and tests
// the remaining controls, and one with the same hits and control bits as
// the class before it joins that class's AEC.
func (e *Engine) deriveAECs(encBindings []topo.ACLBinding, classes []header.Match) ([]*aec, error) {
	tab := e.aclTable()
	local := map[int32]int{}               // table ID -> index into indexers
	aclOf := make([]int, len(encBindings)) // binding -> index into indexers
	var indexers []*hitIndexer
	for i, b := range encBindings {
		a := b.Iface.ACL(b.Dir)
		id := tab.intern(a)
		k, ok := local[id]
		if !ok {
			k = len(indexers)
			local[id] = k
			indexers = append(indexers, newHitIndexer(a, e.Opts.OptimizeSynthesis))
		}
		aclOf[i] = k
	}
	groups := map[string]*aec{}
	var out []*aec
	nEnc := len(encBindings)
	atom := make([]atomHits, len(indexers))
	var ctrls []int // controls whose destination overlaps the atom
	var g *aec      // the previous class's AEC; nil on a new atom
	hits := make([]int32, nEnc)
	hitOf := make([]int32, len(indexers))
	key := make([]byte, nEnc+len(e.Controls))
	for ci, c := range classes {
		if ci == 0 || c.Dst != classes[ci-1].Dst {
			for k, h := range indexers {
				h.walk(c.Dst, &atom[k])
			}
			ctrls = ctrls[:0]
			for j, ctrl := range e.Controls {
				if ctrl.Match.Dst.Overlaps(c.Dst) {
					ctrls = append(ctrls, j)
				} else {
					key[nEnc+j] = '0'
				}
			}
			g = nil
		}
		same := g != nil
		for k, h := range indexers {
			hit := h.hit(&atom[k], c)
			same = same && hit == hitOf[k]
			hitOf[k] = hit
		}
		for _, j := range ctrls {
			m := e.Controls[j].Match
			bit := byte('0')
			switch {
			case m.Contains(c):
				bit = '1'
			case m.Overlaps(c):
				return nil, fmt.Errorf("core: class %v not atomic wrt control match %v", c, m)
			}
			same = same && key[nEnc+j] == bit
			key[nEnc+j] = bit
		}
		if !same {
			for i, k := range aclOf {
				hits[i] = hitOf[k]
				if indexers[k].action(int(hitOf[k])) == acl.Permit {
					key[i] = 'p'
				} else {
					key[i] = 'd'
				}
			}
			var ok bool
			if g, ok = groups[string(key)]; !ok {
				g = &aec{
					decisions: make([]acl.Action, nEnc),
					ctrlIn:    make([]bool, len(e.Controls)),
					hits:      make([][]int32, nEnc),
				}
				for i := range g.decisions {
					g.decisions[i] = key[i] == 'p'
				}
				for i := range g.ctrlIn {
					g.ctrlIn[i] = key[nEnc+i] == '1'
				}
				groups[string(key)] = g
				out = append(out, g)
			}
			for i, hit := range hits {
				if !slices.Contains(g.hits[i], hit) {
					g.hits[i] = append(g.hits[i], hit)
				}
			}
		}
		g.classes = append(g.classes, c)
	}
	return out, nil
}

// genIndex is what one GenerateContext call resolves before its AEC loop:
// everything Equations 8–10 need of the network that does not depend on
// the AEC. A path enters an AEC's constraint only through which targets,
// sources and ACL-carrying bindings it crosses and which controls govern
// it — its shape — and a WAN's thousands of paths share a few dozen, so
// solveAEC asserts one constraint per shape. Read-only once built: the
// AEC loop shares it across workers.
type genIndex struct {
	targetIDs []string    // distinct Allow binding IDs, sorted
	controls  []Control   // the engine's, for their modes
	shapes    []pathShape // distinct, in first-occurrence order over the paths
	shapeSet              // per path: its index into shapes
	allShapes []int32     // 0..len(shapes)-1: the shapes of the full path set
}

// pathShape is the part of a path the AEC constraint reads. Every list is
// in traversal order except ctrls, which is in control (precedence) order.
type pathShape struct {
	targets []int32 // target bindings crossed, as indices into targetIDs
	others  []int32 // encoding bindings crossed that are neither target nor source
	enc     []int32 // every encoding binding crossed (the original path decision)
	ctrls   []int32 // controls applying to the path's (entry, exit) pair
}

// compileGenerate builds the index: each binding is resolved to its roles
// once, each (entry, exit) border pair to its controls once (pathInterner),
// and each path to a shape by integer walks over those.
func (e *Engine) compileGenerate(paths []topo.Path, sources, encBindings []topo.ACLBinding) *genIndex {
	ix := &genIndex{controls: e.Controls}
	type role struct {
		target, enc int32 // -1: not one
		source      bool
	}
	var roles []role
	roleOf := map[string]int32{}
	roleFor := func(id string) *role {
		i, ok := roleOf[id]
		if !ok {
			i = int32(len(roles))
			roleOf[id] = i
			roles = append(roles, role{target: -1, enc: -1})
		}
		return &roles[i]
	}
	for _, b := range e.Allow {
		ix.targetIDs = append(ix.targetIDs, b.ID())
	}
	sort.Strings(ix.targetIDs)
	ix.targetIDs = slices.Compact(ix.targetIDs)
	for i, id := range ix.targetIDs {
		roleFor(id).target = int32(i)
	}
	for _, b := range sources {
		roleFor(b.ID()).source = true
	}
	for i, b := range encBindings {
		roleFor(b.ID()).enc = int32(i)
	}

	walk := newPathInterner(e.Controls, func(id string) int32 {
		if i, ok := roleOf[id]; ok {
			return i
		}
		return -1 // a binding in no set
	})
	var sh pathShape
	var crossed []int32
	for _, p := range paths {
		crossed = walk.crossed(crossed[:0], p)
		sh.targets, sh.others, sh.enc = sh.targets[:0], sh.others[:0], sh.enc[:0]
		for _, ri := range crossed {
			r := &roles[ri]
			if r.enc >= 0 {
				sh.enc = append(sh.enc, r.enc)
			}
			switch {
			case r.target >= 0:
				sh.targets = append(sh.targets, r.target)
			case r.source:
				// Source interfaces permit all traffic after migration.
			case r.enc >= 0:
				sh.others = append(sh.others, r.enc)
			}
		}
		sh.ctrls = walk.ctrls(p)
		if si, fresh := ix.add(sh.targets, sh.others, sh.enc, sh.ctrls); fresh {
			ix.allShapes = append(ix.allShapes, si)
			ix.shapes = append(ix.shapes, pathShape{
				targets: slices.Clone(sh.targets), others: slices.Clone(sh.others),
				enc: slices.Clone(sh.enc), ctrls: sh.ctrls,
			})
		}
	}
	return ix
}

// constraint builds the Equation 8–10 constraint of one shape for an AEC:
// the conjunction of the crossed bindings' post-generation decisions —
// the target's decision variable, permit at a source, the AEC's original
// decision elsewhere — must equal the desired decision, which is the
// original path decision unless the first applicable control whose match
// covers the AEC says otherwise (§6).
func (ix *genIndex) constraint(b *smt.Builder, denyVars []smt.F, a *aec, sh *pathShape) smt.F {
	lhs := smt.True
	for _, t := range sh.targets {
		lhs = b.And(lhs, denyVars[t].Not())
	}
	for _, i := range sh.others {
		lhs = b.And(lhs, b.Const(a.decisions[i] == acl.Permit))
	}
	desired := true
	for _, i := range sh.enc {
		if a.decisions[i] == acl.Deny {
			desired = false
			break
		}
	}
	for _, i := range sh.ctrls {
		if !a.ctrlIn[i] {
			continue
		}
		switch ix.controls[i].Mode {
		case Isolate:
			desired = false
		case Open:
			desired = true
		}
		break // Maintain keeps the original decision
	}
	return b.Iff(lhs, b.Const(desired))
}

// solveAEC finds per-target decisions for one AEC (or DEC) over the paths
// of the given shapes, per Equations 8–10. Decision variables are phrased
// as "deny" variables so that unconstrained targets default to permit (the
// SAT solver branches false-first). Returns ok=false when unsatisfiable, or
// unknown != "" (and ok=false) when the query reached no verdict under
// the call's budget/cancellation, along with the attempt's full solver
// counters.
func (e *Engine) solveAEC(cn *canceller, o *obs.Observer, ix *genIndex, a *aec, shapes []int32) (ok bool, unknown string, st sat.Stats) {
	s := smt.NewSolver()
	cn.register(s)
	denyVars := make([]smt.F, len(ix.targetIDs))
	for i := range denyVars {
		denyVars[i] = s.B.Var()
	}
	for _, si := range shapes {
		s.Assert(ix.constraint(s.B, denyVars, a, &ix.shapes[si]))
	}
	r := e.solveWithRetries(cn, s, o)
	if r.Outcome == sat.Unknown {
		return false, r.Reason, s.Stats()
	}
	if r.Outcome != sat.Sat {
		return false, "", s.Stats()
	}
	a.dec = make(map[string]bool, len(ix.targetIDs))
	for i, id := range ix.targetIDs {
		a.dec[id] = !s.Value(denyVars[i])
	}
	return true, "", s.Stats()
}
