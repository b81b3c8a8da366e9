package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/faultinject"
	"jinjing/internal/header"
	"jinjing/internal/obs"
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

	solved bool        // true when one decision per target suffices
	dec    []bool      // per target (genIndex.targets): permit?
	decs   []*decGroup // DEC-level decisions when !solved
}

// decGroup is one dataplane equivalence class of an AEC: the member
// classes sharing a forwarding behavior, with their own decisions.
type decGroup struct {
	classes []header.Match
	dec     []bool
}

// Generate runs the generate primitive (§5): it removes the ACLs at
// sources (setting them to permit-all) and synthesizes new ACLs at the
// engine's Allow bindings so that packet (or desired, under controls)
// reachability is preserved.
func (e *Engine) Generate(sources []topo.ACLBinding) (*GenerateResult, error) {
	return e.GenerateContext(context.Background(), sources)
}

// GenerateContext is Generate under a cancellation scope: once ctx is
// cancelled (or Options.Deadline passes) no further AEC is decided. Like
// fix, generation is all-or-nothing — if any AEC is left undecided, no
// plan is emitted and the returned error is an *ErrUnknownVerdicts
// naming the blocking AECs in ascending order.
func (e *Engine) GenerateContext(callCtx context.Context, sources []topo.ACLBinding) (*GenerateResult, error) {
	o := e.obsv()
	ls := e.ledgerBegin()
	call, endCall := e.beginCall(callCtx)
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
	// AEC's decisions are a pure function of the AEC, so with
	// Options.Workers > 1 the loop fans out across goroutines and — after
	// the deterministic AEC-order merge below — produces output identical
	// to the sequential loop. The call's cancellation is polled, and the
	// GenerateAEC fault site fired, once per AEC.
	sp := root.Child("solve")
	task := o.StartTask("generate: AECs", int64(len(aecs)))
	src := e.fecSource()
	ix, err := e.compileGenerate(src.Paths(), sources, encBindings)
	if err != nil {
		return fail(err)
	}
	type aecOutcome struct {
		decSplit   bool
		unsolvable []header.Match
		unknown    string
	}
	solveOne := func(a *aec) aecOutcome {
		var out aecOutcome
		var pl placement
		if call.Err() != nil {
			out.unknown = reasonCancelled
			return out
		}
		// Undecided is not unsatisfiable: a DEC split on an Unknown
		// verdict would be guesswork, so the AEC blocks the plan.
		if out.unknown = faultReason(faultinject.GenerateAEC); out.unknown != "" {
			return out
		}
		if dec, ok := ix.decide(&pl, a, ix.allShapes); ok {
			a.solved, a.dec = true, dec
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
			var ok bool
			if g.dec, ok = ix.decide(&pl, a, shapes); !ok {
				out.unsolvable = append(out.unsolvable, g.classes...)
				continue
			}
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
	var blockedAECs []UnknownAEC
	for i, out := range outcomes {
		if out.decSplit {
			res.DECSplitAECs++
		}
		if out.unknown != "" {
			blockedAECs = append(blockedAECs, UnknownAEC{AEC: i, Reason: out.unknown})
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
	for t := range ix.targets {
		synth, generated := e.synthesizeTarget(t, table)
		res.RulesGenerated += generated
		if e.Opts.OptimizeSynthesis {
			synth, _ = simplifyBounded(synth)
		}
		res.RulesAfterSimplify += len(synth.Rules)
		res.ACLs[ix.targetIDs[t]] = synth
	}
	rows := table.vectors()
	o.Gauge("generate.rows").Set(int64(rows))
	o.Gauge("generate.row_entries").Set(int64(len(table.rows)))
	syp.End(obs.KV("rules", res.RulesGenerated), obs.KV("rules_simplified", res.RulesAfterSimplify),
		obs.KV("rows", rows), obs.KV("row_entries", len(table.rows)))

	// Build the generated network.
	gen := e.Before.Clone()
	for _, b := range sources {
		gb, err := moveBinding(b, gen)
		if err != nil {
			return fail(err)
		}
		gb.Iface.SetACL(gb.Dir, acl.PermitAll())
	}
	for t, b := range ix.targets {
		gb, err := moveBinding(b, gen)
		if err != nil {
			return fail(err)
		}
		gb.Iface.SetACL(gb.Dir, res.ACLs[ix.targetIDs[t]])
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
			h := &hitIndexer{acl: a}
			if e.Opts.OptimizeSynthesis {
				h.acl, h.tree = tab.index(id)
			}
			indexers = append(indexers, h)
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
			for j := range e.Controls {
				if e.Controls[j].Match.Dst.Overlaps(c.Dst) {
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
// decide reads one constraint per shape. Read-only once built: the AEC
// loop shares it across workers.
type genIndex struct {
	targets   []topo.ACLBinding // distinct Allow bindings, on Before, in name order
	targetIDs []string          // their names
	controls  []Control         // the engine's, for their modes
	noDenies  []bool            // per target: false, as no target denies before the plan
	shapes    []pathShape       // distinct, in first-occurrence order over the paths
	shapeSet                    // per path: its index into shapes
	allShapes []int32           // 0..len(shapes)-1: the shapes of the full path set
}

// pathShape is the part of a path the AEC constraint reads. Every list is
// in traversal order except ctrls, which is in control (precedence) order.
type pathShape struct {
	targets []int32 // target bindings crossed, as indices into genIndex.targets
	others  []int32 // encoding bindings crossed that are neither target nor source
	enc     []int32 // every encoding binding crossed (the original path decision)
	ctrls   []int32 // controls applying to the path's (entry, exit) pair
}

// compileGenerate builds the index: each binding's roles are set once, in
// a table over Before's bindings, where the paths run (the sources, which
// are the After snapshot's, move there by name), and each path is reduced
// to a shape by an integer walk over it.
func (e *Engine) compileGenerate(paths []topo.Path, sources, encBindings []topo.ACLBinding) (*genIndex, error) {
	targets, ids, err := e.generateTargets()
	if err != nil {
		return nil, err
	}
	ix := &genIndex{targets: targets, targetIDs: ids, controls: e.Controls, noDenies: make([]bool, len(targets))}
	type role struct {
		target, enc int32 // 1 + index; 0: not one
		source      bool
	}
	var roles bindingTable[role]
	for t, b := range ix.targets {
		roles.at(b).target = int32(t) + 1
	}
	for _, b := range sources {
		if b, err := moveBinding(b, e.Before); err == nil {
			roles.at(b).source = true
		}
	}
	for i, b := range encBindings {
		roles.at(b).enc = int32(i) + 1
	}

	var sh pathShape
	ctrlsOf := map[uint64][]int32{}
	for _, p := range paths {
		at := roles.of(p)
		sh.targets, sh.others, sh.enc = sh.targets[:0], sh.others[:0], sh.enc[:0]
		for _, h := range p.Hops {
			for _, b := range [2]topo.ACLBinding{{Iface: h.In, Dir: topo.In}, {Iface: h.Out, Dir: topo.Out}} {
				r := at[bindingOrd(b)]
				if r.enc > 0 {
					sh.enc = append(sh.enc, r.enc-1)
				}
				switch {
				case r.target > 0:
					sh.targets = append(sh.targets, r.target-1)
				case r.source:
					// Source interfaces permit all traffic after migration.
				case r.enc > 0:
					sh.others = append(sh.others, r.enc-1)
				}
			}
		}
		sh.ctrls = e.ctrlsOn(ctrlsOf, p)
		if si, fresh := ix.add(sh.targets, sh.others, sh.enc, sh.ctrls); fresh {
			ix.allShapes = append(ix.allShapes, si)
			ix.shapes = append(ix.shapes, pathShape{
				targets: slices.Clone(sh.targets), others: slices.Clone(sh.others),
				enc: slices.Clone(sh.enc), ctrls: sh.ctrls,
			})
		}
	}
	return ix, nil
}

// generateTargets returns the distinct Allow bindings, moved to Before,
// and their names, in name order: the generated ACLs are reported by
// name, and denyTargets breaks ties by this order.
func (e *Engine) generateTargets() ([]topo.ACLBinding, []string, error) {
	var ts []topo.ACLBinding
	for _, b := range e.Allow {
		b, err := moveBinding(b, e.Before)
		if err != nil {
			return nil, nil, err
		}
		ts = append(ts, b)
	}
	slices.SortFunc(ts, func(x, y topo.ACLBinding) int { return strings.Compare(x.ID(), y.ID()) })
	ts = slices.Compact(ts)
	ids := make([]string, len(ts))
	for t, b := range ts {
		ids[t] = b.ID()
	}
	return ts, ids, nil
}

// decide finds per-target decisions (permit?) for one AEC, or a DEC group
// of it, over the paths of the given shapes, per Equations 8–10, on pl;
// ok is false when none exist. The targets are the changeable bindings,
// each permitting until the plan says otherwise; a binding outside the
// targets and sources denying the AEC is a closed deny; the sources
// permit all after migration. denyTargets picks the denying targets.
func (ix *genIndex) decide(pl *placement, a *aec, shapes []int32) (dec []bool, ok bool) {
	pl.denies, pl.shapes, pl.members = ix.noDenies, slices.Grow(pl.shapes[:0], len(shapes)), pl.members[:0]
	for _, si := range shapes {
		sh := &ix.shapes[si]
		pl.shapes = append(pl.shapes, placeShape{
			desired:    ix.desired(a, sh),
			closedDeny: slices.ContainsFunc(sh.others, func(i int32) bool { return a.decisions[i] == acl.Deny }),
			free:       sh.targets,
		})
	}
	if !pl.reduce() {
		return nil, false
	}
	dec = denyTargets(len(ix.targets), pl.clauses)
	for t, d := range dec {
		dec[t] = !d
	}
	return dec, true
}

// desired is a shape's desired decision for an AEC: the original path
// decision, unless a control covering the AEC says otherwise (§6).
func (ix *genIndex) desired(a *aec, sh *pathShape) bool {
	orig := !slices.ContainsFunc(sh.enc, func(i int32) bool { return a.decisions[i] == acl.Deny })
	return controlled(ix.controls, sh.ctrls, a.ctrlIn, orig)
}
