package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/pset"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// This file pins what the check's set algebra reads of a FEC: its
// distinct path shapes. The reference is the per-path loop the check ran
// before shapes existed — one Equation-3 disjunct per path, in the set
// algebra and as a formula on a solver of its own — and the engine must
// reach its verdict on every FEC of every network below, at the default
// cube budget and at budgets low enough that many FECs split. The
// second half pins the split on the one input that overflows the default
// budget.

// refCubeBudget bounds the per-path set reference, which must not split:
// tests lower psetCubeBudget, never this.
const refCubeBudget = 512

// refShapeKey is a path's shape by definition: the set of encoded pairs it
// crosses, by content, and the controls governing it, in order.
func refShapeKey(e *Engine, ctx *checkCtx, p topo.Path) string {
	var pairs []string
	for _, b := range p.Bindings() {
		if ids, ok := ctx.ids[b.ID()]; ok {
			pairs = append(pairs, ctx.acls[ids[0]].String()+" => "+ctx.acls[ids[1]].String())
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	var ctrls []string
	for i, c := range e.Controls {
		if c.AppliesTo(p) {
			ctrls = append(ctrls, fmt.Sprint(i))
		}
	}
	return strings.Join(pairs, "\n") + "\n#" + strings.Join(ctrls, ",")
}

func shapeKey(ctx *checkCtx, sh checkShape) string {
	var pairs []string
	for _, pi := range sh.pairs {
		ids := ctx.encPairs[pi].ids
		pairs = append(pairs, ctx.acls[ids[0]].String()+" => "+ctx.acls[ids[1]].String())
	}
	slices.Sort(pairs)
	var ctrls []string
	for _, c := range sh.ctrls {
		ctrls = append(ctrls, fmt.Sprint(c))
	}
	return strings.Join(pairs, "\n") + "\n#" + strings.Join(ctrls, ",")
}

// refPathViolations is the per-path reference of violations: every
// path states its own disjunct, from its own walk over its bindings, and
// its sets are intersected over the whole class region, with no flip
// region and no shortcut for unchanged or agreeing pairs. The desired
// set folds every control on the path unconditionally — the Ite chain as
// desiredFormula states it, with no skip of controls that miss the
// region; with none it is the before set. It returns each path's
// desired ⊖ after, in path order; ok=false when an ACL's permitted set
// on the region overflows the cube budget.
func refPathViolations(e *Engine, ctx *checkCtx, fec topo.FEC) (flips []pset.Set, ok bool) {
	region := fecRegion(fec)
	walk := e.pathWalk(ctx)
	within := map[int32]pset.Set{} // by ACL-table ID: its permitted set ∩ region
	permitted := func(id int32) (pset.Set, bool) {
		s, ok := within[id]
		if !ok {
			if s, _, ok = pset.NewIndex(ctx.acls[id]).PermittedSetWithin(region, refCubeBudget); ok {
				within[id] = s
			}
		}
		return s, ok
	}
	for _, p := range fec.Paths {
		before, after := region, region
		for _, pi := range walk.crossed(nil, p) {
			ids := ctx.encPairs[pi].ids
			wb, bok := permitted(ids[0])
			wa, aok := permitted(ids[1])
			if !bok || !aok {
				return nil, false
			}
			before, after = before.Intersect(wb), after.Intersect(wa)
		}
		ctrls := e.ctrlsOn(p)
		desired := before
		for k := len(ctrls) - 1; k >= 0; k-- {
			c := e.Controls[ctrls[k]]
			val := before // Maintain
			switch c.Mode {
			case Isolate:
				val = pset.Empty()
			case Open:
				val = region
			}
			m := pset.FromMatch(c.Match)
			desired = m.Intersect(val).Union(desired.Subtract(m))
		}
		flips = append(flips, desired.Subtract(after).Union(after.Subtract(desired)))
	}
	return flips, true
}

// refPathsViolationFormula is Equation 3 with one disjunct per path, in
// path order, each path walking its own bindings by ID and each ACL in
// the sequential encoding: it shares neither shapes nor the tournament
// encoding with the engine.
func refPathsViolationFormula(e *Engine, ctx *checkCtx, b *smt.Builder, pv *smt.PacketVars, fec topo.FEC) smt.F {
	forms := map[int32]smt.F{}
	encode := func(id int32) smt.F {
		f, ok := forms[id]
		if !ok {
			f = ctx.acls[id].EncodeSeq(b, pv)
			forms[id] = f
		}
		return f
	}
	out := smt.False
	for _, p := range fec.Paths {
		before, after := smt.True, smt.True
		for _, bind := range p.Bindings() {
			pair, ok := ctx.ids[bind.ID()]
			if !ok {
				continue // no ACL in either snapshot
			}
			before = b.And(before, encode(pair[0]))
			after = b.And(after, encode(pair[1]))
		}
		desired := e.desiredFormula(b, pv, e.ctrlsOn(p), before)
		out = b.Or(out, b.Iff(desired, after).Not())
	}
	return b.And(out, classPred(b, pv, fec.Classes))
}

// refSATViolating decides the FEC with refPathsViolationFormula on a
// fresh builder and solver.
func refSATViolating(e *Engine, ctx *checkCtx, fec topo.FEC) bool {
	b := smt.NewBuilder()
	return smt.SolverOn(b).Solve(refPathsViolationFormula(e, ctx, b, b.NewPacketVars(), fec))
}

// refFlips reports whether path p decides pkt differently from its
// desired decision, read straight off the engine's snapshots: the path
// permits pkt iff every scoped ACL it crosses does, and the first
// control governing the path whose match covers pkt overrides the
// before decision.
func refFlips(e *Engine, p topo.Path, pkt header.Packet) bool {
	permits := func(n *topo.Network, b topo.ACLBinding) bool {
		if !e.Scope.ContainsDevice(b.Iface.Device.Name) {
			return true
		}
		i, err := n.LookupInterface(b.Iface.ID())
		if err != nil {
			return true
		}
		a := i.ACL(b.Dir)
		return a == nil || a.Permits(pkt)
	}
	before, after := true, true
	for _, b := range p.Bindings() {
		before = before && permits(e.Before, b)
		after = after && permits(e.After, b)
	}
	desired := before
	for _, c := range e.Controls {
		if c.AppliesTo(p) && c.Match.Matches(pkt) {
			switch c.Mode {
			case Isolate:
				desired = false
			case Open:
				desired = true
			}
			break
		}
	}
	return desired != after
}

type shapeStats struct {
	fecs, paths, shapes, ctrlShapes, violating, split int
}

func (st *shapeStats) add(o shapeStats) {
	st.fecs += o.fecs
	st.paths += o.paths
	st.shapes += o.shapes
	st.ctrlShapes += o.ctrlShapes
	st.violating += o.violating
	st.split += o.split
}

// checkShapesOn runs the property on every FEC of the engine's scope. At
// the default cube budget no FEC may split, and a violating FEC's witness
// is the reference's; under a lowered one (lowered) a split FEC's witness
// is the least packet of its first violating piece, which must lie in the
// reference's counterexamples.
func checkShapesOn(t *testing.T, name string, e *Engine, lowered bool) shapeStats {
	t.Helper()
	var st shapeStats
	ctx := e.checkContext()
	if ctx.fastPath {
		return st
	}
	e.prepareIncremental(ctx)
	for i := 0; i < ctx.nfec; i++ {
		fec := ctx.fec(i)
		shapes := e.compileShapes(ctx, fec)
		st.fecs++
		st.paths += len(fec.Paths)
		st.shapes += len(shapes)

		// Two paths share a shape iff they cross the same set of encoded
		// pairs under the same control list: the shapes' keys are the
		// paths' distinct keys, in first-occurrence order.
		var want []string
		seen := map[string]bool{}
		for _, p := range fec.Paths {
			if k := refShapeKey(e, ctx, p); !seen[k] {
				seen[k] = true
				want = append(want, k)
			}
		}
		var got []string
		for _, sh := range shapes {
			got = append(got, shapeKey(ctx, sh))
			if len(sh.ctrls) > 0 {
				st.ctrlShapes++
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: FEC %d: %d shapes, the paths have %d distinct (pair set, control list) keys\ngot  %q\nwant %q",
				name, i, len(got), len(want), got, want)
		}

		// Deciding over shapes gives the verdict of deciding over every
		// path, in the algebra and on the solver.
		satPaths := refSATViolating(e, ctx, fec)
		// The per-path sets agree with the solver, and their union is what
		// fix seeks in. A violating FEC's reference witness is the least
		// packet of the first violating path's desired ⊖ after.
		perPath, refOK := refPathViolations(e, ctx, fec)
		refUnion, refWit, refV := pset.Empty(), header.Packet{}, false
		for _, f := range perPath {
			refUnion = refUnion.Union(f)
			if !refV {
				refWit, refV = f.MinPacket()
			}
		}
		if refOK && refV != satPaths {
			t.Fatalf("%s: FEC %d: per-path set reference violating=%v, solver %v", name, i, refV, satPaths)
		}
		viol, ds, ok := e.violations(nil, ctx, fec, shapes, false)
		if !ok || ds.split && !lowered {
			t.Fatalf("%s: FEC %d: ok=%v split=%v at the default cube budget", name, i, ok, ds.split)
		}
		if v := !viol.IsEmpty(); v != satPaths {
			t.Fatalf("%s: FEC %d: violations over shapes violating=%v, per-path reference %v", name, i, v, satPaths)
		}
		all, dsAll, _ := e.violations(nil, ctx, fec, shapes, true)
		if refOK && !all.Equal(refUnion) {
			t.Fatalf("%s: FEC %d: counterexamples over shapes %v, over paths %v", name, i, all, refUnion)
		}
		if dsAll.split && !lowered {
			t.Fatalf("%s: FEC %d: the find-all union split at the default cube budget", name, i)
		}
		if ds.split || dsAll.split {
			st.split++
		}
		if !satPaths {
			continue
		}
		st.violating++

		// The witness is the reference's packet (or, split, one of the
		// reference's counterexamples), and its paths are exactly those
		// that flip on it.
		w, _ := e.witnessFor(ctx, i)
		if refOK && (!lowered && w.Packet != refWit || !refUnion.Contains(w.Packet)) {
			t.Fatalf("%s: FEC %d: witness %v, per-path reference %v", name, i, w.Packet, refWit)
		}
		var listed, flips []string
		for _, p := range w.Paths {
			listed = append(listed, p.Key())
		}
		for _, p := range fec.Paths {
			if refFlips(e, p, w.Packet) {
				flips = append(flips, p.Key())
			}
		}
		if !slices.Equal(listed, flips) {
			t.Fatalf("%s: FEC %d: witness %v lists paths %q, %q flip on it", name, i, w.Packet, listed, flips)
		}
	}
	return st
}

// TestCheckShapesMatchPerPathReference runs the property on every network
// three times, on fresh engines: at the default cube budget, and at
// budgets of two cubes and of one, where many FECs overflow and are
// split.
func TestCheckShapesMatchPerPathReference(t *testing.T) {
	var total, two, one shapeStats
	run := func(name string, mk func() *Engine) {
		t.Run(name, func(t *testing.T) {
			total.add(checkShapesOn(t, name, mk(), false))
			restore := SetCubeBudget(t, 2)
			two.add(checkShapesOn(t, name, mk(), true))
			restore()
			SetCubeBudget(t, 1)
			one.add(checkShapesOn(t, name, mk(), true))
		})
	}
	noDiff := DefaultOptions()
	noDiff.UseDifferential = false

	for _, c := range papernetFixCases() {
		run(c.name, c.mk)
	}
	for _, seed := range []int64{1, 2, 42} {
		for _, opts := range []Options{DefaultOptions(), noDiff} {
			w := netgen.Build(netgen.DefaultConfig(netgen.Small, seed))
			name := fmt.Sprintf("small-%d/diff=%v", seed, opts.UseDifferential)
			run(name+"/perturbed", func() *Engine { return New(w.Net, w.Perturb(seed, 3), w.Scope, opts) })
			// The same edit under the Fig. 4d controls: shapes now differ by
			// control list too, and the control branch decides most of them.
			run(name+"/perturbed+open-2", func() *Engine {
				e, _ := WANOpen(w, 2, opts)
				e.UpdateAfter(w.Perturb(seed, 3))
				return e
			})
		}
	}
	for seed := int64(0); seed < 240; seed++ {
		run(fmt.Sprintf("mesh-%d", seed), func() *Engine { return faultyMesh(seed) })
	}
	t.Logf("%d FECs, %d paths, %d shapes (%d under a control), %d violating; %d split at 2 cubes, %d at 1",
		total.fecs, total.paths, total.shapes, total.ctrlShapes, total.violating, two.split, one.split)
	if total.shapes >= total.paths || total.ctrlShapes == 0 || total.violating == 0 || total.violating == total.fecs {
		t.Fatalf("population too weak: %+v", total)
	}
	if two.split < 50 || one.split < 100 {
		t.Fatalf("%d FECs split at a budget of 2 cubes and %d at 1: want 50 and 100", two.split, one.split)
	}
}

// overflowNet is papernet with a field-diverse ACL at A:1: two source
// hosts, two source ports, two destination ports and a protocol denied,
// each on its own rule, leave 63 × 3 × 3 × 2 disjoint cubes of any
// destination region permitted — past the 512-cube budget wherever the
// algebra has to build that set. The update also denies traffic 1 there,
// so the set has to be built on the whole of 1/8.
//
// fixable trades the protocol rule for a third destination port, which
// leaves 63 × 3 × 4 cubes, still past the budget: fix widens a
// neighborhood's protocol to all or keeps it exact, so a denied protocol
// leaves one neighborhood per protocol number, past fix's neighborhood
// cap.
func overflowNet(fixable bool) (before, after *topo.Network) {
	diverse := "deny src 10.1.2.3/32, deny src 10.9.8.7/32, deny sport 100, deny sport 200, " +
		"deny dport 300, deny dport 400, deny proto 6, deny dst 6.0.0.0/8, "
	if fixable {
		diverse = strings.Replace(diverse, "deny proto 6", "deny dport 500", 1)
	}
	before = papernet.Build()
	a1, _ := before.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse(diverse+"permit all"))
	after = before.Clone()
	a1, _ = after.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse(diverse+"deny dst 1.0.0.0/8, permit all"))
	return before, after
}

// TestPsetOverflowFallsBackToSAT pins the split on overflowNet at the
// default cube budget — the name predates the split, which replaced the
// SAT fallback. With and without a control on the overflowing FEC, and in
// both modes, some FEC must split (route pset-split, counted in
// PsetBailout), every examined FEC's verdict must equal the per-path SAT
// reference's, and the check must stay fast. Fix, on the fixable variant,
// must find a plan that verifies in the split's counterexamples.
func TestPsetOverflowFallsBackToSAT(t *testing.T) {
	maintain2 := Control{
		From: map[string]bool{"A:1": true}, To: map[string]bool{"D:3": true},
		Mode: Maintain, Match: header.DstMatch(papernet.Traffic(2)),
	}
	for _, c := range []struct {
		name     string
		controls []Control
	}{
		{"control-free", nil},
		{"under-a-control", []Control{maintain2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			engine := func(findAll, fixable bool) *Engine {
				before, after := overflowNet(fixable)
				opts := DefaultOptions()
				opts.FindAllViolations = findAll
				opts.Forensics = true
				e := New(before, after, papernet.Scope(), opts)
				e.Controls = c.controls
				e.Allow = allBindings(before, "A", "B", "C", "D")
				return e
			}
			ref := engine(true, false)
			refCtx := ref.checkContext()
			for _, findAll := range []bool{true, false} {
				start := time.Now()
				res := engine(findAll, false).Check()
				took := time.Since(start)
				if res.Stats.PsetBailout < 1 || !res.Complete || res.Consistent {
					t.Fatalf("findAll=%v: want an inconsistent, complete check with a split FEC: %+v", findAll, res.Stats)
				}
				split := 0
				for _, f := range res.Forensics {
					if f.Route == "pset-split" {
						split++
					}
					if f.Route != "pset" && f.Route != "pset-split" {
						continue
					}
					want := "consistent"
					if refSATViolating(ref, refCtx, ref.FECs()[f.FEC]) {
						want = "violating"
					}
					if f.Verdict != want {
						t.Errorf("findAll=%v: FEC %d %s, the SAT reference %s", findAll, f.FEC, f.Verdict, want)
					}
				}
				if int64(split) != res.Stats.PsetBailout {
					t.Errorf("findAll=%v: %d FECs on route pset-split, Stats.PsetBailout=%d", findAll, split, res.Stats.PsetBailout)
				}
				if took > 500*time.Millisecond {
					t.Errorf("findAll=%v: the check took %v", findAll, took)
				}
				t.Logf("findAll=%v: %d split of %d solved FECs in %v", findAll, split, res.SolvedFECs, took)
			}
			e := engine(true, true)
			start := time.Now()
			fix, err := e.Fix()
			if err != nil {
				t.Fatal(err)
			}
			if fix.Stats.PsetBailout < 1 || !fix.Verified || len(fix.Actions) == 0 || len(fix.Unfixable) != 0 {
				t.Fatalf("fix: %+v, verified=%v, %d actions, %d unfixable", fix.Stats, fix.Verified, len(fix.Actions), len(fix.Unfixable))
			}
			t.Logf("fix: %d neighborhoods, %d actions in %v", len(fix.Neighborhoods), len(fix.Actions), time.Since(start))
		})
	}
}

// TestFaultCancelledSplitIsUnknown pins the split's canceller poll: under
// a cancelled call, resolveFEC leaves every FEC it reaches — the one
// whose region splits included — Unknown("cancelled") and uncached, and
// the next call on the same engine decides them as a cold check does.
func TestFaultCancelledSplitIsUnknown(t *testing.T) {
	maintain2 := Control{
		From: map[string]bool{"A:1": true}, To: map[string]bool{"D:3": true},
		Mode: Maintain, Match: header.DstMatch(papernet.Traffic(2)),
	}
	engine := func() *Engine {
		before, after := overflowNet(false)
		opts := DefaultOptions()
		opts.FindAllViolations = true
		opts.Forensics = true
		opts.Verdicts = NewVerdictCache()
		e := New(before, after, papernet.Scope(), opts)
		e.Controls = []Control{maintain2}
		return e
	}
	cold := engine().Check()

	e := engine()
	ctx := e.checkContext()
	e.prepareIncremental(ctx)
	cn := &canceller{}
	cn.cancel()
	c := &solveCall{cn: cn, ctx: ctx}
	reached := 0
	for _, f := range cold.Forensics {
		if f.Route != "pset" && f.Route != "pset-split" {
			continue
		}
		reached++
		if st := e.resolveFEC(c, f.FEC); st != fecUnknown || ctx.unknownReason[f.FEC] != reasonCancelled || ctx.entries[f.FEC] != nil {
			t.Fatalf("FEC %d (route %s) under a cancelled call: state %d, reason %q, cached %v",
				f.FEC, f.Route, st, ctx.unknownReason[f.FEC], ctx.entries[f.FEC] != nil)
		}
	}
	if reached == 0 || cold.Stats.PsetBailout == 0 {
		t.Fatalf("the cold check split no FEC: %+v", cold.Stats)
	}
	if got, want := fmt.Sprint(e.Check().Violations), fmt.Sprint(cold.Violations); got != want {
		t.Fatalf("the next call's violations %s, a cold check's %s", got, want)
	}
}
