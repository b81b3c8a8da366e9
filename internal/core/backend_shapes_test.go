package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"jinjing/internal/acl"
	"jinjing/internal/faultinject"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/pset"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// This file pins what the check's complete procedures read of a FEC: its
// distinct path shapes. The reference is the per-path loop the procedures
// ran before shapes existed — one Equation-3 disjunct per path, in the
// set algebra and as a formula — and the engine must reach its verdict on
// every FEC of every network below. The second half pins the overflow
// route: the cube budget, not a predictor, is what sends a FEC to the
// solver, and a FEC sent there must come out exactly as when every
// FEC's pset attempt is bailed out (faultinject.CheckPset).

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
			if s, _, ok = pset.NewIndex(ctx.acls[id]).PermittedSetWithin(region, psetCubeBudget); ok {
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
// path order, each path walking its own bindings by ID: the per-path
// form the shapes formula must be equivalent to.
func refPathsViolationFormula(e *Engine, enc *encoder, ctx *checkCtx, fec topo.FEC) smt.F {
	out := smt.False
	for _, p := range fec.Paths {
		before, after := smt.True, smt.True
		for _, b := range p.Bindings() {
			pair, ok := ctx.ids[b.ID()]
			if !ok {
				continue // no ACL in either snapshot
			}
			before = enc.b.And(before, enc.encodeACL(pair[0]))
			after = enc.b.And(after, enc.encodeACL(pair[1]))
		}
		desired := e.desiredFormula(enc, e.ctrlsOn(p), before)
		out = enc.b.Or(out, enc.b.Iff(desired, after).Not())
	}
	return enc.b.And(out, enc.classPred(fec.Classes))
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
	fecs, paths, shapes, ctrlShapes, violating int
}

// checkShapesOn runs the property on every FEC of the engine's scope.
func checkShapesOn(t *testing.T, name string, e *Engine) shapeStats {
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
		enc := newEncoder(ctx.acls, e.obsv())
		satPaths := smt.SolverOn(enc.b).Solve(refPathsViolationFormula(e, enc, ctx, fec))
		satShapes := smt.SolverOn(enc.b).Solve(e.shapesViolationFormula(enc, ctx, fec, shapes))
		if satShapes != satPaths {
			t.Fatalf("%s: FEC %d: formula over shapes violating=%v, over paths %v", name, i, satShapes, satPaths)
		}
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
		viol, ok, _ := e.violations(ctx, fec, shapes, false)
		if !ok {
			t.Fatalf("%s: FEC %d: unexpected cube-budget bail-out", name, i)
		}
		if v := !viol.IsEmpty(); v != satPaths {
			t.Fatalf("%s: FEC %d: violations over shapes violating=%v, per-path reference %v", name, i, v, satPaths)
		}
		if all, ok, _ := e.violations(ctx, fec, shapes, true); ok && refOK && !all.Equal(refUnion) {
			t.Fatalf("%s: FEC %d: counterexamples over shapes %v, over paths %v", name, i, all, refUnion)
		}
		if !satPaths {
			continue
		}
		st.violating++

		// The witness is the reference's packet, and its paths are exactly
		// those that flip on it.
		w, _ := e.witnessFor(ctx, i, &CheckResult{}, e.obsv())
		if refOK && w.Packet != refWit {
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

func TestCheckShapesMatchPerPathReference(t *testing.T) {
	var total shapeStats
	run := func(name string, e *Engine) {
		var st shapeStats
		t.Run(name, func(t *testing.T) { st = checkShapesOn(t, name, e) })
		total.fecs += st.fecs
		total.paths += st.paths
		total.shapes += st.shapes
		total.ctrlShapes += st.ctrlShapes
		total.violating += st.violating
	}
	noDiff := DefaultOptions()
	noDiff.UseDifferential = false

	for _, c := range papernetFixCases() {
		run(c.name, c.mk())
	}
	for _, seed := range []int64{1, 2, 42} {
		for _, opts := range []Options{DefaultOptions(), noDiff} {
			w := netgen.Build(netgen.DefaultConfig(netgen.Small, seed))
			name := fmt.Sprintf("small-%d/diff=%v", seed, opts.UseDifferential)
			run(name+"/perturbed", New(w.Net, w.Perturb(seed, 3), w.Scope, opts))
			// The same edit under the Fig. 4d controls: shapes now differ by
			// control list too, and the control branch decides most of them.
			e, _ := WANOpen(w, 2, opts)
			e.UpdateAfter(w.Perturb(seed, 3))
			run(name+"/perturbed+open-2", e)
		}
	}
	for seed := int64(0); seed < 240; seed++ {
		run(fmt.Sprintf("mesh-%d", seed), faultyMesh(seed))
	}
	t.Logf("%d FECs, %d paths, %d shapes (%d under a control), %d violating",
		total.fecs, total.paths, total.shapes, total.ctrlShapes, total.violating)
	if total.shapes >= total.paths || total.ctrlShapes == 0 || total.violating == 0 || total.violating == total.fecs {
		t.Fatalf("population too weak: %+v", total)
	}
}

// overflowNet is papernet with a field-diverse ACL at A:1: two source
// hosts, two source ports, two destination ports and a protocol denied,
// each on its own rule, leave 63 × 3 × 3 × 2 disjoint cubes of any
// destination region permitted — past the 512-cube budget wherever the
// algebra has to build that set. The update also denies traffic 1 there,
// so the set has to be built on the whole of 1/8.
func overflowNet() (before, after *topo.Network) {
	const diverse = "deny src 10.1.2.3/32, deny src 10.9.8.7/32, deny sport 100, deny sport 200, " +
		"deny dport 300, deny dport 400, deny proto 6, deny dst 6.0.0.0/8, "
	before = papernet.Build()
	a1, _ := before.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse(diverse+"permit all"))
	after = before.Clone()
	a1, _ = after.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse(diverse+"deny dst 1.0.0.0/8, permit all"))
	return before, after
}

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
			run := func(forceSAT bool) (*CheckResult, time.Duration) {
				if forceSAT {
					defer faultinject.Schedule(faultinject.CheckPset, faultinject.Timeout)()
				}
				before, after := overflowNet()
				opts := DefaultOptions()
				opts.FindAllViolations = true
				opts.Forensics = true
				e := New(before, after, papernet.Scope(), opts)
				e.Controls = c.controls
				start := time.Now()
				res := e.Check()
				return res, time.Since(start)
			}
			want, satTime := run(true)
			got, autoTime := run(false)
			if want.Stats.PsetDecided != 0 || want.Stats.PsetBailout != int64(want.SolvedFECs) {
				t.Fatalf("the armed CheckPset site left FECs to pset: %+v", want.Stats)
			}
			if got.Stats.PsetBailout < 1 {
				t.Fatalf("no FEC overflowed the cube budget: %+v", got.Stats)
			}
			if want.Consistent || got.Consistent != want.Consistent || got.SolvedFECs != want.SolvedFECs {
				t.Fatalf("auto consistent=%v solved=%d, forced SAT consistent=%v solved=%d",
					got.Consistent, got.SolvedFECs, want.Consistent, want.SolvedFECs)
			}
			if g, w := fmt.Sprint(got.Violations), fmt.Sprint(want.Violations); g != w {
				t.Fatalf("violations differ after a bail-out\nauto %s\nsat  %s", g, w)
			}
			bailed := 0
			for i, f := range got.Forensics {
				if f.Route == "sat-bailout" {
					bailed++
					if f.Verdict != want.Forensics[i].Verdict {
						t.Errorf("FEC %d: %s after bail-out, %s under forced SAT", f.FEC, f.Verdict, want.Forensics[i].Verdict)
					}
				}
			}
			if int64(bailed) != got.Stats.PsetBailout {
				t.Errorf("%d FECs on route sat-bailout, Stats.PsetBailout=%d", bailed, got.Stats.PsetBailout)
			}
			t.Logf("%d bail-outs of %d solved FECs; auto %v, forced SAT %v", bailed, got.SolvedFECs, autoTime, satTime)
		})
	}
}
