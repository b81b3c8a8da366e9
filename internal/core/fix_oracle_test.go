package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/obs"
	"jinjing/internal/papernet"
	"jinjing/internal/pset"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// This file is the oracle for fix's per-call index (fixIndex), its
// placement regions and its closed-form placement. The reference below
// is the fix loop before regions and the index existed: neighborhood
// expansion (Equation 6) by a linear acl.DecideMatch over every in-scope
// ACL instance, one placement constraint per path with every binding
// resolved by its "dev:if:dir" string and every decision re-derived by
// DecideMatch, the desired decision from Control.AppliesTo per path,
// Equation 7 minimized on a SAT solver, and one prepend per action. Per
// neighborhood the engine's placement must have the reference's
// feasibility and cost (among several optima the solver's pick is
// arbitrary, so the bindings named may differ) and satisfy every path's
// constraint, and the neighborhood must lie in one of the engine's
// placement regions of its FEC, which places it alike. For the whole
// call, the engine's fixed network must permit, at every binding, what
// the reference plan's does, and verify alike.

// --- reference implementation (the pre-index fix path) ---

type refConstancy struct {
	acls   []*acl.ACL
	ctrls  []Control
	priors []header.Match

	dstLos, dstHis []uint16
	srcLos, srcHis []uint16
}

func (cn *refConstancy) computeBounds() {
	dLo := map[uint16]bool{0: true}
	dHi := map[uint16]bool{65535: true}
	sLo := map[uint16]bool{0: true}
	sHi := map[uint16]bool{65535: true}
	add := func(lo, hi map[uint16]bool, r header.PortRange) {
		if r.IsAny() {
			return
		}
		lo[r.Lo] = true
		if r.Hi < 65535 {
			lo[r.Hi+1] = true
		}
		hi[r.Hi] = true
		if r.Lo > 0 {
			hi[r.Lo-1] = true
		}
	}
	for _, a := range cn.acls {
		for _, r := range a.Rules {
			add(dLo, dHi, r.Match.DstPort)
			add(sLo, sHi, r.Match.SrcPort)
		}
	}
	for _, c := range cn.ctrls {
		add(dLo, dHi, c.Match.DstPort)
		add(sLo, sHi, c.Match.SrcPort)
	}
	toSorted := func(m map[uint16]bool, desc bool) []uint16 {
		out := make([]uint16, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Slice(out, func(i, j int) bool {
			if desc {
				return out[i] > out[j]
			}
			return out[i] < out[j]
		})
		return out
	}
	cn.dstLos, cn.dstHis = toSorted(dLo, false), toSorted(dHi, true)
	cn.srcLos, cn.srcHis = toSorted(sLo, false), toSorted(sHi, true)
}

func (cn *refConstancy) valid(c header.Match) bool {
	for _, a := range cn.acls {
		if _, ok := a.DecideMatch(c); !ok {
			return false
		}
	}
	for _, ctrl := range cn.ctrls {
		if !ctrl.Match.Contains(c) && ctrl.Match.Overlaps(c) {
			return false
		}
	}
	for _, p := range cn.priors {
		if p.Overlaps(c) {
			return false
		}
	}
	return true
}

func refExpandNeighborhood(h header.Packet, fec topo.FEC, cons *refConstancy) header.Match {
	m := header.Match{
		Src:     header.Prefix{Addr: h.SrcIP, Len: 32},
		Dst:     header.Prefix{Addr: h.DstIP, Len: 32},
		SrcPort: header.PortRange{Lo: h.SrcPort, Hi: h.SrcPort},
		DstPort: header.PortRange{Lo: h.DstPort, Hi: h.DstPort},
		Proto:   header.Proto(h.Proto),
	}
	valid := cons.valid

	var class header.Prefix
	for _, c := range fec.Classes {
		if c.Matches(h.DstIP) {
			class = c
			break
		}
	}
	for m.Dst.Len > class.Len {
		cand := m
		cand.Dst = m.Dst.Parent()
		if !class.Contains(cand.Dst) || !valid(cand) {
			break
		}
		m = cand
	}
	for m.Src.Len > 0 {
		cand := m
		cand.Src = m.Src.Parent()
		if !valid(cand) {
			break
		}
		m = cand
	}
	m.DstPort = refExpandPort(m, h.DstPort, false, valid, cons.dstLos, cons.dstHis)
	m.SrcPort = refExpandPort(m, h.SrcPort, true, valid, cons.srcLos, cons.srcHis)
	if cand := m; true {
		cand.Proto = header.AnyProto
		if valid(cand) {
			m = cand
		}
	}
	return m
}

func refExpandPort(m header.Match, port uint16, src bool, valid func(header.Match) bool, los, his []uint16) header.PortRange {
	set := func(c *header.Match, r header.PortRange) {
		if src {
			c.SrcPort = r
		} else {
			c.DstPort = r
		}
	}
	cand := m
	set(&cand, header.AnyPort)
	if valid(cand) {
		return header.AnyPort
	}
	best := header.PortRange{Lo: port, Hi: port}
	bestLo := port
	for _, lo := range los {
		if lo > port {
			break
		}
		c2 := m
		set(&c2, header.PortRange{Lo: lo, Hi: port})
		if valid(c2) {
			bestLo = lo
			break
		}
	}
	for _, hi := range his {
		if hi < port {
			break
		}
		c2 := m
		set(&c2, header.PortRange{Lo: bestLo, Hi: hi})
		if valid(c2) {
			best = header.PortRange{Lo: bestLo, Hi: hi}
			break
		}
	}
	return best
}

func refDecideOn(a *acl.ACL, m header.Match) acl.Action {
	if a == nil {
		return acl.Permit
	}
	act, ok := a.DecideMatch(m)
	if !ok {
		panic(fmt.Sprintf("core: class %v not atomic wrt ACL %v", m, a))
	}
	return act
}

func refDesiredOnClass(e *Engine, p topo.Path, nb header.Match) bool {
	orig := true
	for _, bind := range p.Bindings() {
		if refDecideOn(refBindingACL(e.Before, bind), nb) == acl.Deny {
			orig = false
			break
		}
	}
	for _, c := range e.Controls {
		if !c.AppliesTo(p) || !c.Match.Contains(nb) {
			continue
		}
		switch c.Mode {
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

// refOutcome is a neighborhood's placement: feasible, and the actions.
type refOutcome struct {
	ok      bool
	actions []FixAction
}

// refSolveNeighborhood states the placement per path on a SAT solver and
// minimizes the changed bindings.
func refSolveNeighborhood(e *Engine, fec topo.FEC, nb header.Match, allowSet map[string]bool) (refOutcome, error) {
	var out refOutcome
	s := smt.NewSolver()
	b := s.B

	vars := map[string]smt.F{}
	consts := map[string]bool{}
	var varIDs []string
	bindingVal := func(bind topo.ACLBinding) smt.F {
		id := bind.ID()
		if f, ok := vars[id]; ok {
			return f
		}
		if v, ok := consts[id]; ok {
			return b.Const(v)
		}
		afterDec := refDecideOn(refBindingACL(e.After, bind), nb)
		if allowSet[id] {
			f := b.Var()
			vars[id] = f
			varIDs = append(varIDs, id)
			return f
		}
		consts[id] = bool(afterDec)
		return b.Const(bool(afterDec))
	}

	for _, p := range fec.Paths {
		lhs := smt.True
		for _, bind := range p.Bindings() {
			lhs = b.And(lhs, bindingVal(bind))
		}
		s.Assert(b.Iff(lhs, b.Const(refDesiredOnClass(e, p, nb))))
	}

	sort.Strings(varIDs)
	var costs []smt.F
	for _, id := range varIDs {
		bind, err := refLookupBinding(e.After, id)
		if err != nil {
			return out, err
		}
		afterDec := refDecideOn(refBindingACL(e.After, bind), nb)
		if afterDec == acl.Permit {
			costs = append(costs, vars[id].Not())
		} else {
			costs = append(costs, vars[id])
		}
	}
	if _, ok := s.SolveMinimize(costs); !ok {
		return out, nil
	}
	out.ok = true
	for _, id := range varIDs {
		bind, err := refLookupBinding(e.After, id)
		if err != nil {
			return out, err
		}
		afterDec := refDecideOn(refBindingACL(e.After, bind), nb)
		got := acl.Action(s.Value(vars[id]))
		if got == afterDec {
			continue
		}
		out.actions = append(out.actions, FixAction{BindingID: id, Rule: acl.Rule{Action: got, Match: nb}})
	}
	return out, nil
}

// refSatisfies checks a placement against Equation 7 path by path: each
// action is a rule on nb at an allowed binding, at most one per binding,
// that changes the binding's decision (so the actions count the changed
// bindings), and on every path of the FEC the decisions the plan leaves
// conjoin to the path's desired decision.
func refSatisfies(e *Engine, fec topo.FEC, nb header.Match, allowSet map[string]bool, actions []FixAction) error {
	placedAt := map[string]acl.Action{}
	for _, a := range actions {
		bind, err := refLookupBinding(e.After, a.BindingID)
		if err != nil {
			return err
		}
		if _, dup := placedAt[a.BindingID]; dup || !allowSet[a.BindingID] || a.Rule.Match != nb ||
			a.Rule.Action == refDecideOn(refBindingACL(e.After, bind), nb) {
			return fmt.Errorf("action %v: a repeated, closed, off-neighborhood or unchanging rule", a)
		}
		placedAt[a.BindingID] = a.Rule.Action
	}
	for _, p := range fec.Paths {
		got := acl.Permit
		for _, bind := range p.Bindings() {
			act, ok := placedAt[bind.ID()]
			if !ok {
				act = refDecideOn(refBindingACL(e.After, bind), nb)
			}
			got = got && act
		}
		if want := refDesiredOnClass(e, p, nb); got != acl.Action(want) {
			return fmt.Errorf("path %v decides %v, desired %v", p, got, want)
		}
	}
	return nil
}

func refApplyFixActions(fixed *topo.Network, actions []FixAction) error {
	for _, a := range actions {
		fb, err := refLookupBinding(fixed, a.BindingID)
		if err != nil {
			return err
		}
		cur := fb.Iface.ACL(fb.Dir)
		if cur == nil {
			cur = acl.PermitAll()
		}
		cur.Rules = append([]acl.Rule{a.Rule}, cur.Rules...)
		fb.Iface.SetACL(fb.Dir, cur)
	}
	return nil
}

// --- the comparison ---

// fixOracleCase builds one engine; it is called once for the per-FEC
// comparison and once for the whole call, so it must be deterministic.
type fixOracleCase struct {
	name    string
	mk      func() *Engine
	mustFix bool // the case is there for its neighborhoods: finding none is a failure
}

// samePermitted fails unless the two networks permit the same packets
// at every binding (an unbound side permits all): equal texts first,
// then the set algebra.
func samePermitted(t *testing.T, got, want *topo.Network) {
	t.Helper()
	for _, d := range want.SortedDevices() {
		for _, i := range d.SortedInterfaces() {
			gi, err := got.LookupInterface(d.Name + ":" + i.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, dir := range []topo.Direction{topo.In, topo.Out} {
				a, b := orPermitAll(gi.ACL(dir)), orPermitAll(i.ACL(dir))
				if a.String() != b.String() && !pset.PermittedSet(a).Equal(pset.PermittedSet(b)) {
					t.Fatalf("fixed ACL at %s permits otherwise:\n  %s\nreference:\n  %s",
						topo.ACLBinding{Iface: i, Dir: dir}.ID(), a, b)
				}
			}
		}
	}
}

// fixOracleStats is what one case saw, for the coverage test.
type fixOracleStats struct {
	neighborhoods, unfixable, actions int
	multiRegionFEC                    bool // a FEC with several regions
	ctrlOnFixedFEC                    bool // a control applied to a shape of a FEC that needed fixing
	shapesShared                      bool // a fixed FEC's paths outnumber its shapes
	portRegion                        bool // a region narrower than "any" in a port
	memoHit                           bool // a placement read from its FEC's memo, for a region or a neighborhood
}

// refConstancyOf is the reference validity oracle over every before and
// after ACL of the check context's encoding pairs.
func refConstancyOf(e *Engine, ctx *checkCtx) refConstancy {
	ref := refConstancy{ctrls: e.Controls}
	for _, p := range ctx.pairs {
		ref.acls = append(ref.acls, orPermitAll(p.before), orPermitAll(p.after))
	}
	ref.computeBounds()
	return ref
}

// actionsOn is a placement's plan for one neighborhood, as the reference
// states it: one rule on the neighborhood per changed binding.
func actionsOn(ix *fixIndex, p placed, nb header.Match) []FixAction {
	var out []FixAction
	for _, c := range p.changes {
		out = append(out, FixAction{BindingID: ix.bindings[c.bi].b.ID(), Rule: acl.Rule{Action: c.act, Match: nb}})
	}
	return out
}

func runFixOracleCase(t *testing.T, c fixOracleCase) fixOracleStats {
	t.Helper()
	var st fixOracleStats
	e := c.mk()
	ctx := e.checkContext()
	e.prepareIncremental(ctx)
	ix := e.compileFix(ctx)

	ref := refConstancyOf(e, ctx)
	allowSet := map[string]bool{}
	for _, b := range e.Allow {
		allowSet[b.ID()] = true
	}

	var wantActions []FixAction
	var wantPlacements int64 // distinct placement keys, FEC by FEC
	for i := 0; i < ctx.nfec; i++ {
		fec := ctx.fec(i)
		if e.Opts.UseDifferential && !e.fecTouchesDiff(fec, ctx.diff) {
			continue // as the check loop's differential skip does
		}
		shapes := ix.shapesOn(ctx.src.PathIndices(i))
		// The FEC's counterexamples, path by path (refPathViolations); the
		// reference takes their least packet and excludes each
		// neighborhood, the engine splits them into regions.
		perPath, ok := refPathViolations(e, ctx, fec)
		if !ok {
			t.Fatalf("FEC %d: the per-path reference overflows the cube budget", i)
		}
		viol := pset.Empty()
		for _, f := range perPath {
			viol = viol.Union(f)
		}
		reads := ix.readsOn(shapes, viol)
		regions := e.fixFEC(context.Background(), ctx, ix, i, viol, math.MaxInt)
		if regions.err != nil || regions.unknown != "" {
			t.Fatalf("FEC %d: split: %v %s", i, regions.err, regions.unknown)
		}
		tiled := pset.Empty()
		for k, r := range regions.regions {
			if tiled.Intersect(r.region).Cubes() > 0 {
				t.Fatalf("FEC %d: region %d overlaps an earlier one", i, k)
			}
			tiled = tiled.Union(r.region)
			st.memoHit = st.memoHit || !r.solved
			for _, c := range r.region.CubeList() {
				st.portRegion = st.portRegion || !c.DstPort.IsAny() || !c.SrcPort.IsAny()
			}
		}
		if !tiled.Equal(viol) {
			t.Fatalf("FEC %d: the regions do not tile the counterexamples", i)
		}
		refCons := ref
		refCons.priors = nil
		memo := map[string]placed{}
		found := 0
		for h, more := viol.MinPacket(); more; h, more = viol.MinPacket() {
			if found > 500 {
				t.Fatalf("FEC %d: more than 500 neighborhoods", i)
			}
			what := fmt.Sprintf("FEC %d neighborhood %d", i, found)
			nb := refExpandNeighborhood(h, fec, &refCons)
			// Every ACL and control decides the neighborhood alike, so it
			// is its own region.
			region, dec := ix.regionOf(pset.FromMatch(nb), h, reads)
			if !region.Equal(pset.FromMatch(nb)) {
				t.Fatalf("%s: %v splits into %v", what, nb, region.CubeList())
			}

			want, err := refSolveNeighborhood(e, fec, nb, allowSet)
			if err != nil {
				t.Fatalf("%s: reference placement: %v", what, err)
			}
			got, _, err := ix.solve(context.Background(), &placement{}, shapes, dec, map[string]placed{})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			gotActions := actionsOn(ix, got, nb)
			if got.ok != want.ok || len(gotActions) != len(want.actions) {
				t.Fatalf("%s: placement ok=%v actions=%v\nreference ok=%v actions=%v",
					what, got.ok, gotActions, want.ok, want.actions)
			}
			if got.ok {
				if err := refSatisfies(e, fec, nb, allowSet, gotActions); err != nil {
					t.Fatalf("%s: placement %v: %v", what, gotActions, err)
				}
			}
			// Through the FEC's memo, as fixFEC asks: a hit must give the
			// same plan, decided nowhere.
			memoed, solved, err := ix.solve(context.Background(), &placement{}, shapes, dec, memo)
			if err != nil {
				t.Fatalf("%s: memoized: %v", what, err)
			}
			if memoed.ok != got.ok || !slices.Equal(memoed.changes, got.changes) {
				t.Fatalf("%s: memoized placement ok=%v changes=%v\nunmemoized ok=%v changes=%v",
					what, memoed.ok, memoed.changes, got.ok, got.changes)
			}
			st.memoHit = st.memoHit || !solved
			if solved {
				wantPlacements++
			}
			// The tiling: the region of the engine's split holding the
			// neighborhood holds all of it and places it alike.
			k := slices.IndexFunc(regions.regions, func(r regionOutcome) bool { return r.region.Contains(h) })
			if k < 0 || !pset.FromMatch(nb).Subtract(regions.regions[k].region).IsEmpty() {
				t.Fatalf("%s: %v lies in no one region", what, nb)
			}
			if r := regions.regions[k]; r.ok != got.ok || !slices.Equal(r.changes, got.changes) {
				t.Fatalf("%s: its region %d places ok=%v changes=%v, the neighborhood ok=%v changes=%v",
					what, k, r.ok, r.changes, got.ok, got.changes)
			}
			if got.ok {
				wantActions = append(wantActions, gotActions...)
				st.neighborhoods++
			} else {
				st.unfixable++
			}
			refCons.priors = append(refCons.priors, nb)
			viol = viol.Subtract(pset.FromMatch(nb))
			found++
		}
		if found > 0 {
			st.multiRegionFEC = st.multiRegionFEC || len(regions.regions) > 1
			st.shapesShared = st.shapesShared || len(shapes) < len(fec.Paths)
			for _, si := range shapes {
				st.ctrlOnFixedFEC = st.ctrlOnFixedFEC || len(ix.shapes[si].ctrls) > 0
			}
		}
	}
	st.actions = len(wantActions)

	// The whole call: the placements its regions pose, and a fixed
	// network that permits, at every binding, what the reference plan's
	// does, and that verifies alike.
	e2 := c.mk()
	m := obs.NewMetrics()
	e2.Opts.Obs = obs.NewObserver(nil, m, nil)
	res, err := e2.Fix()
	if err != nil {
		t.Fatal(err)
	}
	// Placements are decided once per distinct key of a FEC: no fewer (a
	// memo shared across FECs) and no more (a memo that misses). A
	// region's key is that of the neighborhoods inside it.
	if got := m.Snapshot().Counters["fix.placements"]; got != wantPlacements {
		t.Fatalf("fix.placements = %d, the per-FEC reference decided %d", got, wantPlacements)
	}
	if (len(res.Regions) == 0) != (st.neighborhoods == 0) || (len(res.Unfixable) == 0) != (st.unfixable == 0) {
		t.Fatalf("%d regions and %d unfixable, reference %d neighborhoods and %d unfixable",
			len(res.Regions), len(res.Unfixable), st.neighborhoods, st.unfixable)
	}
	refFixed := e2.After.Clone()
	if err := refApplyFixActions(refFixed, wantActions); err != nil {
		t.Fatal(err)
	}
	samePermitted(t, res.Fixed, refFixed)
	ver := c.mk()
	ver.UpdateAfter(refFixed)
	if cr := ver.Check(); res.Verified != (cr.Consistent && cr.Complete) {
		t.Fatalf("verified=%v, reference verified=%v", res.Verified, cr.Consistent && cr.Complete)
	}
	return st
}

// --- cases ---

func allBindings(n *topo.Network, devices ...string) []topo.ACLBinding {
	var out []topo.ACLBinding
	for _, name := range devices {
		for _, i := range n.Devices[name].SortedInterfaces() {
			out = append(out, topo.ACLBinding{Iface: i, Dir: topo.In}, topo.ACLBinding{Iface: i, Dir: topo.Out})
		}
	}
	return out
}

// cellNetwork is §7 Scenario 2: gateway G fronts routers R1 and R2; G's
// WAN ingress ACL protects 10.2/16, and the update relocates it to G's
// cell-facing egress interfaces, where it also blocks R1 -> R2.
func cellNetwork() (before, after *topo.Network, scope *topo.Scope) {
	n := topo.NewNetwork()
	g, r1, r2 := n.Device("G"), n.Device("R1"), n.Device("R2")
	gUp, gD1, gD2 := g.Interface("up"), g.Interface("d1"), g.Interface("d2")
	r1u, r1h, r2u, r2h := r1.Interface("u"), r1.Interface("h"), r2.Interface("u"), r2.Interface("h")
	for _, l := range [][2]*topo.Interface{{gD1, r1u}, {r1u, gD1}, {gD2, r2u}, {r2u, gD2}} {
		n.AddLink(l[0], l[1])
	}
	p1, p2, wan := header.MustParsePrefix("10.1.0.0/16"), header.MustParsePrefix("10.2.0.0/16"), header.MustParsePrefix("8.0.0.0/8")
	g.AddRoute(p1, gD1)
	g.AddRoute(p2, gD2)
	g.AddRoute(wan, gUp)
	r1.AddRoute(p1, r1h)
	r1.AddRoute(p2, r1u)
	r1.AddRoute(wan, r1u)
	r2.AddRoute(p2, r2h)
	r2.AddRoute(p1, r2u)
	r2.AddRoute(wan, r2u)
	gUp.SetACL(topo.In, acl.MustParse("deny dst 10.2.0.0/16, permit all"))

	after = n.Clone()
	up, _ := after.LookupInterface("G:up")
	moved := up.ACL(topo.In).Clone()
	up.SetACL(topo.In, acl.PermitAll())
	for _, name := range []string{"G:d1", "G:d2"} {
		i, _ := after.LookupInterface(name)
		i.SetACL(topo.Out, moved.Clone())
	}
	return n, after, topo.NewScope("G", "R1", "R2").WithEntries("G:up", "R1:h", "R2:h")
}

func papernetFixCases() []fixOracleCase {
	cases := []fixOracleCase{
		{name: "papernet/running-example", mustFix: true, mk: func() *Engine {
			before := papernet.Build()
			after := before.Clone()
			for _, u := range []struct {
				id, text string
				dir      topo.Direction
			}{
				{"A:1", "deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, deny dst 6.0.0.0/8, permit all", topo.In},
				{"A:3", "deny dst 7.0.0.0/8, permit all", topo.Out},
				{"C:1", "permit all", topo.In},
				{"D:2", "permit all", topo.In},
			} {
				i, _ := after.LookupInterface(u.id)
				i.SetACL(u.dir, acl.MustParse(u.text))
			}
			e := New(before, after, papernet.Scope(), DefaultOptions())
			e.Allow = allBindings(before, "A", "B")
			return e
		}},
		{name: "papernet/scenario2-gateway", mustFix: true, mk: func() *Engine {
			before, after, scope := cellNetwork()
			e := New(before, after, scope, DefaultOptions())
			e.Allow = allBindings(before, "G")
			return e
		}},
		{name: "papernet/scenario2-egress-only", mustFix: true, mk: func() *Engine { // unfixable
			before, after, scope := cellNetwork()
			e := New(before, after, scope, DefaultOptions())
			for _, id := range []string{"G:d1", "G:d2", "G:up"} {
				i, _ := before.LookupInterface(id)
				e.Allow = append(e.Allow, topo.ACLBinding{Iface: i, Dir: topo.Out})
			}
			return e
		}},
	}
	// The control cases of the generate oracle are fix problems too: the
	// update is a no-op and the intent is what needs fixing.
	for _, c := range papernetCases()[1:] {
		cases = append(cases, fixOracleCase{name: c.name + "-control", mustFix: !strings.HasSuffix(c.name, "maintain"), mk: func() *Engine {
			e, _ := c.mk(DefaultOptions())
			return e
		}})
	}
	return cases
}

// WANFix is the Fig. 4b setup on a generated WAN: pct percent of every
// ACL's rules perturbed, every ACL carrier open to the plan. Exported
// from the test binary for the external benchmarks.
func WANFix(w *netgen.WAN, pct float64, opts Options) *Engine {
	e := New(w.Net, w.Perturb(w.Config.Seed+int64(pct*10), pct), w.Scope, opts)
	var err error
	if e.Allow, err = netgen.Bindings(w.Net, slices.Concat(w.EdgeACLs, w.AggACLs, w.CoreACLs)); err != nil {
		panic(err)
	}
	return e
}

func wanFixCases(size netgen.Size, seeds []int64, pcts ...float64) []fixOracleCase {
	var out []fixOracleCase
	for _, seed := range seeds {
		for _, pct := range pcts {
			// One WAN per case: cases run in parallel, and a network fills
			// lazy caches (the per-device LPM trie) on first use.
			w := netgen.Build(netgen.DefaultConfig(size, seed))
			// 1% of a small WAN's rules can be none at all.
			out = append(out, fixOracleCase{name: fmt.Sprintf("%v-%d/perturb-%.0f", size, seed, pct), mustFix: pct > 1 || size != netgen.Small,
				mk: func() *Engine { return WANFix(w, pct, DefaultOptions()) }})
		}
	}
	return out
}

// faultyMesh is an oracleMesh whose update is broken on purpose: rules
// of the After snapshot are flipped, deleted, and joined by fresh ones
// that also constrain source and ports, so neighborhoods have to stop at
// boundaries in those fields too (not the protocol: expansion there is
// all-or-exact, and one such rule costs 255 neighborhoods). Odd seeds run
// without the differential filter.
func faultyMesh(seed int64) *Engine {
	opts := DefaultOptions()
	opts.UseDifferential = seed%2 == 0
	e, _ := oracleMesh(seed, opts)
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	randRule := func() acl.Rule {
		m := header.DstMatch(header.Prefix{Addr: uint32(10+r.Intn(6)) << 24, Len: 8})
		if r.Intn(2) == 0 {
			m.Dst, _ = m.Dst.Halves()
		}
		switch r.Intn(4) {
		case 0:
			m.Src = header.Prefix{Addr: 172 << 24, Len: 8 + r.Intn(3)}
		case 1:
			m.DstPort = header.PortRange{Lo: 80, Hi: uint16(80 + r.Intn(2)*8000)}
		case 2:
			m.SrcPort = header.PortRange{Lo: 1024, Hi: 65535}
		}
		return acl.Rule{Action: acl.Action(r.Intn(2) == 0), Match: m}
	}
	// The mesh's own Allow set is sparse and mostly unbound. Open most ACL
	// carriers too so plans exist, and on two meshes of three open nothing
	// else, so paths differing only in unbound bindings share a shape.
	if seed%3 != 1 {
		e.Allow = nil
	}
	for _, d := range e.After.SortedDevices() {
		for _, i := range d.SortedInterfaces() {
			for _, dir := range []topo.Direction{topo.In, topo.Out} {
				a := i.ACL(dir)
				if a == nil {
					continue
				}
				if r.Intn(3) != 0 {
					b, err := refLookupBinding(e.Before, topo.ACLBinding{Iface: i, Dir: dir}.ID())
					if err != nil {
						panic(err)
					}
					e.Allow = append(e.Allow, b)
				}
				for edits := r.Intn(4); edits > 0 && len(a.Rules) > 0; edits-- {
					switch k := r.Intn(len(a.Rules)); r.Intn(4) {
					case 0:
						a.Rules[k].Action = !a.Rules[k].Action
					case 1:
						a.Rules = slices.Delete(a.Rules, k, k+1)
					case 2:
						a.Rules = slices.Insert(a.Rules, k, randRule())
					case 3:
						a.Default = !a.Default
					}
				}
			}
		}
	}
	return e
}

func meshFixCases() []fixOracleCase {
	var out []fixOracleCase
	for i := 0; i < 240; i++ {
		seed := int64(i)
		out = append(out, fixOracleCase{name: fmt.Sprintf("mesh-%d", i), mk: func() *Engine { return faultyMesh(seed) }})
	}
	return out
}

func TestFixIndexMatchesPerPathOracle(t *testing.T) {
	cases := papernetFixCases()
	cases = append(cases, wanFixCases(netgen.Small, []int64{1, 2, 42}, 1, 3, 5)...)
	// The reference is the old linear scan and per-path walk, so a medium
	// case costs what fix used to: seconds. The default suite runs one
	// medium seed at 1%; the weekly full lane (make test-full) runs more,
	// and the large WAN.
	switch {
	case os.Getenv("JINJING_EXPERIMENTS_LARGE") != "":
		cases = append(cases, wanFixCases(netgen.Medium, []int64{1, 2, 42}, 1, 3, 5)...)
		cases = append(cases, wanFixCases(netgen.Large, []int64{42}, 1, 3, 5)...)
	case !testing.Short():
		cases = append(cases, wanFixCases(netgen.Medium, []int64{42}, 1)...)
	}
	cases = append(cases, meshFixCases()...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			st := runFixOracleCase(t, c)
			if c.mustFix && st.neighborhoods+st.unfixable == 0 {
				t.Fatalf("case needs no fixing: it tests nothing")
			}
		})
	}
}

// TestFixRegionsUnderASmallCubeBudget takes the split's overflow path:
// at a cube budget of two the region folds overflow and narrow to the
// piece holding the packet (holding), so a FEC splits into more regions,
// yet the fixed network permits what it does at the default budget at
// every binding, and verifies alike. Not parallel: it lowers the
// package's cube budget.
func TestFixRegionsUnderASmallCubeBudget(t *testing.T) {
	cases := wanFixCases(netgen.Small, []int64{1, 42}, 5)
	cases = append(cases, wanFixCases(netgen.Medium, []int64{42}, 5)...)
	for _, c := range cases {
		base, err := c.mk().Fix()
		if err != nil {
			t.Fatal(err)
		}
		restore := SetCubeBudget(t, 2)
		split, err := c.mk().Fix()
		restore()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d regions, %d at a budget of two", c.name, len(base.Regions), len(split.Regions))
		if len(split.Regions) <= len(base.Regions) {
			t.Fatalf("%s: %d regions at a budget of two, %d at the default: the budget did not bind", c.name, len(split.Regions), len(base.Regions))
		}
		samePermitted(t, split.Fixed, base.Fixed)
		if split.Verified != base.Verified {
			t.Fatalf("%s: verified=%v at a budget of two, %v at the default", c.name, split.Verified, base.Verified)
		}
	}
}

// TestFixMemoKeepsWorkerCountsEqual pins what keeps the placement memo
// per FEC: on netgen small at 5%, Fix at 1 and 8 workers gives the same
// actions and regions and decides the same number of placements (the
// fix.placements counter), no more than it has regions. A memo shared
// across FECs would let scheduling decide which FEC pays for a shared
// placement.
func TestFixMemoKeepsWorkerCountsEqual(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 42))
	var res [2]*FixResult
	var placements [2]int64
	for k, workers := range []int{1, 8} {
		opts := DefaultOptions()
		opts.Workers = workers
		m := obs.NewMetrics()
		opts.Obs = obs.NewObserver(nil, m, nil)
		var err error
		if res[k], err = WANFix(w, 5, opts).Fix(); err != nil {
			t.Fatal(err)
		}
		placements[k] = m.Snapshot().Counters["fix.placements"]
	}
	if n := int64(len(res[0].Regions)); placements[0] <= 0 || placements[0] > n || placements[1] != placements[0] {
		t.Fatalf("placements %v for %d regions: want equal, and at most one per region", placements, n)
	}
	if !slices.Equal(res[0].Actions, res[1].Actions) || !slices.EqualFunc(res[0].Regions, res[1].Regions, slices.Equal[[]header.Match]) {
		t.Fatalf("plans differ between 1 and 8 workers: %d/%d actions, %d/%d regions",
			len(res[0].Actions), len(res[1].Actions), len(res[0].Regions), len(res[1].Regions))
	}
}

// TestFixOracleMeshesCoverTheHardCases keeps the faulty meshes honest:
// the properties the oracle is there to exercise must actually occur in
// the drawn population.
func TestFixOracleMeshesCoverTheHardCases(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 240-mesh oracle a second time")
	}
	counts := map[string]int{}
	for _, c := range meshFixCases() {
		st := runFixOracleCase(t, c)
		for name, hit := range map[string]bool{
			"a neighborhood":               st.neighborhoods > 0,
			"a fixing action":              st.actions > 0,
			"an unfixable neighborhood":    st.unfixable > 0,
			"several regions in one FEC":   st.multiRegionFEC,
			"a control on a fixed FEC":     st.ctrlOnFixedFEC,
			"shared shapes on a fixed FEC": st.shapesShared,
			"a port-bounded region":        st.portRegion,
			"a placement memo hit":         st.memoHit,
		} {
			n := 0
			if hit {
				n = 1
			}
			counts[name] += n // a property never seen still gets its zero entry
		}
	}
	t.Logf("of 240 faulty meshes: %v", counts)
	for name, n := range counts {
		// A mesh FEC has two to four paths, so a broken one whose paths
		// also coincide on every ACL carrier is the rarest of these.
		want := 20
		if name == "shared shapes on a fixed FEC" {
			want = 10
		}
		if n < want {
			t.Errorf("only %d of 240 faulty meshes have %s", n, name)
		}
	}
}

// --- the closed-form placement against enumeration and the solver ---

// placementCase is a placement problem stated directly on a fix index:
// per binding its ID, whether the plan may place rules on it, and its
// after decision; per shape the bindings it crosses, in order, and its
// desired decision.
type placementCase struct {
	ids     []string
	allowed []bool
	after   []bool
	shapes  [][]int32
	desired []bool
}

// index builds the fix index and the placement key the case states.
func (c placementCase) index() (*fixIndex, []int32, []byte) {
	ix := &fixIndex{}
	for i := range c.ids {
		ix.bindings = append(ix.bindings, fixBinding{allowed: c.allowed[i]})
	}
	var shapes []int32
	var key []byte
	k := 0
	put := func(v bool) {
		if k%8 == 0 {
			key = append(key, 0)
		}
		if v {
			key[k/8] |= 1 << (k % 8)
		}
		k++
	}
	for j, bs := range c.shapes {
		ix.shapes = append(ix.shapes, fixShape{bindings: bs})
		shapes = append(shapes, int32(j))
		for _, bi := range bs {
			put(c.after[bi])
		}
		put(c.desired[j])
	}
	return ix, shapes, key
}

// bruteForce enumerates every decision of the crossed allowed bindings
// and returns whether one satisfies every shape, the least number of
// changed bindings, the first changed set of that size in crossing order
// (sorted binding indices, compared lexicographically), and how many
// sets of that size there are.
func (c placementCase) bruteForce() (ok bool, cost int, least []int32, optima int) {
	var free []int32
	for bi := range c.ids {
		crossed := slices.ContainsFunc(c.shapes, func(bs []int32) bool { return slices.Contains(bs, int32(bi)) })
		if crossed && c.allowed[bi] {
			free = append(free, int32(bi))
		}
	}
	val := slices.Clone(c.after)
	for mask := 0; mask < 1<<len(free); mask++ {
		var changed []int32
		for k, bi := range free {
			val[bi] = mask>>k&1 == 1
			if val[bi] != c.after[bi] {
				changed = append(changed, bi)
			}
		}
		sat := true
		for j, bs := range c.shapes {
			conj := !slices.ContainsFunc(bs, func(bi int32) bool { return !val[bi] })
			sat = sat && conj == c.desired[j]
		}
		if !sat {
			continue
		}
		switch {
		case !ok || len(changed) < cost:
			ok, cost, least, optima = true, len(changed), changed, 1
		case len(changed) == cost:
			optima++
			if slices.Compare(changed, least) < 0 {
				least = changed
			}
		}
	}
	return ok, cost, least, optima
}

// solverCost states the case on a SAT solver — a variable per allowed
// binding, the after decision elsewhere, one equivalence per shape — and
// minimizes the changed bindings.
func (c placementCase) solverCost() (ok bool, cost int) {
	s := smt.NewSolver()
	b := s.B
	vals := make([]smt.F, len(c.ids))
	var costs []smt.F
	for bi := range c.ids {
		if !c.allowed[bi] {
			vals[bi] = b.Const(c.after[bi])
			continue
		}
		vals[bi] = b.Var()
		if c.after[bi] {
			costs = append(costs, vals[bi].Not())
		} else {
			costs = append(costs, vals[bi])
		}
	}
	for j, bs := range c.shapes {
		lhs := smt.True
		for _, bi := range bs {
			lhs = b.And(lhs, vals[bi])
		}
		s.Assert(b.Iff(lhs, b.Const(c.desired[j])))
	}
	cost, ok = s.SolveMinimize(costs)
	return ok, cost
}

// placeCase runs the closed form on the case and returns the changed
// bindings in crossing order, checking each changes its decision.
func placeCase(t *testing.T, c placementCase) (ok bool, changed []int32) {
	t.Helper()
	ix, shapes, key := c.index()
	p, err := ix.place(context.Background(), &placement{}, shapes, key)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range p.changes {
		if bool(ch.act) == c.after[ch.bi] || !c.allowed[ch.bi] {
			t.Fatalf("%+v: change %+v keeps its decision or is closed", c, ch)
		}
		changed = append(changed, ch.bi)
	}
	slices.Sort(changed)
	return p.ok, changed
}

// TestQuickPlacementMatchesEnumeration draws placement problems of up to
// twelve bindings and ten shapes — random allow, after and desired bits,
// a third of the bindings denying — and holds the closed form to an
// enumeration of every decision on feasibility, least cost and the
// least optimum in crossing order, and to the SAT minimization on
// feasibility and cost.
func TestQuickPlacementMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var feasible, ties int // ties: draws with several optima
	for n := 0; n < 3000; n++ {
		var c placementCase
		nb := 1 + r.Intn(12)
		for _, perm := range r.Perm(nb) {
			c.ids = append(c.ids, fmt.Sprintf("d%02d:i:in", perm))
			c.allowed = append(c.allowed, r.Intn(3) != 0)
			c.after = append(c.after, r.Intn(3) != 0)
		}
		for j := 1 + r.Intn(10); j > 0; j-- {
			pick := r.Perm(nb)[:1+r.Intn(min(nb, 4))]
			var bs []int32
			for _, bi := range pick {
				bs = append(bs, int32(bi))
			}
			c.shapes = append(c.shapes, bs)
			c.desired = append(c.desired, r.Intn(2) == 0)
		}
		ok, changed := placeCase(t, c)
		wantOK, wantCost, least, optima := c.bruteForce()
		satOK, satCost := c.solverCost()
		if ok != wantOK || ok && (len(changed) != wantCost || !slices.Equal(changed, least)) {
			t.Fatalf("%+v: closed form ok=%v changes %v, enumeration ok=%v cost %d least %v", c, ok, changed, wantOK, wantCost, least)
		}
		if satOK != wantOK || ok && satCost != wantCost {
			t.Fatalf("%+v: solver ok=%v cost %d, enumeration ok=%v cost %d", c, satOK, satCost, wantOK, wantCost)
		}
		if ok {
			feasible++
			if optima > 1 {
				ties++
			}
		}
	}
	if feasible < 500 || ties < 50 {
		t.Fatalf("only %d feasible draws, %d with several optima", feasible, ties)
	}
}

// TestPlacementTieBreak pins which optimum the closed form names.
func TestPlacementTieBreak(t *testing.T) {
	yes, no := true, false
	for _, c := range []struct {
		name    string
		c       placementCase
		ok      bool
		changed []int32
	}{
		// One path crossing two allowed permits: the first crossed
		// denies, though its ID sorts last.
		{"one-path-first-crossed", placementCase{
			ids: []string{"z:1:in", "a:1:in"}, allowed: []bool{yes, yes}, after: []bool{yes, yes},
			shapes: [][]int32{{0, 1}}, desired: []bool{no},
		}, true, []int32{0}},
		// Two ECMP paths sharing a binding: one deny there meets both.
		{"ecmp-shared", placementCase{
			ids: []string{"a:1:in", "b:1:in", "c:1:in"}, allowed: []bool{yes, yes, yes}, after: []bool{yes, yes, yes},
			shapes: [][]int32{{0, 2}, {1, 2}}, desired: []bool{no, no},
		}, true, []int32{2}},
		// A permit the plan can force beside a closed deny: no placement.
		{"forced-beside-closed-deny", placementCase{
			ids: []string{"a:1:in", "b:1:in"}, allowed: []bool{yes, no}, after: []bool{no, no},
			shapes: [][]int32{{0, 1}}, desired: []bool{yes},
		}, false, nil},
		// The forced permit alone is placed.
		{"forced-permit", placementCase{
			ids: []string{"a:1:in", "b:1:in"}, allowed: []bool{yes, no}, after: []bool{no, yes},
			shapes: [][]int32{{0, 1}}, desired: []bool{yes},
		}, true, []int32{0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ok, changed := placeCase(t, c.c)
			if ok != c.ok || !slices.Equal(changed, c.changed) {
				t.Fatalf("ok=%v changes %v, want ok=%v changes %v", ok, changed, c.ok, c.changed)
			}
		})
	}
	// A cancelled call decides nothing: the search stops at its first
	// poll and returns the call's error.
	ix, shapes, key := placementCase{
		ids: []string{"a:1:in"}, allowed: []bool{yes}, after: []bool{yes},
		shapes: [][]int32{{0}}, desired: []bool{no},
	}.index()
	call, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.place(call, &placement{}, shapes, key); !errors.Is(err, context.Canceled) {
		t.Fatalf("place under a cancelled call: err %v", err)
	}
}

// TestQuickMinHittingSet holds the hitting-set search to an enumeration
// of every subset on random clause sets over eight members, deep enough
// that the first set the search reaches is not always the least (a pinned
// case: the search reaches {3, 4, 6} before {2, 4, 7}).
func TestQuickMinHittingSet(t *testing.T) {
	least := func(clauses [][]int32) []int32 {
		var best []int32
		for mask := 0; mask < 1<<8; mask++ {
			var set []int32
			for x := int32(0); x < 8; x++ {
				if mask>>x&1 == 1 {
					set = append(set, x)
				}
			}
			hits := !slices.ContainsFunc(clauses, func(c []int32) bool {
				return !slices.ContainsFunc(c, func(x int32) bool { return slices.Contains(set, x) })
			})
			if hits && (best == nil || len(set) < len(best) || len(set) == len(best) && slices.Compare(set, best) < 0) {
				best = set
			}
		}
		return best
	}
	draws := [][][]int32{{{4}, {2, 6}, {1, 6, 7}, {3, 7}}}
	r := rand.New(rand.NewSource(11))
	for n := 0; n < 3000; n++ {
		var clauses [][]int32
		for j := 1 + r.Intn(6); j > 0; j-- {
			var c []int32
			for _, x := range r.Perm(8)[:1+r.Intn(3)] {
				c = append(c, int32(x))
			}
			slices.Sort(c)
			clauses = append(clauses, c)
		}
		draws = append(draws, clauses)
	}
	for _, clauses := range draws {
		want := least(clauses)
		got, ok := minHittingSet(context.Background(), slices.Clone(clauses))
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("clauses %v: hitting set %v, least minimum %v", clauses, got, want)
		}
	}
}

// refLookupBinding resolves a "device:interface:dir" ID on a network.
func refLookupBinding(n *topo.Network, id string) (topo.ACLBinding, error) {
	for _, dir := range []topo.Direction{topo.In, topo.Out} {
		if base, ok := strings.CutSuffix(id, ":"+dir.String()); ok {
			i, err := n.LookupInterface(base)
			return topo.ACLBinding{Iface: i, Dir: dir}, err
		}
	}
	return topo.ACLBinding{}, fmt.Errorf("malformed binding ID %q", id)
}

// refBindingACL returns the ACL bound at b's position in n, found by
// name (nil when unbound there).
func refBindingACL(n *topo.Network, b topo.ACLBinding) *acl.ACL {
	i, err := n.LookupInterface(b.Iface.ID())
	if err != nil {
		return nil
	}
	return i.ACL(b.Dir)
}

// orPermitAll treats a nil ACL as permit-all.
func orPermitAll(a *acl.ACL) *acl.ACL {
	if a == nil {
		return acl.PermitAll()
	}
	return a
}
