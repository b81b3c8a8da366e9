package core

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/obs"
	"jinjing/internal/papernet"
	"jinjing/internal/pset"
	"jinjing/internal/sat"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// This file is the oracle for fix's per-call index (fixIndex) and the
// cube-decided exact simplify. The reference below is the code fix ran
// before the index existed, kept word for word: neighborhood validity by
// a linear acl.DecideMatch over every in-scope ACL instance, one
// placement constraint per path with every binding resolved by its
// "dev:if:dir" string and every decision re-derived by DecideMatch, the
// desired decision from Control.AppliesTo per path, one prepend per
// action, and acl.Simplify's solver query per candidate rule. The engine
// must agree with it on every FEC: the same neighborhoods in the same
// order, per neighborhood the same constants, variables and cost
// literals — formula for formula, which both sides build from an empty
// builder — the same solver work and fixing actions, and the same
// simplified ACL text.

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
		if refDecideOn(bindingACL(e.Before, bind), nb) == acl.Deny {
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

// refPlacement is refSolveNeighborhood's model, kept for comparison.
type refPlacement struct {
	vars   map[string]smt.F
	consts map[string]bool
	varIDs []string // sorted
	costs  []smt.F
}

func refSolveNeighborhood(e *Engine, fec topo.FEC, nb header.Match, allowSet map[string]bool) (nbOutcome, refPlacement, error) {
	out := nbOutcome{nb: nb}
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
		afterDec := refDecideOn(bindingACL(e.After, bind), nb)
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
		bind, err := lookupBinding(e.After, id)
		if err != nil {
			return out, refPlacement{}, err
		}
		afterDec := refDecideOn(bindingACL(e.After, bind), nb)
		if afterDec == acl.Permit {
			costs = append(costs, vars[id].Not())
		} else {
			costs = append(costs, vars[id])
		}
	}
	pl := refPlacement{vars: vars, consts: consts, varIDs: varIDs, costs: costs}
	_, r := s.SolveMinimizeLimited(sat.Budget{}, costs)
	out.stats = s.Stats()
	if r.Outcome != sat.Sat {
		return out, pl, nil
	}
	out.ok = true
	for _, id := range varIDs {
		bind, err := lookupBinding(e.After, id)
		if err != nil {
			return out, pl, err
		}
		afterDec := refDecideOn(bindingACL(e.After, bind), nb)
		got := acl.Action(s.Value(vars[id]))
		if got == afterDec {
			continue
		}
		out.actions = append(out.actions, FixAction{BindingID: id, Rule: acl.Rule{Action: got, Match: nb}})
	}
	return out, pl, nil
}

func refApplyFixActions(fixed *topo.Network, actions []FixAction) error {
	for _, a := range actions {
		fb, err := lookupBinding(fixed, a.BindingID)
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

func refSimplifyBounded(a *acl.ACL) *acl.ACL {
	const exactLimit = 64
	fast := acl.SimplifyFast(a)
	if len(fast.Rules) <= exactLimit {
		return acl.Simplify(fast)
	}
	return fast
}

// --- the comparison ---

// fixOracleCase builds one engine; it is called once for the per-FEC
// comparison and once for the whole call, so it must be deterministic.
type fixOracleCase struct {
	name    string
	mk      func() *Engine
	mustFix bool // the case is there for its neighborhoods: finding none is a failure
}

// aclTexts renders every bound ACL of a network, keyed by binding ID.
func aclTexts(n *topo.Network) map[string]string {
	out := map[string]string{}
	for _, d := range n.SortedDevices() {
		for _, i := range d.SortedInterfaces() {
			for _, dir := range []topo.Direction{topo.In, topo.Out} {
				if a := i.ACL(dir); a != nil {
					out[topo.ACLBinding{Iface: i, Dir: dir}.ID()] = a.String()
				}
			}
		}
	}
	return out
}

// fixOracleStats is what one case saw, for the coverage test.
type fixOracleStats struct {
	neighborhoods, unfixable, actions int
	multiNeighborhoodFEC              bool // a FEC with several neighborhoods: priors mattered
	ctrlOnFixedFEC                    bool // a control applied to a shape of a FEC that needed fixing
	shapesShared                      bool // a fixed FEC's paths outnumber its shapes
	portNeighborhood                  bool // a neighborhood narrower than "any" in a port
	memoHit                           bool // a neighborhood whose placement its FEC had solved before
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

func runFixOracleCase(t *testing.T, c fixOracleCase) fixOracleStats {
	t.Helper()
	var st fixOracleStats
	e := c.mk()
	ctx := e.checkContext()
	e.prepareIncremental(ctx)
	ix := e.compileFix(ctx)

	ref := refConstancyOf(e, ctx)
	if !slices.Equal(ref.dstLos, ix.dstLos) || !slices.Equal(ref.dstHis, ix.dstHis) ||
		!slices.Equal(ref.srcLos, ix.srcLos) || !slices.Equal(ref.srcHis, ix.srcHis) {
		t.Fatalf("port boundaries differ from reference")
	}
	allowSet := map[string]bool{}
	for _, b := range e.Allow {
		allowSet[b.ID()] = true
	}

	var wantNbs, wantUnfixable []header.Match
	var wantActions []FixAction
	var wantPlacements int64 // distinct placement keys, FEC by FEC
	for i := 0; i < ctx.nfec; i++ {
		fec := ctx.fec(i)
		if e.Opts.UseDifferential && !e.fecTouchesDiff(fec, ctx.diff) {
			continue // as the check loop's differential skip does
		}
		shapes := ix.shapesOn(ctx.src.PathIndices(i))
		// The FEC's counterexamples, path by path (refPathViolations); the
		// seek takes their least packet and excludes each neighborhood.
		perPath, ok := refPathViolations(e, ctx, fec)
		if !ok {
			t.Fatalf("FEC %d: the per-path reference overflows the cube budget", i)
		}
		viol := pset.Empty()
		for _, f := range perPath {
			viol = viol.Union(f)
		}
		refCons := ref
		refCons.priors = nil
		cons := ix.constancyOn(fec)
		memo := map[string]placed{}
		found := 0
		for h, more := viol.MinPacket(); more; h, more = viol.MinPacket() {
			if found > 500 {
				t.Fatalf("FEC %d: more than 500 neighborhoods", i)
			}
			what := fmt.Sprintf("FEC %d neighborhood %d", i, found)
			nb := refExpandNeighborhood(h, fec, &refCons)
			if got := expandNeighborhood(h, fec, cons); got != nb {
				t.Fatalf("%s: expanded %v to %v, reference %v", what, h, got, nb)
			}

			want, rp, err := refSolveNeighborhood(e, fec, nb, allowSet)
			if err != nil {
				t.Fatalf("%s: reference placement: %v", what, err)
			}
			key, err := ix.placementKey(shapes, nb)
			if err != nil {
				t.Fatalf("%s: placement key: %v", what, err)
			}
			ps := smt.NewSolver()
			pl, err := ix.statePlacement(ps, shapes, key)
			if err != nil {
				t.Fatalf("%s: placement: %v", what, err)
			}
			var gotVars []string
			for _, bi := range pl.vars {
				id := ix.bindings[bi].id
				gotVars = append(gotVars, id)
				if pl.vals[bi] != rp.vars[id] {
					t.Fatalf("%s: variable at %s is %v, reference %v", what, id, pl.vals[bi], rp.vars[id])
				}
			}
			if !slices.Equal(gotVars, rp.varIDs) {
				t.Fatalf("%s: variables %v, reference %v", what, gotVars, rp.varIDs)
			}
			if !slices.Equal(pl.costs, rp.costs) {
				t.Fatalf("%s: costs %v, reference %v", what, pl.costs, rp.costs)
			}
			// Constants: the index drops bindings that are unbound and
			// closed to the plan (constant permit in the reference); every
			// other reference constant must be there with its value.
			consts := 0
			for bi, seen := range pl.seen {
				if fb := ix.bindings[bi]; seen && !fb.allowed {
					consts++
					if v, ok := rp.consts[fb.id]; !ok || pl.vals[bi] != ps.B.Const(v) {
						t.Fatalf("%s: constant at %s is %v, reference %v (present %v)", what, fb.id, pl.vals[bi], v, ok)
					}
				}
			}
			for id, v := range rp.consts {
				b, err := lookupBinding(e.Before, id)
				if err != nil {
					t.Fatal(err)
				}
				if bindingACL(e.Before, b) == nil && bindingACL(e.After, b) == nil {
					if !v {
						t.Fatalf("%s: unbound %s denies in the reference", what, id)
					}
					continue
				}
				consts--
			}
			if consts != 0 {
				t.Fatalf("%s: %d constants unaccounted for against the reference", what, consts)
			}

			got, err := e.solveNeighborhood(nil, ix, shapes, nb, map[string]placed{})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if got.ok != want.ok || got.stats != want.stats || !slices.Equal(got.actions, want.actions) {
				t.Fatalf("%s: placement ok=%v stats=%+v actions=%v\nreference ok=%v stats=%+v actions=%v",
					what, got.ok, got.stats, got.actions, want.ok, want.stats, want.actions)
			}
			// Through the FEC's memo, as fixFEC asks: a hit must give the
			// reference's plan for this neighborhood, on no solver.
			memoed, err := e.solveNeighborhood(nil, ix, shapes, nb, memo)
			if err != nil {
				t.Fatalf("%s: memoized: %v", what, err)
			}
			if memoed.ok != want.ok || !slices.Equal(memoed.actions, want.actions) || !memoed.solved && memoed.stats != (sat.Stats{}) {
				t.Fatalf("%s: memoized placement ok=%v solved=%v stats=%+v actions=%v\nreference ok=%v actions=%v",
					what, memoed.ok, memoed.solved, memoed.stats, memoed.actions, want.ok, want.actions)
			}
			st.memoHit = st.memoHit || !memoed.solved
			if memoed.solved {
				wantPlacements++
			}
			if want.ok {
				wantNbs = append(wantNbs, nb)
				wantActions = append(wantActions, want.actions...)
			} else {
				wantUnfixable = append(wantUnfixable, nb)
			}
			if !nb.DstPort.IsAny() || !nb.SrcPort.IsAny() {
				st.portNeighborhood = true
			}
			refCons.priors = append(refCons.priors, nb)
			cons.priors = append(cons.priors, nb)
			viol = viol.Subtract(pset.FromMatch(nb))
			found++
		}
		if found > 0 {
			st.multiNeighborhoodFEC = st.multiNeighborhoodFEC || found > 1
			st.shapesShared = st.shapesShared || len(shapes) < len(fec.Paths)
			for _, si := range shapes {
				st.ctrlOnFixedFEC = st.ctrlOnFixedFEC || len(ix.shapes[si].ctrls) > 0
			}
		}
	}
	st.neighborhoods, st.unfixable, st.actions = len(wantNbs), len(wantUnfixable), len(wantActions)

	// The whole call: the same neighborhoods and plan in FEC order, and
	// the same ACL text after apply + simplify.
	e2 := c.mk()
	m := obs.NewMetrics()
	e2.Opts.Obs = obs.NewObserver(nil, m, nil)
	res, err := e2.Fix()
	if err != nil {
		t.Fatal(err)
	}
	// Placements are solved once per distinct key of a FEC: no fewer (a
	// memo shared across FECs) and no more (a memo that misses).
	if got := m.Snapshot().Counters["fix.placements"]; got != wantPlacements {
		t.Fatalf("fix.placements = %d, the per-FEC reference solved %d", got, wantPlacements)
	}
	if !slices.Equal(res.Neighborhoods, wantNbs) {
		t.Fatalf("neighborhoods %v\nreference     %v", res.Neighborhoods, wantNbs)
	}
	if !slices.Equal(res.Unfixable, wantUnfixable) {
		t.Fatalf("unfixable %v\nreference %v", res.Unfixable, wantUnfixable)
	}
	if !slices.Equal(res.Actions, wantActions) {
		t.Fatalf("actions %v\nreference %v", res.Actions, wantActions)
	}
	refFixed := e2.After.Clone()
	if err := refApplyFixActions(refFixed, wantActions); err != nil {
		t.Fatal(err)
	}
	if e2.Opts.OptimizeSynthesis {
		touched := map[string]bool{}
		for _, a := range wantActions {
			if touched[a.BindingID] {
				continue
			}
			touched[a.BindingID] = true
			b, err := lookupBinding(refFixed, a.BindingID)
			if err != nil {
				t.Fatal(err)
			}
			b.Iface.SetACL(b.Dir, refSimplifyBounded(b.Iface.ACL(b.Dir)))
		}
	}
	want, got := aclTexts(refFixed), aclTexts(res.Fixed)
	for id, text := range want {
		if got[id] != text {
			t.Fatalf("fixed ACL at %s:\n  %s\nreference:\n  %s", id, got[id], text)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fixed network binds %d ACLs, reference %d", len(got), len(want))
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
					b, err := lookupBinding(e.Before, topo.ACLBinding{Iface: i, Dir: dir}.ID())
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
	// medium seed at 1%; the weekly full lane (make test-full) runs more.
	switch {
	case os.Getenv("JINJING_EXPERIMENTS_LARGE") != "":
		cases = append(cases, wanFixCases(netgen.Medium, []int64{1, 2, 42}, 1, 3, 5)...)
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

// TestQuickExpandMatchesLinearWalk holds expandNeighborhood's bisection
// to the reference's bit-by-bit walk from any packet of a FEC, not only
// from the least remaining counterexample the seek expands: random
// packets in random classes of random FECs of netgen small and medium
// (half of them with a source from a rule's source prefix and a
// destination port at a rule boundary), each against a random subset of
// what earlier draws on the same FEC expanded to as priors.
func TestQuickExpandMatchesLinearWalk(t *testing.T) {
	for _, size := range []netgen.Size{netgen.Small, netgen.Medium} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			e := WANFix(netgen.Build(netgen.DefaultConfig(size, 42)), 5, DefaultOptions())
			ctx := e.checkContext()
			e.prepareIncremental(ctx)
			ix := e.compileFix(ctx)
			ref := refConstancyOf(e, ctx)
			var srcs []header.Prefix
			for _, a := range ref.acls {
				for _, r := range a.Rules {
					if !r.Match.Src.IsAny() {
						srcs = append(srcs, r.Match.Src)
					}
				}
			}
			history := make([][]header.Match, ctx.nfec) // per FEC: what earlier draws expanded to
			inside := func(p header.Prefix, bits uint32) uint32 {
				return p.Addr | bits&^header.Prefix{Addr: ^uint32(0), Len: p.Len}.Canonical().Addr
			}
			var bounded, withPriors int
			prop := func(fecPick, classPick, dst, src, srcPick uint32, sport, dport uint16, proto uint8, priorMask uint64) bool {
				i := int(fecPick % uint32(ctx.nfec))
				fec := ctx.fec(i)
				h := header.Packet{DstIP: inside(fec.Classes[int(classPick%uint32(len(fec.Classes)))], dst),
					SrcIP: src, SrcPort: sport, DstPort: dport, Proto: proto}
				if srcPick%2 == 0 && len(srcs) > 0 {
					h.SrcIP = inside(srcs[int(srcPick/2)%len(srcs)], src)
					h.DstPort = ix.dstLos[int(dport)%len(ix.dstLos)]
				}
				cons, refCons := ix.constancyOn(fec), ref
				refCons.priors = nil
				for k, p := range history[i] {
					if priorMask>>(k%64)&1 == 1 && !p.Matches(h) {
						cons.priors = append(cons.priors, p)
						refCons.priors = append(refCons.priors, p)
					}
				}
				got, want := expandNeighborhood(h, fec, cons), refExpandNeighborhood(h, fec, &refCons)
				if got != want {
					t.Logf("FEC %d, packet %v, %d priors: expanded to %v, reference %v", i, h, len(cons.priors), got, want)
					return false
				}
				if 0 < got.Src.Len && got.Src.Len < 32 {
					bounded++
				}
				if len(cons.priors) > 0 {
					withPriors++
				}
				history[i] = append(history[i], got)
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(int64(size) + 1))}); err != nil {
				t.Fatal(err)
			}
			// The draws must reach what the bisection can get wrong: a
			// source stopped between /0 and /32, and priors in the way.
			if bounded < 200 || withPriors < 300 {
				t.Fatalf("of 1000 draws, %d stopped inside the source range and %d had priors", bounded, withPriors)
			}
		})
	}
}

// TestFixMemoKeepsWorkerCountsEqual pins what keeps the placement memo
// per FEC: on netgen small at 5%, where most neighborhoods reuse a
// placement, Fix at 1 and 8 workers gives the same actions,
// neighborhoods and solver counters. A memo shared across FECs would let
// scheduling decide which FEC pays for a shared placement.
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
	if n := int64(len(res[0].Neighborhoods)); placements[0] <= 0 || 2*placements[0] > n || placements[1] != placements[0] {
		t.Fatalf("placements %v for %d neighborhoods: want equal, and at most half", placements, n)
	}
	if !slices.Equal(res[0].Actions, res[1].Actions) || !slices.Equal(res[0].Neighborhoods, res[1].Neighborhoods) {
		t.Fatalf("plans differ between 1 and 8 workers: %d/%d actions, %d/%d neighborhoods",
			len(res[0].Actions), len(res[1].Actions), len(res[0].Neighborhoods), len(res[1].Neighborhoods))
	}
	if res[0].SolverStats != res[1].SolverStats {
		t.Fatalf("solver stats differ between 1 and 8 workers:\n%+v\n%+v", res[0].SolverStats, res[1].SolverStats)
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
			"a neighborhood":                   st.neighborhoods > 0,
			"a fixing action":                  st.actions > 0,
			"an unfixable neighborhood":        st.unfixable > 0,
			"several neighborhoods in one FEC": st.multiNeighborhoodFEC,
			"a control on a fixed FEC":         st.ctrlOnFixedFEC,
			"shared shapes on a fixed FEC":     st.shapesShared,
			"a port-bounded region":            st.portNeighborhood,
			"a placement memo hit":             st.memoHit,
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

// TestPlacementOnStraddlingMatchIsAnError pins the structured failure of
// the one state only a bug can produce: a placement asked about a region
// that is not atomic with respect to an on-path ACL returns an error —
// through solveNeighborhood, the way fixFEC and FixContext carry it —
// instead of panicking the worker.
func TestPlacementOnStraddlingMatchIsAnError(t *testing.T) {
	e := papernetFixCases()[0].mk()
	ctx := e.checkContext()
	e.prepareIncremental(ctx)
	ix := e.compileFix(ctx)
	// 0.0.0.0/5 covers 1/8..7/8: it straddles every "deny dst N.0.0.0/8".
	straddler := header.DstMatch(header.Prefix{Addr: 0, Len: 5})
	for i := 0; i < ctx.nfec; i++ {
		shapes := ix.shapesOn(ctx.src.PathIndices(i))
		_, err := e.solveNeighborhood(nil, ix, shapes, straddler, map[string]placed{})
		if err == nil {
			continue // this FEC's paths cross no ACL with a rule inside the region
		}
		if !strings.Contains(err.Error(), "not atomic") || !strings.Contains(err.Error(), straddler.String()) {
			t.Fatalf("unexpected error text: %v", err)
		}
		return
	}
	t.Fatal("no FEC rejected the straddling region")
}
