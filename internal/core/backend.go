package core

import (
	"slices"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/pset"
	"jinjing/internal/topo"
)

// This file is the check pipeline's two decision procedures for a FEC's
// Equation-3 query: the packet-set algebra, which decides every FEC it
// can within a cube budget, and the Tseitin+CDCL stack, which takes what
// overflows the budget. Both are complete on the queries they answer, so
// which one answers can never change a verdict — only its cost. Either
// reads of a path only its shape (see checkShape), and a FEC's hundreds
// of paths share a few. A violating FEC's counterexample comes from the
// set algebra (psetWitnessFEC) and, under controls or after an overflow,
// from a re-solve on a fresh solver (witnessFEC). Both are pure
// functions of the FEC and the ACL contents, so the route that decided
// a FEC never shows in its witness.

// psetCubeBudget is the hard cube cap for the pset backend: any set
// construction or per-shape difference that exceeds it abandons the FEC
// to the solver. It alone bounds the algebra's worst case (cube counts
// can be exponential in rule count): every construction is restricted to
// the FEC's class region, so cost follows the region, not the ACLs' mass,
// and no predictor guesses ahead of it.
const psetCubeBudget = 512

// encPair is one distinct encoded (before, after) ACL pair of the
// generation: its table IDs into checkCtx.acls. unchanged means the two
// IDs are equal, so the contents are; false means "treat as changed",
// which is always sound (a semantically equal pair classified as changed
// contributes an empty difference and restricts both products
// identically).
type encPair struct {
	ids       [2]int32
	unchanged bool
}

// checkShape is what Equation 3 reads of a path: the encoded pairs it
// crosses, as sorted distinct indices into checkCtx.encPairs (a decision
// conjunction has no order and no multiplicity), and the controls on its
// border pair, in precedence order. Paths of one shape state the same
// disjunct.
type checkShape struct {
	pairs []int32
	ctrls []int32
}

// pathWalk returns the generation's path interner: a binding resolves to
// the index of its encoded ID pair in encPairs — so the many bindings
// carrying one ACL content are one pair — and an unbound binding to
// nothing. Like resolveFEC and the witness pass, its only users, it is
// single-goroutine.
func (e *Engine) pathWalk(ctx *checkCtx) *pathInterner {
	if ctx.walk != nil {
		return ctx.walk
	}
	index := map[[2]int32]int32{}
	ctx.walk = newPathInterner(e.Controls, func(id string) int32 {
		ids, bound := ctx.ids[id]
		if !bound {
			return -1
		}
		i, ok := index[ids]
		if !ok {
			i = int32(len(ctx.encPairs))
			index[ids] = i
			ctx.encPairs = append(ctx.encPairs, encPair{ids: ids, unchanged: ids[0] == ids[1]})
		}
		return i
	})
	return ctx.walk
}

// compileShapes reduces the FEC's paths to their distinct shapes, in
// first-occurrence order.
func (e *Engine) compileShapes(ctx *checkCtx, fec topo.FEC) []checkShape {
	walk := e.pathWalk(ctx)
	var (
		set    shapeSet
		shapes []checkShape
		pairs  []int32
	)
	for _, p := range fec.Paths {
		pairs = walk.crossed(pairs[:0], p)
		slices.Sort(pairs)
		pairs = slices.Compact(pairs)
		ctrls := walk.ctrls(p)
		if _, fresh := set.add(pairs, ctrls); fresh {
			shapes = append(shapes, checkShape{pairs: slices.Clone(pairs), ctrls: ctrls})
		}
	}
	return shapes
}

// permittedWithin is permitted(ACL id) ∩ region under the cube budget,
// by the region fold of the ACL's destination index, built on first use:
// at most once per generation. ok=false reports an overflow.
func (ctx *checkCtx) permittedWithin(id int32, region pset.Set) (pset.Set, bool) {
	if ctx.aclIx[id] == nil {
		ctx.aclIx[id] = pset.NewIndex(ctx.acls[id])
	}
	s, n, ok := ctx.aclIx[id].PermittedSetWithin(region, psetCubeBudget)
	ctx.folded += int64(n)
	return s, ok
}

// diffWithin is the part of region inside the pair's differential rule
// matches: by Theorem 4.1, any packet the two ACLs decide differently
// matches a differential rule, so this bounds where in region the pair
// can flip — read off the rule lists alone, with no permitted set. The
// rules are indexed by destination on first use, and their union is
// never built: canonicalizing it is quadratic in a rule count that
// synthesis can push past 10^4.
func (ctx *checkCtx) diffWithin(ids [2]int32, region pset.Set) pset.Set {
	x, ok := ctx.diffIx[ids]
	if !ok {
		x = pset.NewIndex(&acl.ACL{Rules: acl.Differential(ctx.acls[ids[0]], ctx.acls[ids[1]])})
		ctx.diffIx[ids] = x
	}
	s, n := x.MatchesWithin(region)
	ctx.folded += int64(n)
	return s
}

// pairsDiff computes the exact set of region packets that one path,
// crossing the given encoded pairs with no control on it (desired_p =
// c_p), decides differently across the update — the set the canonical
// pset witness is drawn from (psetDecideFEC reaches the verdict per FEC,
// not per path). Hierarchical like the decision:
//
//  1. The path's symmetric difference is contained in the union of its
//     changed pairs' differential-rule matches (a packet deciding
//     differently in a conjunction must decide differently in some
//     conjunct, and a conjunct's difference lies inside its
//     differential rules by Theorem 4.1), so region' = ⋃ region ∩
//     matches_i overapproximates the packets the path can possibly flip
//     within the region.
//  2. Within region', the changed pairs' exact difference is
//     (region' ∩ ⋂ before_i) ⊖ (region' ∩ ⋂ after_i), with each factor
//     built by the region-restricted first-match fold
//     (PermittedSetWithin).
//  3. The surviving difference must still pass every unchanged pair
//     (restriction distributes: (A∩X) ⊖ (B∩X) = (A⊖B) ∩ X), again by
//     region-restricted folds with early exit on empty.
//
// The result is exact, not an overapproximation: outside region' the
// path provably cannot flip. ok=false reports a cube-budget bail-out;
// the caller falls back to the solver.
func (ctx *checkCtx) pairsDiff(pairs []int32, region pset.Set) (pset.Set, bool) {
	var changed, unchanged [][2]int32
	regionPrime := pset.Empty()
	for _, pi := range pairs {
		ep := &ctx.encPairs[pi]
		if ep.unchanged {
			unchanged = append(unchanged, ep.ids)
			continue
		}
		changed = append(changed, ep.ids)
		if in := ctx.diffWithin(ep.ids, region); !in.IsEmpty() {
			regionPrime = regionPrime.Union(in)
		}
	}
	if regionPrime.IsEmpty() {
		return pset.Empty(), true
	}
	if regionPrime.Cubes() > psetCubeBudget {
		return pset.Empty(), false
	}
	before, after := regionPrime, regionPrime
	for _, pr := range changed {
		wb, bok := ctx.permittedWithin(pr[0], regionPrime)
		if !bok {
			return pset.Empty(), false
		}
		wa, aok := ctx.permittedWithin(pr[1], regionPrime)
		if !aok {
			return pset.Empty(), false
		}
		before = before.Intersect(wb)
		after = after.Intersect(wa)
		if before.Cubes() > psetCubeBudget || after.Cubes() > psetCubeBudget {
			return pset.Empty(), false
		}
	}
	diff := before.Subtract(after).Union(after.Subtract(before))
	for _, pr := range unchanged {
		if diff.IsEmpty() {
			return diff, true
		}
		if diff.Cubes() > psetCubeBudget {
			return pset.Empty(), false
		}
		// The unchanged ACL's permitted set restricted to the surviving
		// difference, computed directly within that (small) region. The
		// before ACL stands for both snapshots: the pair is equivalent.
		within, wok := ctx.permittedWithin(pr[0], diff)
		if !wok {
			return pset.Empty(), false
		}
		diff = within
	}
	return diff, true
}

// regionSets memoizes, for one FEC, each crossed pair's before and after
// permitted sets restricted to a region of the FEC's traffic — built by
// the region-seeded first-match fold, so no ACL's global set ever exists —
// and whether the two differ there. A syntactically unchanged pair is
// built once for both sides. The memo is only as good as its region: one
// per FEC, never carried to the next.
type regionSets struct {
	region pset.Set
	within map[int32]pairSets
}

type pairSets struct {
	sides  [2]pset.Set // before, after
	differ bool
}

func (rs *regionSets) of(ctx *checkCtx, pi int32) (ps pairSets, ok bool) {
	if ps, ok = rs.within[pi]; ok {
		return ps, true
	}
	ep := &ctx.encPairs[pi]
	if ps.sides[0], ok = ctx.permittedWithin(ep.ids[0], rs.region); !ok {
		return ps, false
	}
	ps.sides[1] = ps.sides[0]
	if !ep.unchanged {
		if ps.sides[1], ok = ctx.permittedWithin(ep.ids[1], rs.region); !ok {
			return ps, false
		}
		ps.differ = !ps.sides[0].Equal(ps.sides[1])
	}
	if rs.within == nil {
		rs.within = map[int32]pairSets{}
	}
	rs.within[pi] = ps
	return ps, true
}

// anyDiffer reports whether some pair of the list decides part of the
// region differently across the update. Only changed pairs are built.
func (rs *regionSets) anyDiffer(ctx *checkCtx, pairs []int32) (differ, ok bool) {
	for _, pi := range pairs {
		if ctx.encPairs[pi].unchanged {
			continue
		}
		ps, ok := rs.of(ctx, pi)
		if !ok {
			return false, false
		}
		if ps.differ {
			return true, true
		}
	}
	return false, true
}

// decisionSets computes a shape's before/after decision sets within the
// region: region ∩ ⋂ permitted(pair side), the conjunction pathFormulas
// builds, over sets that never leave the region.
func (rs *regionSets) decisionSets(ctx *checkCtx, pairs []int32) (before, after pset.Set, ok bool) {
	before, after = rs.region, rs.region
	for _, pi := range pairs {
		ps, ok := rs.of(ctx, pi)
		if !ok {
			return before, after, false
		}
		before = before.Intersect(ps.sides[0])
		after = after.Intersect(ps.sides[1])
		if before.Cubes() > psetCubeBudget || after.Cubes() > psetCubeBudget {
			return before, after, false
		}
	}
	return before, after, true
}

// flipRegion bounds where, within the FEC's class region, any of its
// shapes can have desired_p ≠ c'_p: a changed pair decides a packet
// differently only inside its differential rules' matches (Theorem 4.1),
// and a control rewrites a decision only inside its match; everywhere
// else desired_p = c_p = c'_p on every shape. Computed from rule and
// control matches alone — a cube overlap scan over the differential
// rules whose destination meets the region, no permitted set.
func (e *Engine) flipRegion(ctx *checkCtx, region pset.Set, shapes []checkShape) pset.Set {
	out := pset.Empty()
	add := func(in pset.Set) {
		if !in.IsEmpty() {
			out = out.Union(in)
		}
	}
	seenPair, seenCtrl := map[int32]bool{}, map[int32]bool{}
	for _, sh := range shapes {
		for _, pi := range sh.pairs {
			if ep := &ctx.encPairs[pi]; !ep.unchanged && !seenPair[pi] {
				seenPair[pi] = true
				add(ctx.diffWithin(ep.ids, region))
			}
		}
		for _, ci := range sh.ctrls {
			if !seenCtrl[ci] {
				seenCtrl[ci] = true
				add(region.IntersectMatches([]header.Match{e.Controls[ci].Match}))
			}
		}
	}
	return out
}

// fecRegion is the FEC's class region as a packet set.
func fecRegion(fec topo.FEC) pset.Set {
	region := pset.Empty()
	for _, c := range fec.Classes {
		region = region.Union(pset.FromMatch(header.DstMatch(c)))
	}
	return region
}

// psetDecideFEC decides the FEC's Equation-3 query in the packet-set
// algebra, over its distinct path shapes: violating iff some shape's
// desired decision set differs from its after set — the set-level mirror
// of ⋁_p ¬(desired_p ⇔ c'_p) ∧ ψ. One procedure serves every shape, with
// or without controls, and keeps consistent FECs — the overwhelming
// majority — off set construction altogether:
//
//  1. Everything any shape can flip lies in the FEC's flip region (see
//     flipRegion). Empty — every FEC whose classes miss the edited and
//     the controlled traffic — discharges the FEC on a cube overlap scan.
//  2. Within the flip region each crossed pair's before and after
//     permitted sets are built once per FEC (regionSets): cost scales
//     with the region, not with the ACL's global cube complexity, and
//     the destination-indexed folds visit only the rules that can meet
//     it (permittedWithin, diffWithin).
//  3. A shape with no control on it whose changed pairs all agree on
//     the flip region is consistent as it stands: its unchanged pairs
//     are never built.
//  4. Otherwise the shape's decision sets are intersections of those
//     small sets, its desired set the controls folded over the before
//     set (desiredSet; the before set itself when none applies, and a
//     control missing the flip region applies to nothing). The
//     comparison is exact: outside the flip region no shape can differ.
//
// ok=false reports a cube-budget bail-out mid-solve; the caller falls
// back to the solver, and the verdict (when ok) is exactly the one the
// solver would return. regionCubes sizes the flip region.
func (e *Engine) psetDecideFEC(ctx *checkCtx, fec topo.FEC, shapes []checkShape) (violating, ok bool, regionCubes int) {
	rs := regionSets{region: e.flipRegion(ctx, fecRegion(fec), shapes)}
	regionCubes = rs.region.Cubes()
	if rs.region.IsEmpty() {
		return false, true, regionCubes
	}
	if regionCubes > psetCubeBudget {
		return false, false, regionCubes
	}
	for _, sh := range shapes {
		if len(sh.ctrls) == 0 {
			differ, ok := rs.anyDiffer(ctx, sh.pairs)
			if !ok {
				return false, false, regionCubes
			}
			if !differ {
				continue
			}
		}
		before, after, ok := rs.decisionSets(ctx, sh.pairs)
		if !ok {
			return false, false, regionCubes
		}
		desired := e.desiredSet(sh.ctrls, before, rs.region)
		if desired.Cubes() > psetCubeBudget {
			return false, false, regionCubes
		}
		if !desired.Equal(after) {
			return true, true, regionCubes
		}
	}
	return false, true, regionCubes
}

// psetWitnessFEC derives the canonical counterexample for a violating
// control-free FEC in the set algebra: the least packet (pset.MinPacket
// order) of the first violating path's exact difference set. Like
// witnessFEC it is a pure function of the FEC and the encoded ACL
// contents, and it is attempted for every violating FEC whichever route
// decided it, so witnesses stay byte-identical across routes, worker
// counts, and cache states. ok=false (controls in scope, or a
// cube-budget bail-out before a violating path is found) sends the
// caller to witnessFEC. The violated-paths list is completed
// by concrete evaluation of every path on the chosen packet, mirroring
// the model evaluation of the per-path Iffs in witnessFEC.
func (e *Engine) psetWitnessFEC(ctx *checkCtx, fec topo.FEC) (Violation, bool) {
	if len(e.Controls) > 0 {
		return Violation{}, false
	}
	region := fecRegion(fec)
	walk := e.pathWalk(ctx)
	var pairs []int32
	for _, p := range fec.Paths {
		pairs = walk.crossed(pairs[:0], p)
		diff, ok := ctx.pairsDiff(pairs, region)
		if !ok {
			return Violation{}, false
		}
		if diff.IsEmpty() {
			continue
		}
		pkt, _ := diff.MinPacket()
		v := Violation{Packet: pkt, Classes: fec.Classes}
		memo := make(map[topo.ACLBinding]int8, 4*len(fec.Paths))
		for _, q := range fec.Paths {
			if e.pathFlipsDesired(ctx, memo, q, pkt) {
				v.Paths = append(v.Paths, q)
			}
		}
		if len(v.Paths) == 0 {
			panic("core: pset witness does not flip any path")
		}
		return v, true
	}
	// No path's difference survived — disagrees with the violating
	// verdict that prompted the witness request; let the solver pass
	// adjudicate (it panics on a genuine disagreement).
	return Violation{}, false
}

// pathFlipsDesired reports whether the path decides pkt differently from
// its desired decision, by direct rule-list evaluation: the
// desired decision is the before conjunction rewritten by the first
// (highest-priority) applicable control whose match covers the packet —
// the concrete evaluation of desiredFormula's Ite chain.
func (e *Engine) pathFlipsDesired(ctx *checkCtx, memo map[topo.ACLBinding]int8, p topo.Path, pkt header.Packet) bool {
	// memo bits: 1 = before permits, 2 = after permits, 4 = resolved.
	decide := func(b topo.ACLBinding) int8 {
		d, ok := memo[b]
		if !ok {
			d = 4 | 1 | 2 // unbound in both snapshots: permit-all either way
			if ids, bound := ctx.ids[b.ID()]; bound {
				d = 4
				if ctx.acls[ids[0]].Permits(pkt) {
					d |= 1
				}
				if ctx.acls[ids[1]].Permits(pkt) {
					d |= 2
				}
			}
			memo[b] = d
		}
		return d
	}
	before, after := true, true
	for _, h := range p.Hops {
		for _, b := range [2]topo.ACLBinding{{Iface: h.In, Dir: topo.In}, {Iface: h.Out, Dir: topo.Out}} {
			d := decide(b)
			if d&1 == 0 {
				before = false
			}
			if d&2 == 0 {
				after = false
			}
		}
	}
	desired := before
	for _, c := range e.Controls {
		if !c.AppliesTo(p) || !c.Match.Matches(pkt) {
			continue
		}
		switch c.Mode {
		case Isolate:
			desired = false
		case Open:
			desired = true
		case Maintain:
			desired = before
		}
		break
	}
	return desired != after
}

// desiredSet is desiredFormula in the set algebra: the applying controls
// fold in reverse priority order over the original decision set, each rewriting
// its matched region to the verb's value — Ite(match, val, out) becomes
// (match ∩ val) ∪ (out ∖ match). All operands live inside region (the
// FEC's flip region), so Open's "true" is the region itself, and a
// control whose match misses the region is the identity
// Ite(∅, val, out) = out: it is skipped before any set is built.
func (e *Engine) desiredSet(ctrls []int32, orig, region pset.Set) pset.Set {
	out := orig
	for k := len(ctrls) - 1; k >= 0; k-- {
		c := e.Controls[ctrls[k]]
		if !region.Overlaps(c.Match) {
			continue
		}
		var val pset.Set
		switch c.Mode {
		case Isolate:
			val = pset.Empty()
		case Open:
			val = region
		case Maintain:
			val = orig
		}
		m := pset.FromMatch(c.Match)
		out = m.Intersect(val).Union(out.Subtract(m))
	}
	return out
}
