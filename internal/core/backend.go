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
// of paths share a few. A violating FEC's counterexample is the least
// packet of the set the algebra decided it on (violations), with or
// without controls; only a FEC whose algebra overflows the budget is
// re-solved for one on a fresh solver (witnessFEC). Both are pure
// functions of the FEC and the ACL contents, so the route that decided a
// FEC never shows in its witness.

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
// region: region ∩ ⋂ permitted(pair side), the conjunction
// shapesViolationFormula builds, over sets that never leave the region.
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

// violations decides the FEC's Equation-3 query in the packet-set
// algebra, over its distinct path shapes, and returns its
// counterexamples: the first violating shape's desired ⊖ after, or with
// all the union over every shape — the set-level mirror of
// ⋁_p ¬(desired_p ⇔ c'_p) ∧ ψ. The FEC is violating iff the set is
// non-empty. One procedure serves every shape, with or without
// controls, and keeps consistent FECs — the overwhelming majority — off
// set construction altogether:
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
// The check's witness is the set's least packet: shapes are in
// first-path order, so it is the least packet the first violating path
// flips on. Fix seeks neighborhoods in the union (see FixContext). The
// procedure is pure, so both are functions of the FEC and the encoded
// ACL contents alone.
//
// ok=false reports a cube-budget overflow mid-solve; the caller falls
// back to the solver, and the verdict (when ok) is exactly the one the
// solver would return. regionCubes sizes the flip region.
func (e *Engine) violations(ctx *checkCtx, fec topo.FEC, shapes []checkShape, all bool) (v pset.Set, ok bool, regionCubes int) {
	rs := regionSets{region: e.flipRegion(ctx, fecRegion(fec), shapes)}
	regionCubes = rs.region.Cubes()
	if rs.region.IsEmpty() {
		return v, true, regionCubes
	}
	if regionCubes > psetCubeBudget {
		return v, false, regionCubes
	}
	for _, sh := range shapes {
		if len(sh.ctrls) == 0 {
			differ, ok := rs.anyDiffer(ctx, sh.pairs)
			if !ok {
				return v, false, regionCubes
			}
			if !differ {
				continue
			}
		}
		before, after, ok := rs.decisionSets(ctx, sh.pairs)
		if !ok {
			return v, false, regionCubes
		}
		desired := e.desiredSet(sh.ctrls, before, rs.region)
		if desired.Cubes() > psetCubeBudget {
			return v, false, regionCubes
		}
		flips := desired.Subtract(after).Union(after.Subtract(desired))
		if flips.IsEmpty() {
			continue
		}
		if !all {
			return flips, true, regionCubes
		}
		if v = v.Union(flips); v.Cubes() > psetCubeBudget {
			return v, false, regionCubes
		}
	}
	return v, true, regionCubes
}

// psetWitnessFEC completes a violating FEC's counterexample packet: the
// FEC's paths that flip on it, by concrete evaluation.
func (e *Engine) psetWitnessFEC(ctx *checkCtx, fec topo.FEC, pkt header.Packet) Violation {
	v := Violation{Packet: pkt, Classes: fec.Classes}
	memo := make(map[topo.ACLBinding]int8, 4*len(fec.Paths))
	for _, p := range fec.Paths {
		if e.pathFlipsDesired(ctx, memo, p, pkt) {
			v.Paths = append(v.Paths, p)
		}
	}
	if len(v.Paths) == 0 {
		panic("core: pset witness does not flip any path")
	}
	return v
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
