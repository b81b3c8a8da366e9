package core

import (
	"slices"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/pset"
	"jinjing/internal/topo"
)

// This file is the check pipeline's decision procedure for a FEC's
// Equation-3 query: the packet-set algebra, over the FEC's distinct path
// shapes (see checkShape), of which a FEC's hundreds of paths share a
// few. Every set it builds is bounded by a cube budget; a flip region
// whose sets overflow it is split and decided piece by piece (see
// violations), so the algebra answers every FEC and the check runs no
// solver. A violating FEC's counterexample is the least packet of the
// set it was decided on, with or without controls, and that set is what
// fix seeks neighborhoods in. Both are pure functions of the FEC and the
// ACL contents.

// psetCubeBudget bounds every set the algebra builds for a FEC: a set
// construction or per-shape difference that exceeds it abandons the
// region it was built on, which violations then splits. It alone bounds
// the algebra's worst case (cube counts can be exponential in rule
// count): every construction is restricted to a piece of the FEC's class
// region, so cost follows the region, not the ACLs' mass. A variable only
// so that tests can lower it.
var psetCubeBudget = 512

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
// region: region ∩ ⋂ permitted(pair side), the conjunction of its pairs'
// decisions, over sets that never leave the region.
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
//  2. The region is decided whole (decideRegion) if every set it takes
//     fits the cube budget. Otherwise it is split (splitRegion) and the
//     pieces are decided in turn, lower piece first, each split again
//     while it overflows; in first-violation mode the split stops at the
//     first violating piece. No shape can flip outside the flip region,
//     so deciding its pieces is exact, and the split always ends: a piece
//     that no rule or control match straddles fits any budget, and each
//     split narrows a field toward the matches' finitely many bounds.
//
// The check's witness is the set's least packet: shapes are in
// first-path order, so on a region decided whole it is the least packet
// the first violating path flips on, and on a split one the least such
// packet of the first violating piece, in a fixed piece order. Fix seeks
// neighborhoods in the find-all union, which has no cube cap (see
// FixContext). The procedure is pure, so both are functions of the FEC
// and the encoded ACL contents alone.
//
// The call's canceller is polled before each piece, so Deadline bounds a
// split: ok=false reports a cancellation, and v is then incomplete.
func (e *Engine) violations(cn *canceller, ctx *checkCtx, fec topo.FEC, shapes []checkShape, all bool) (v pset.Set, ds decideStats, ok bool) {
	region := e.flipRegion(ctx, fecRegion(fec), shapes)
	ds.regionCubes = region.Cubes()
	if region.IsEmpty() {
		return v, ds, true
	}
	pending := []pset.Set{region} // a stack: the next piece is last
	for len(pending) > 0 {
		if cn.cancelled() {
			return v, ds, false
		}
		piece := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		flips, fits := e.decideRegion(ctx, piece, shapes, all)
		if !fits {
			ds.split = true
			lo, hi := e.splitRegion(ctx, piece, shapes)
			pending = append(pending, hi, lo)
			continue
		}
		ds.leaves++
		if flips.IsEmpty() {
			continue
		}
		if !all {
			return flips, ds, true
		}
		v = v.Union(flips)
	}
	return v, ds, true
}

// decideStats describes how violations decided a FEC: the size of its
// flip region, whether the region overflowed the cube budget and was
// split, and how many pieces were decided.
type decideStats struct {
	regionCubes, leaves int
	split               bool
}

// decideRegion decides the shapes on one region inside the FEC's flip
// region and returns what they flip there, as violations does (the first
// violating shape's flips, or with all their union). fits=false reports a
// set past the cube budget.
//
// A shape with no control on it whose changed pairs all agree on the
// region is consistent as it stands: its unchanged pairs are never
// built. Otherwise its decision sets are intersections of per-pair sets
// built once per region (regionSets), by folds that visit only the rules
// that can meet it, and its desired set is the controls folded over the
// before set (desiredSet; the before set itself when none applies).
func (e *Engine) decideRegion(ctx *checkCtx, region pset.Set, shapes []checkShape, all bool) (v pset.Set, fits bool) {
	if region.Cubes() > psetCubeBudget {
		return v, false
	}
	rs := regionSets{region: region}
	for _, sh := range shapes {
		if len(sh.ctrls) == 0 {
			differ, ok := rs.anyDiffer(ctx, sh.pairs)
			if !ok {
				return v, false
			}
			if !differ {
				continue
			}
		}
		before, after, ok := rs.decisionSets(ctx, sh.pairs)
		if !ok {
			return v, false
		}
		desired := e.desiredSet(sh.ctrls, before, region)
		if desired.Cubes() > psetCubeBudget {
			return v, false
		}
		flips := desired.Subtract(after).Union(after.Subtract(desired))
		if flips.IsEmpty() {
			continue
		}
		if !all {
			return flips, true
		}
		if v = v.Union(flips); v.Cubes() > psetCubeBudget {
			return v, false
		}
	}
	return v, true
}

// splitRegion cuts a region that overflowed the cube budget in two,
// lower piece first. A region of several cubes splits into the halves of
// its cube list. A one-cube region splits on the first match that meets
// it without containing it — the shapes' rules in shape, pair, side and
// rule order, then each shape's controls — on the first field (src, dst,
// sport, dport, proto) the match does not contain: a prefix gains a bit,
// and a range is cut at the match's bound inside it. Were no match to
// straddle the cube, every ACL would permit all of it or none and every
// control would cover it or miss it, so every set would be the cube or
// empty and the region could not have overflowed.
func (e *Engine) splitRegion(ctx *checkCtx, region pset.Set, shapes []checkShape) (lo, hi pset.Set) {
	c, one := region.Cube()
	if !one {
		return region.Halves()
	}
	cuts := func(m header.Match) bool { return m.Overlaps(c) && !m.Contains(c) }
	for _, sh := range shapes {
		for _, pi := range sh.pairs {
			for _, id := range ctx.encPairs[pi].ids {
				for _, r := range ctx.acls[id].Rules {
					if cuts(r.Match) {
						return cutCube(c, r.Match)
					}
				}
			}
		}
		for _, ci := range sh.ctrls {
			if m := e.Controls[ci].Match; cuts(m) {
				return cutCube(c, m)
			}
		}
	}
	panic("core: a cube no match straddles overflowed the cube budget")
}

// cutCube splits cube c on a match m that meets it without containing
// it, on the first field where m does not contain c: a prefix is
// extended by one bit, and a range is cut at m.Lo when m starts inside
// it, else at m.Hi+1. Either way both pieces are non-empty, the lower
// comes first, and m no longer straddles the field.
func cutCube(c, m header.Match) (lo, hi pset.Set) {
	l, h := c, c
	switch {
	case !m.Src.Contains(c.Src):
		l.Src, h.Src = c.Src.Halves()
	case !m.Dst.Contains(c.Dst):
		l.Dst, h.Dst = c.Dst.Halves()
	case !m.SrcPort.Contains(c.SrcPort):
		l.SrcPort.Hi, h.SrcPort.Lo = cutRange(c.SrcPort.Lo, m.SrcPort.Lo, m.SrcPort.Hi)
	case !m.DstPort.Contains(c.DstPort):
		l.DstPort.Hi, h.DstPort.Lo = cutRange(c.DstPort.Lo, m.DstPort.Lo, m.DstPort.Hi)
	default:
		lh, hl := cutRange(uint16(c.Proto.Lo), uint16(m.Proto.Lo), uint16(m.Proto.Hi))
		l.Proto.Hi, h.Proto.Lo = uint8(lh), uint8(hl)
	}
	if l == c || h == c {
		panic("core: a split did not narrow the region") // it would never end
	}
	return pset.FromMatch(l), pset.FromMatch(h)
}

// cutRange is where a range starting at lo is cut by an overlapping
// match range [mlo, mhi] that does not contain it: the lower piece's Hi
// and the upper piece's Lo.
func cutRange(lo, mlo, mhi uint16) (loHi, hiLo uint16) {
	if mlo > lo {
		return mlo - 1, mlo
	}
	return mhi, mhi + 1
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
