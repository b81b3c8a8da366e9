package core

import (
	"slices"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/pset"
	"jinjing/internal/topo"
)

// fixIndex is what one FixContext call resolves before its FEC loop:
// everything the region split and placement (Equation 7) need of the
// network that does not depend on the region. A large WAN binds a few
// dozen distinct ACLs at a hundred places and routes a FEC over hundreds
// of paths of a few dozen shapes; the index keeps one region index per
// distinct ACL and asserts one placement constraint per shape. Read-only
// once built: the FEC loop shares it across workers.
type fixIndex struct {
	// acls are the distinct decision models of F_Ω ∪ F'_Ω (the full ACLs
	// of every in-scope binding, before and after), ctrls the engine's
	// controls.
	acls  []fixACL
	ctrls []Control

	bindings []fixBinding // the bindings a constraint can read, in first-crossing order
	shapes   []fixShape   // distinct, in first-occurrence order over the paths
	shapeSet              // per path: its index into shapes
}

// fixACL is one distinct ACL: its rules, and its region index over the
// destination index the ACL table builds once per content.
type fixACL struct {
	acl *acl.ACL
	set *pset.Index
}

// fixBinding is one crossed binding that carries an ACL in either
// snapshot or is open to the plan, resolved once: the binding (Before's),
// its ACL in each snapshot as an index into fixIndex.acls (-1: unbound
// there, permits), and whether the plan may place rules on it.
type fixBinding struct {
	b             topo.ACLBinding
	before, after int32
	allowed       bool
	// err is set when an allowed binding does not resolve on the After
	// snapshot: no rule can be placed there, and a placement that would
	// make it a decision variable fails with it.
	err error
}

// fixShape is the part of a path the placement constraint reads: the
// fixBindings crossed, in traversal order, and the controls applying to
// the path's (entry, exit) pair, in precedence order.
type fixShape struct {
	bindings []int32
	ctrls    []int32
}

// compileFix builds the index over the forwarding index's paths.
func (e *Engine) compileFix(ctx *checkCtx) *fixIndex {
	ix := &fixIndex{ctrls: e.Controls}

	// Distinct ACLs, by the table IDs the check context drew: an update
	// clones the bindings it leaves alone, and one template is stamped on
	// many. The table's trie for a content serves every fix call and the
	// check before it.
	local := make([]int32, len(ctx.acls)) // table ID -> 1 + index into ix.acls
	for _, p := range ctx.pairs {
		for side, a := range [2]*acl.ACL{p.before, p.after} {
			if id := p.ids[side]; a != nil && local[id] == 0 {
				a, dst := ctx.tab.index(id)
				ix.acls = append(ix.acls, fixACL{acl: a, set: pset.NewIndex(a, dst)})
				local[id] = int32(len(ix.acls))
			}
		}
	}

	var allowed bindingTable[bool]
	for _, b := range e.Allow {
		if b, err := moveBinding(b, e.Before); err == nil {
			*allowed.at(b) = true
		}
	}
	words := ctx.words.on(e.Before)
	walk := &pathInterner{resolve: func(b topo.ACLBinding) int32 {
		fb := fixBinding{b: b, before: -1, after: -1, allowed: *allowed.at(b)}
		if w := words[bindingOrd(b)]; w != 0 {
			// An unbound side is the permit-all content, which local
			// knows only where some binding carries it: -1 permits alike.
			ids := wordPair(w)
			fb.before, fb.after = local[ids[0]]-1, local[ids[1]]-1
		} else if !fb.allowed {
			// Unbound in both snapshots and closed to the plan: it
			// permits whatever the region, so no constraint reads it.
			return -1
		}
		if fb.allowed {
			_, fb.err = moveBinding(b, e.After)
		}
		ix.bindings = append(ix.bindings, fb)
		return int32(len(ix.bindings) - 1)
	}}
	var crossed []int32
	ctrlsOf := map[uint64][]int32{}
	for _, p := range ctx.src.Paths() {
		crossed = walk.crossed(crossed[:0], p)
		ctrls := e.ctrlsOn(ctrlsOf, p)
		if _, fresh := ix.add(crossed, ctrls); fresh {
			ix.shapes = append(ix.shapes, fixShape{bindings: slices.Clone(crossed), ctrls: ctrls})
		}
	}
	return ix
}

// fecReads is what the placement keys of a FEC read: the distinct ACLs
// its shapes' bindings carry in either snapshot (indices into
// fixIndex.acls, in first-crossing order) and the distinct controls on
// its shapes. One that decides all of the FEC's counterexamples alike
// decides each of its regions so: it is decided once, in fixed, and
// only the others (acls, ctrls) split regions.
type fecReads struct {
	acls, ctrls []int32
	fixed       regionDecisions
}

// readsOn lists what a FEC on shapes reads, split over viol, its
// counterexamples.
func (ix *fixIndex) readsOn(shapes []int32, viol pset.Set) fecReads {
	r := fecReads{fixed: regionDecisions{permit: make([]bool, len(ix.acls)), ctrlIn: make([]bool, len(ix.ctrls))}}
	seenACL, seenCtrl := make([]bool, len(ix.acls)), make([]bool, len(ix.ctrls))
	for _, si := range shapes {
		sh := &ix.shapes[si]
		for _, bi := range sh.bindings {
			for _, ai := range [2]int32{ix.bindings[bi].before, ix.bindings[bi].after} {
				if ai < 0 || seenACL[ai] {
					continue
				}
				seenACL[ai] = true
				if permit, uniform := ix.acls[ai].uniformOn(viol); uniform {
					r.fixed.permit[ai] = permit
				} else {
					r.acls = append(r.acls, ai)
				}
			}
		}
		for _, ci := range sh.ctrls {
			if seenCtrl[ci] {
				continue
			}
			seenCtrl[ci] = true
			m := ix.ctrls[ci].Match
			switch {
			case !viol.Overlaps(m):
			case viol.Subtract(pset.FromMatch(m)).IsEmpty():
				r.fixed.ctrlIn[ci] = true
			default:
				r.ctrls = append(r.ctrls, ci)
			}
		}
	}
	return r
}

// uniformOn reports whether the ACL decides all of set alike, and
// whether it permits it: where no rule meets the set its default decides
// it, and otherwise its permitted part is all of the set or none.
func (a *fixACL) uniformOn(set pset.Set) (permit, uniform bool) {
	if a.set.MeetingWithin(set) == 0 {
		return a.acl.Default == acl.Permit, true
	}
	permitted, _, ok := a.set.PermittedSetWithin(set, psetCubeBudget)
	if !ok {
		return false, false
	}
	if permitted.IsEmpty() {
		return false, true
	}
	all := set.Subtract(permitted).IsEmpty()
	return all, all
}

// regionOf returns p's placement region within set, which holds p: the
// packets of set that every ACL and control in reads decides as it
// decides p, with those decisions. Each ACL's permitted part is folded
// within the region narrowed so far, and the region keeps the part, or
// the rest, that holds p; a fold past the cube budget narrows the region
// to the piece of a split that holds p (holding) and folds again. So a
// region is one decision vector's packets of set, or a piece of them.
func (ix *fixIndex) regionOf(set pset.Set, p header.Packet, reads fecReads) (pset.Set, regionDecisions) {
	dec := regionDecisions{permit: slices.Clone(reads.fixed.permit), ctrlIn: slices.Clone(reads.fixed.ctrlIn)}
	region := set
	for _, ai := range reads.acls {
		a := &ix.acls[ai]
		permitted, _, ok := a.set.PermittedSetWithin(region, psetCubeBudget)
		for !ok {
			region = holding(region, p, a.acl.Rules)
			permitted, _, ok = a.set.PermittedSetWithin(region, psetCubeBudget)
		}
		if dec.permit[ai] = permitted.Contains(p); dec.permit[ai] {
			region = permitted
		} else {
			region = region.Subtract(permitted)
		}
	}
	for _, ci := range reads.ctrls {
		m := ix.ctrls[ci].Match
		if dec.ctrlIn[ci] = m.Matches(p); dec.ctrlIn[ci] {
			region = region.IntersectMatches([]header.Match{m})
		} else {
			region = region.Subtract(pset.FromMatch(m))
		}
	}
	return region, dec
}

// holding splits a region whose fold overflowed the cube budget as the
// check splits a flip region (splitRegion), and returns the piece that
// holds p: a region of several cubes splits into the halves of its cube
// list, and a one-cube region on the first of the ACL's rules that meets
// it without containing it. Were no rule to straddle the cube, the ACL
// would permit all of it or none, and its fold could not overflow.
func holding(region pset.Set, p header.Packet, rules []acl.Rule) pset.Set {
	var lo, hi pset.Set
	if c, one := region.Cube(); one {
		k := slices.IndexFunc(rules, func(r acl.Rule) bool { return r.Match.Overlaps(c) && !r.Match.Contains(c) })
		if k < 0 {
			panic("core: a cube no rule straddles overflowed the cube budget")
		}
		lo, hi = cutCube(c, rules[k].Match)
	} else {
		lo, hi = region.Halves()
	}
	if lo.Contains(p) {
		return lo
	}
	return hi
}

// regionDecisions are the decisions of one placement region, made once
// by its FEC's reads and its split: per distinct ACL whether it permits,
// per control whether its match holds the region. Only the ACLs and
// controls the region's FEC reads are set, and only those does its
// placement key ask.
type regionDecisions struct {
	permit []bool
	ctrlIn []bool
}

// permits returns ACL ai's decision on the region; -1, an unbound side,
// permits.
func (d regionDecisions) permits(ai int32) bool {
	return ai < 0 || d.permit[ai]
}

// desired computes the desired (constant) decision of a shape's paths on
// the region: the original path decision, unless a control covering the
// region says otherwise (§6).
func (d regionDecisions) desired(ix *fixIndex, sh *fixShape) bool {
	orig := true
	for _, bi := range sh.bindings {
		if !d.permits(ix.bindings[bi].before) {
			orig = false
			break
		}
	}
	return controlled(ix.ctrls, sh.ctrls, d.ctrlIn, orig)
}
