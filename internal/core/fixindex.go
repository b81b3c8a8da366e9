package core

import (
	"fmt"
	"slices"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// fixIndex is what one FixContext call resolves before its FEC loop:
// everything neighborhood expansion (Equation 6) and placement (Equation
// 7) need of the network that does not depend on the neighborhood. A
// large WAN binds a few dozen distinct ACLs at a hundred places and
// routes a FEC over hundreds of paths of a few dozen shapes, and fix asks
// its two questions — is this region constant under every ACL, what does
// this binding decide on it — hundreds of times per call; the index
// answers each from a first-match trie per distinct ACL and asserts one
// placement constraint per shape. Read-only once built: the FEC loop
// shares it across workers.
type fixIndex struct {
	// acls are the distinct decision models of F_Ω ∪ F'_Ω (the full ACLs
	// of every in-scope binding, before and after), ctrls the engine's
	// controls, and the port lists the distinct boundaries of both — the
	// only places validity can flip during port expansion (los ascending,
	// his descending).
	acls           []*hitIndexer
	ctrls          []Control
	dstLos, dstHis []uint16
	srcLos, srcHis []uint16

	bindings []fixBinding // the bindings a constraint can read, in first-crossing order
	shapes   []fixShape   // distinct, in first-occurrence order over the paths
	shapeSet              // per path: its index into shapes
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
				h := &hitIndexer{}
				h.acl, h.tree = ctx.tab.index(id)
				ix.acls = append(ix.acls, h)
				local[id] = int32(len(ix.acls))
			}
		}
	}
	ix.computeBounds()

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
			// permits whatever the neighborhood, so no constraint reads it.
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

// computeBounds harvests the distinct port boundaries of every rule and
// control match.
func (ix *fixIndex) computeBounds() {
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
	for _, a := range ix.acls {
		for _, r := range a.acl.Rules {
			add(dLo, dHi, r.Match.DstPort)
			add(sLo, sHi, r.Match.SrcPort)
		}
	}
	for _, c := range ix.ctrls {
		add(dLo, dHi, c.Match.DstPort)
		add(sLo, sHi, c.Match.SrcPort)
	}
	toSorted := func(m map[uint16]bool, desc bool) []uint16 {
		out := make([]uint16, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		slices.Sort(out)
		if desc {
			slices.Reverse(out)
		}
		return out
	}
	ix.dstLos, ix.dstHis = toSorted(dLo, false), toSorted(dHi, true)
	ix.srcLos, ix.srcHis = toSorted(sLo, false), toSorted(sHi, true)
}

// constancy is the Equation 6 validity oracle for one FEC's neighborhood
// expansion: a candidate region is valid when every decision model in
// F_Ω ∪ F'_Ω is constant on it (each ACL's first containing rule is
// reached with no straddling rule before it), every control match
// contains it or is disjoint from it, and it avoids every previously
// fixed neighborhood.
type constancy struct {
	ix *fixIndex
	// acls are the ix.acls with a rule overlapping the FEC's classes: a
	// candidate never leaves its class, so every other ACL decides it by
	// default, atomically.
	acls []*hitIndexer
	// priors holds the neighborhoods already fixed within the FEC;
	// cross-FEC neighborhoods are disjoint by construction (FEC
	// destination classes are disjoint atoms), so each FEC starts empty.
	priors []header.Match
	probes int64 // validity queries asked
}

// constancyOn returns the validity oracle for one FEC.
func (ix *fixIndex) constancyOn(fec topo.FEC) *constancy {
	cn := &constancy{ix: ix}
	for _, a := range ix.acls {
		for _, c := range fec.Classes {
			if a.tree.AnyOverlapping(header.DstMatch(c)) {
				cn.acls = append(cn.acls, a)
				break
			}
		}
	}
	return cn
}

func (cn *constancy) valid(c header.Match) bool {
	cn.probes++
	for _, a := range cn.acls {
		if _, ok := a.decide(c); !ok {
			return false
		}
	}
	for _, ctrl := range cn.ix.ctrls {
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

// nbDecisions are the decisions of one neighborhood, each made once: per
// distinct ACL through its first-match index, per control by containment.
type nbDecisions struct {
	ix     *fixIndex
	nb     header.Match
	acls   []int8 // per distinct ACL: 0 undecided, 1 permit, 2 deny
	ctrlIn []bool // per control: its match contains the neighborhood
}

func (ix *fixIndex) decisionsOn(nb header.Match) *nbDecisions {
	d := &nbDecisions{ix: ix, nb: nb, acls: make([]int8, len(ix.acls)), ctrlIn: make([]bool, len(ix.ctrls))}
	for i, c := range ix.ctrls {
		d.ctrlIn[i] = c.Match.Contains(nb)
	}
	return d
}

// decide returns ACL ai's uniform decision on the neighborhood. The
// neighborhood is atomic with respect to every in-scope ACL by
// construction (constancy.valid, or a single packet); a straddling rule
// here is a bug in that construction, reported as an error so the call
// fails instead of the process.
func (d *nbDecisions) decide(ai int32) (acl.Action, error) {
	if ai < 0 {
		return acl.Permit, nil
	}
	if d.acls[ai] == 0 {
		act, ok := d.ix.acls[ai].decide(d.nb)
		if !ok {
			return false, fmt.Errorf("core: fix: neighborhood %v is not atomic with respect to ACL %v", d.nb, d.ix.acls[ai].acl)
		}
		d.acls[ai] = 2
		if act == acl.Permit {
			d.acls[ai] = 1
		}
	}
	return d.acls[ai] == 1, nil
}

// desired computes the desired (constant) decision of a shape's paths on
// the neighborhood: the original path decision, unless a control
// covering the neighborhood says otherwise (§6).
func (d *nbDecisions) desired(sh *fixShape) (bool, error) {
	orig := true
	for _, bi := range sh.bindings {
		act, err := d.decide(d.ix.bindings[bi].before)
		if err != nil {
			return false, err
		}
		if act == acl.Deny {
			orig = false
			break
		}
	}
	return controlled(d.ix.ctrls, sh.ctrls, d.ctrlIn, orig), nil
}
