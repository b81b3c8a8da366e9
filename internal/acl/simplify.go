package acl

import (
	"slices"

	"jinjing/internal/header"
	"jinjing/internal/smt"
)

// Equivalent reports whether two ACLs have the same decision model, i.e.
// they permit exactly the same packets. It is decided by checking that
// f_a(h) ⊕ f_b(h) is unsatisfiable.
func Equivalent(a, b *ACL) bool {
	bld := smt.NewBuilder()
	pv := bld.NewPacketVars()
	fa := a.EncodeTournament(bld, pv)
	fb := b.EncodeTournament(bld, pv)
	s := smt.SolverOn(bld)
	return !s.Solve(bld.Xor(fa, fb))
}

// Simplify removes redundant rules from the ACL while preserving its
// decision model (the "simplifying the final ACL" extension of §4.2).
// It greedily tries to drop each rule, keeping the removal whenever the
// decision model is unchanged; the result is maximal in the sense that no
// single remaining rule can be removed.
func Simplify(a *ACL) *ACL {
	cur := a.Clone()
	// Removing one rule can unlock the removal of an earlier one (a
	// shadowed deny guards a redundant permit above it), so iterate full
	// passes until a fixpoint.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Rules); {
			trial := &ACL{Default: cur.Default}
			trial.Rules = append(trial.Rules, cur.Rules[:i]...)
			trial.Rules = append(trial.Rules, cur.Rules[i+1:]...)
			if Equivalent(cur, trial) {
				cur = trial // drop rule i; do not advance
				changed = true
			} else {
				i++
			}
		}
	}
	return cur
}

// SimplifyFast removes rules that are syntactically shadowed (an earlier
// rule's match contains them) or absorbed (they agree with the effective
// default and nothing after them could change the decision), iterating
// to a fixpoint (dropping a guard rule can make an earlier rule
// absorbable). It is a cheap pre-pass before the SMT-exact Simplify.
func SimplifyFast(a *ACL) *ACL {
	out := SimplifyFastPass(a)
	for len(out.Rules) < len(a.Rules) {
		a = out
		out = SimplifyFastPass(a)
	}
	return out
}

// SimplifyFastPass is one pass of SimplifyFast. It drops a rule iff an
// earlier rule of the list contains it, or it agrees with the default and
// no later rule with the other action overlaps it. (Testing against the
// kept rules only decides the same: a dropped container was itself
// contained in a kept rule, or absorbed — and then so is what it
// contains.) Both tests read the same for every other rule when a rule
// already in the list is repeated between its first and its last
// occurrence, which is what lets generate emit a repeated rule group at
// its two outermost positions only (core.buildRows).
func SimplifyFastPass(a *ACL) *ACL {
	out := &ACL{Default: a.Default}
	kept := &DstIndex{rules: a.Rules}
	// laterOpp indexes, right to left, the not-yet-visited rules whose
	// action differs from the default (the only rules a default-agreeing
	// rule could guard).
	laterOpp := &DstIndex{rules: a.Rules}
	for i, r := range a.Rules {
		if r.Action != a.Default {
			laterOpp.add(i)
		}
	}
	for i, r := range a.Rules {
		if r.Action != a.Default {
			laterOpp.remove(i)
		}
		// Shadowed: an earlier kept rule contains this one. Only rules
		// whose destination prefix is an ancestor of (or equal to) this
		// rule's destination can contain it.
		if kept.anyContaining(r.Match) {
			continue
		}
		// A rule agreeing with the default is droppable iff no later rule
		// with a different action overlaps it (otherwise it guards that
		// later rule).
		if r.Action == a.Default && !laterOpp.AnyOverlapping(r.Match) {
			continue
		}
		out.Rules = append(out.Rules, r)
		kept.add(i)
	}
	return out
}

// DstIndex indexes rules of one list by destination prefix in a binary
// trie. A rule sits on the node of its exact destination, so the rules
// that can contain a match are those on the walk root → its destination,
// and the rules that can overlap it are those plus the subtree below:
// both queries touch only candidates and hash nothing.
type DstIndex struct {
	rules []Rule
	root  dstTrieNode
}

type dstTrieNode struct {
	children [2]*dstTrieNode
	at       []int32 // indexed rules with exactly this destination, in insertion order
	count    int     // indexed rules at or below this node
}

// NewDstIndex indexes every rule of the list; FirstContaining answers in
// rule-list positions.
func NewDstIndex(rules []Rule) *DstIndex {
	ix := &DstIndex{rules: rules}
	for i := range rules {
		ix.add(i)
	}
	return ix
}

// add indexes rules[i]. Callers add in ascending i, which keeps every
// node's list ascending.
func (ix *DstIndex) add(i int) {
	p := ix.rules[i].Match.Dst
	n := &ix.root
	n.count++
	for d := 0; d < p.Len; d++ {
		bit := p.Addr >> (31 - d) & 1
		if n.children[bit] == nil {
			n.children[bit] = &dstTrieNode{}
		}
		n = n.children[bit]
		n.count++
	}
	n.at = append(n.at, int32(i))
}

// remove drops rules[i] from the index if present. Removing a node's
// oldest rule — the order SimplifyFastPass removes in — is a re-slice.
func (ix *DstIndex) remove(i int) {
	p := ix.rules[i].Match.Dst
	var path [33]*dstTrieNode
	n := &ix.root
	path[0] = n
	for d := 0; d < p.Len; d++ {
		if n = n.children[p.Addr>>(31-d)&1]; n == nil {
			return
		}
		path[d+1] = n
	}
	switch k := slices.Index(n.at, int32(i)); {
	case k < 0:
		return
	case k == 0:
		n.at = n.at[1:]
	default:
		n.at = slices.Delete(n.at, k, k+1)
	}
	for _, n := range path[:p.Len+1] {
		n.count--
	}
}

// FirstContaining returns the position of the first indexed rule whose
// match contains m, or len(rules) when none does.
func (ix *DstIndex) FirstContaining(m header.Match) int {
	best := len(ix.rules)
	n := &ix.root
	for d := 0; n != nil && n.count > 0; d++ {
		for _, i := range n.at {
			if int(i) >= best {
				break
			}
			if ix.rules[i].Match.Contains(m) {
				best = int(i)
				break
			}
		}
		if d == m.Dst.Len {
			break
		}
		n = n.children[m.Dst.Addr>>(31-d)&1]
	}
	return best
}

// DstContaining appends to buf, in ascending order, the positions of the
// indexed rules whose destination contains p: the rules on the walk
// root → p. Every match whose destination lies inside p first-matches
// the first of them that contains it, so classes sharing a destination
// share one walk.
func (ix *DstIndex) DstContaining(p header.Prefix, buf []int32) []int32 {
	start := len(buf)
	n := &ix.root
	for d := 0; n != nil && n.count > 0; d++ {
		buf = append(buf, n.at...)
		if d == p.Len {
			break
		}
		n = n.children[p.Addr>>(31-d)&1]
	}
	slices.Sort(buf[start:])
	return buf
}

// DstOverlapping appends to buf, in ascending order, the positions of
// the indexed rules whose destination overlaps p: the rules on the walk
// root → p plus those in the subtree below p. No other rule can overlap
// a match whose destination lies inside p.
func (ix *DstIndex) DstOverlapping(p header.Prefix, buf []int32) []int32 {
	start := len(buf)
	n := &ix.root
	for d := 0; n != nil && d < p.Len; d++ {
		buf = append(buf, n.at...)
		n = n.children[p.Addr>>(31-d)&1]
	}
	buf = n.appendBelow(buf)
	slices.Sort(buf[start:])
	return buf
}

// appendBelow appends the positions indexed on n and in the subtree
// under it.
func (n *dstTrieNode) appendBelow(buf []int32) []int32 {
	if n == nil || n.count == 0 {
		return buf
	}
	buf = append(buf, n.at...)
	return n.children[1].appendBelow(n.children[0].appendBelow(buf))
}

// FirstMatch is ACL.DecideMatch on the index: pos is FirstContaining(m),
// and atomic reports that no indexed rule before pos straddles m —
// overlaps it without containing it — so every packet of m first-matches
// rule pos. A rule overlapping m sits on the walk root → m.Dst or in the
// subtree below m.Dst; only the former can contain m, so pos is final
// once the walk ends and the subtree is searched for positions below it.
func (ix *DstIndex) FirstMatch(m header.Match) (pos int, atomic bool) {
	best := len(ix.rules)
	straddle := best // lowest position seen of a rule overlapping m, not containing it
	n := &ix.root
	for d := 0; ; d++ {
		if n == nil || n.count == 0 {
			return best, straddle >= best
		}
		for _, i := range n.at {
			if int(i) >= best {
				break
			}
			r := &ix.rules[i].Match
			if r.Contains(m) {
				best = int(i)
				break
			}
			if int(i) < straddle && r.Overlaps(m) {
				straddle = int(i)
			}
		}
		if d == m.Dst.Len {
			break
		}
		n = n.children[m.Dst.Addr>>(31-d)&1]
	}
	if straddle < best {
		return best, false
	}
	return best, !ix.overlapsBelow(n.children[0], &m, best) && !ix.overlapsBelow(n.children[1], &m, best)
}

// anyContaining reports whether an indexed rule's match contains m.
func (ix *DstIndex) anyContaining(m header.Match) bool {
	return ix.FirstContaining(m) < len(ix.rules)
}

// AnyOverlapping reports whether an indexed rule's match overlaps m:
// one on an ancestor of m.Dst, on m.Dst's own node, or in the subtree
// below it.
func (ix *DstIndex) AnyOverlapping(m header.Match) bool {
	n := &ix.root
	for d := 0; d < m.Dst.Len; d++ {
		if n.count == 0 {
			return false
		}
		if ix.overlapsAt(n, &m, len(ix.rules)) {
			return true
		}
		if n = n.children[m.Dst.Addr>>(31-d)&1]; n == nil {
			return false
		}
	}
	return ix.overlapsBelow(n, &m, len(ix.rules))
}

// overlapsAt reports whether a rule indexed on n, at a position below
// limit, overlaps m.
func (ix *DstIndex) overlapsAt(n *dstTrieNode, m *header.Match, limit int) bool {
	for _, i := range n.at {
		if int(i) >= limit {
			break
		}
		if ix.rules[i].Match.Overlaps(*m) {
			return true
		}
	}
	return false
}

// overlapsBelow is overlapsAt over n and the subtree under it.
func (ix *DstIndex) overlapsBelow(n *dstTrieNode, m *header.Match, limit int) bool {
	if n == nil || n.count == 0 {
		return false
	}
	return ix.overlapsAt(n, m, limit) || ix.overlapsBelow(n.children[0], m, limit) || ix.overlapsBelow(n.children[1], m, limit)
}
