package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// row is one entry of the synthesis table (Table 4b): the overlap-field
// matches of one AEC and the sequence-encoding vectors that lead to them.
// Unmerged, an entry is one vector (n is 1, last is first). Merged, it
// stands for the n vectors of its AEC whose overlap lists are equal as
// sequences, of which it keeps the lexicographically lowest and highest:
// every one of them emits the same rule group, and simplification reads
// only a group's first and last occurrence (see buildRows).
type row struct {
	first, last []int
	n           int
	overlaps    []header.Match
	a           *aec
	ai          int // index of a, in derivation order
}

// rowPos is one position of the table's emission order: a row at its
// first or its last vector.
type rowPos struct {
	r    *row
	last bool
}

func (p rowPos) seq() []int {
	if p.last {
		return p.r.last
	}
	return p.r.first
}

// synthTable is what buildRows hands synthesizeTarget: the entries, and
// the positions to emit them at in sequence order (AEC order among equal
// vectors, as the stable sort of the unmerged rows had it). A merged
// entry has two positions.
type synthTable struct {
	rows  []row
	order []rowPos
}

// vectors is the number of sequence-encoding vectors the table stands
// for: its size had nothing been merged.
func (t *synthTable) vectors() int {
	n := 0
	for i := range t.rows {
		n += t.rows[i].n
	}
	return n
}

// maxOverlapsPerRow bounds the overlap-field expansion of one row.
const maxOverlapsPerRow = 4096

// ErrOverlapBound is generate's refusal to synthesize an AEC whose
// overlap field (§5.4 step 2) expands past Bound matches in one row: the
// original ACLs cut the AEC's traffic into too many distinct
// intersections for the rule-per-overlap emission to stay bounded.
type ErrOverlapBound struct {
	AEC   int // index of the AEC, in derivation order
	Bound int
}

func (e *ErrOverlapBound) Error() string {
	return fmt.Sprintf("core: generate: the overlap field of AEC %d expands past the bound of %d matches per synthesis row; narrow the scope or migrate fewer ACLs at once",
		e.AEC, e.Bound)
}

// ruleGrouping maps each rule of a source ACL to a group index (§5.5
// "grouping ACL rules before sequence encoding"). Groups are consecutive
// rule runs in which any two rules with different actions are
// non-overlapping, so each atomic class hits a well-defined member. The
// default catch-all is group NumGroups.
type ruleGrouping struct {
	groupOf   []int
	numGroups int
}

// groupRules computes the grouping; with grouping disabled each rule is
// its own group (sequence encoding then degenerates to rule indices, the
// unoptimized Table 4a form).
func groupRules(rules []acl.Rule, enabled bool) ruleGrouping {
	g := ruleGrouping{groupOf: make([]int, len(rules))}
	if !enabled {
		for i := range rules {
			g.groupOf[i] = i
		}
		g.numGroups = len(rules)
		return g
	}
	cur := 0
	var members []int
	for i := range rules {
		ok := true
		for _, j := range members {
			if rules[j].Action != rules[i].Action && rules[j].Match.Overlaps(rules[i].Match) {
				ok = false
				break
			}
		}
		if !ok {
			cur++
			members = members[:0]
		}
		members = append(members, i)
		g.groupOf[i] = cur
	}
	if len(rules) > 0 {
		g.numGroups = g.groupOf[len(rules)-1] + 1
	}
	return g
}

// hitIndexer finds, per traffic class, the first rule of an ACL that
// contains it. With the §5.5 search tree enabled, candidate rules are
// found by walking a destination-prefix trie from the root to the class's
// destination instead of scanning the whole rule list. Both come from the
// ACL table (aclTable.index), which builds each content's trie once.
type hitIndexer struct {
	acl  *acl.ACL
	tree *acl.DstIndex // nil: linear scan (OptimizeSynthesis off)
}

// atomHits is one ACL's first-match candidates for the classes of one
// destination atom: rule positions in ascending order, and the hit of a
// class that none of them contains.
type atomHits struct {
	cands    []int32
	fallback int32
}

// walk sets w to the search tree's candidates for the classes whose
// destination is dst: the rules whose destination contains dst (one trie
// walk), cut after the first that constrains no other field. That rule
// contains every class of the atom, so it is the fallback; the default
// (len(rules)) is otherwise.
func (h *hitIndexer) walk(dst header.Prefix, w *atomHits) {
	if h.tree == nil {
		return
	}
	rules := h.acl.Rules
	w.cands = h.tree.DstContaining(dst, w.cands[:0])
	w.fallback = int32(len(rules))
	for k, i := range w.cands {
		m := rules[i].Match
		m.Dst = header.AnyPrefix
		if m.IsAll() {
			w.cands, w.fallback = w.cands[:k], i
			return
		}
	}
}

// hit returns the position of the first rule containing class, or
// len(rules) for the default: the first of w's candidates, walked for the
// class's destination, or without the search tree (OptimizeSynthesis
// off) a linear scan.
func (h *hitIndexer) hit(w *atomHits, class header.Match) int32 {
	rules := h.acl.Rules
	if h.tree == nil {
		for i := range rules {
			if rules[i].Match.Contains(class) {
				return int32(i)
			}
		}
		return int32(len(rules))
	}
	for _, i := range w.cands {
		if rules[i].Match.Contains(class) {
			return i
		}
	}
	return w.fallback
}

// action returns the ACL's decision on a class whose first match is hit.
func (h *hitIndexer) action(hit int) acl.Action {
	if hit < len(h.acl.Rules) {
		return h.acl.Rules[hit].Action
	}
	return h.acl.Default
}

// buildRows performs synthesis steps 1 and 2 (§5.4): sequence encoding
// over the original ACL-carrying bindings (plus virtual positions for
// control intents) and overlap-field computation, with the §5.5 grouping
// optimization when enabled. Which rules an AEC's classes hit was
// recorded when the AECs were derived (aec.hits), so no class is looked
// up again here. A row whose overlap field outgrows maxOverlapsPerRow
// fails the call with an *ErrOverlapBound.
//
// When the output will be simplified, rows of one AEC with equal overlap
// lists are merged as the cross product grows (mergeRows): they extend
// identically, emit identical rule groups, and acl.SimplifyFast's first
// pass drops a rule iff an earlier rule of the list contains it, or it
// agrees with the default and no later opposite-action rule overlaps it —
// tests that read the same for every other rule whether a group occurs at
// every one of its vectors or only at the lowest and the highest. The
// first pass therefore returns the same list, and everything after it sees
// the same input. Unsimplified output is the rows themselves, so with
// OptimizeSynthesis off the rows must not merge.
func (e *Engine) buildRows(aecs []*aec, encBindings []topo.ACLBinding) (*synthTable, error) {
	groupings := make([]ruleGrouping, len(encBindings))
	for i, b := range encBindings {
		groupings[i] = groupRules(b.Iface.ACL(b.Dir).Rules, e.Opts.OptimizeSynthesis)
	}
	merge := e.Opts.OptimizeSynthesis

	t := &synthTable{}
	for ai, a := range aecs {
		// Per binding: group index -> union of member matches hit.
		dims := make([]map[int][]header.Match, len(encBindings))
		for i, b := range encBindings {
			dims[i] = map[int][]header.Match{}
			rules := b.Iface.ACL(b.Dir).Rules
			for _, hit := range a.hits[i] {
				grp := groupings[i].numGroups // default group
				contrib := header.MatchAll
				if int(hit) < len(rules) {
					grp = groupings[i].groupOf[hit]
					contrib = rules[hit].Match
				}
				if !containsMatch(dims[i][grp], contrib) {
					dims[i][grp] = append(dims[i][grp], contrib)
				}
			}
		}
		// Cross product of per-binding group choices, then the control
		// dimensions (one virtual two-row ACL per control intent).
		entries := []row{{n: 1, overlaps: []header.Match{header.MatchAll}, a: a, ai: ai}}
		for i := range encBindings {
			keys := make([]int, 0, len(dims[i]))
			for k := range dims[i] {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			var next []row
			for _, en := range entries {
				for _, k := range keys {
					ov, ok := intersectAll(en.overlaps, dims[i][k])
					if !ok {
						return nil, &ErrOverlapBound{AEC: ai, Bound: maxOverlapsPerRow}
					}
					if len(ov) == 0 {
						continue
					}
					// One entry extends several ways: each gets vectors of
					// its own.
					x := en
					x.overlaps = ov
					x.first, x.last = slices.Clip(en.first), slices.Clip(en.last)
					x.push(k)
					next = append(next, x)
				}
			}
			entries = next
			if merge {
				entries = mergeRows(entries)
			}
		}
		for i, ctrl := range e.Controls {
			keep := entries[:0]
			for _, en := range entries {
				if a.ctrlIn[i] {
					en.push(0)
					// Intersecting with one match cannot grow the union.
					en.overlaps, _ = intersectAll(en.overlaps, []header.Match{ctrl.Match})
				} else {
					en.push(1)
				}
				// Drop entries whose overlap vanished against the control.
				if len(en.overlaps) > 0 {
					keep = append(keep, en)
				}
			}
			entries = keep
		}
		if merge && len(e.Controls) > 0 {
			entries = mergeRows(entries)
		}
		t.rows = append(t.rows, entries...)
	}

	for i := range t.rows {
		r := &t.rows[i]
		t.order = append(t.order, rowPos{r: r})
		if r.n > 1 {
			t.order = append(t.order, rowPos{r: r, last: true})
		}
	}
	// No two positions of one AEC share a vector, so (vector, AEC) is a
	// total order.
	sort.Slice(t.order, func(i, j int) bool {
		p, q := t.order[i], t.order[j]
		if c := slices.Compare(p.seq(), q.seq()); c != 0 {
			return c < 0
		}
		return p.r.ai < q.r.ai
	})
	return t, nil
}

// push appends k to the entry's vectors, in place; a single vector stays
// one slice.
func (r *row) push(k int) {
	r.first = append(r.first, k)
	if r.n > 1 {
		r.last = append(r.last, k)
	} else {
		r.last = r.first
	}
}

// mergeRows folds, in place, the entries of one AEC whose overlap lists
// are equal as sequences into the first of them, which keeps the lowest
// and the highest vector of the lot and the number of rows it stands for.
// Lists holding the same matches in another order emit permuted rule
// groups, not identical ones, and stay apart. The cross product yields
// entries in ascending order of first, and folding into the earliest
// keeps it so; the highest last can come from any of the lot.
func mergeRows(entries []row) []row {
	if len(entries) < 2 {
		return entries
	}
	idx := make(map[string]int, len(entries))
	var key []byte
	out := entries[:0]
	for _, en := range entries {
		key = key[:0]
		for _, m := range en.overlaps {
			key = binary.BigEndian.AppendUint32(append(key, byte(m.Src.Len)), m.Src.Addr)
			key = binary.BigEndian.AppendUint32(append(key, byte(m.Dst.Len)), m.Dst.Addr)
			key = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(key, m.SrcPort.Lo), m.SrcPort.Hi)
			key = binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(key, m.DstPort.Lo), m.DstPort.Hi)
			key = append(key, m.Proto.Lo, m.Proto.Hi)
		}
		i, ok := idx[string(key)]
		if !ok {
			idx[string(key)] = len(out)
			out = append(out, en)
			continue
		}
		m := &out[i]
		if slices.Compare(en.last, m.last) > 0 {
			m.last = en.last
		}
		m.n += en.n
	}
	return out
}

// intersectAll intersects two match unions, dropping empty and duplicate
// results; ok is false when more than maxOverlapsPerRow remain.
func intersectAll(as, bs []header.Match) (out []header.Match, ok bool) {
	for _, a := range as {
		for _, b := range bs {
			if m, ok := a.Intersect(b); ok && !containsMatch(out, m) {
				out = append(out, m)
				if len(out) > maxOverlapsPerRow {
					return nil, false
				}
			}
		}
	}
	return out, true
}

func containsMatch(ms []header.Match, m header.Match) bool {
	for _, x := range ms {
		if x.Equal(m) {
			return true
		}
	}
	return false
}

// synthesizeTarget performs synthesis steps 3 and 4 (§5.4) for one
// target binding: walk the table in emission order, emitting each row's
// decision over its overlap matches, with deny insertions for
// partially-denied DEC-split rows. generated is the rule count of the
// unmerged table: every row's group times the vectors it stands for.
func (e *Engine) synthesizeTarget(target int, t *synthTable) (out *acl.ACL, generated int) {
	out = &acl.ACL{Default: acl.Permit}
	for _, p := range t.order {
		before := len(out.Rules)
		out.Rules = appendRowRules(out.Rules, target, p.r)
		if !p.last {
			generated += p.r.n * (len(out.Rules) - before)
		}
	}
	return out, generated
}

// appendRowRules appends the rule group of one row at one target.
func appendRowRules(rules []acl.Rule, target int, r *row) []acl.Rule {
	if r.a.solved {
		act := acl.Action(r.a.dec[target])
		for _, ov := range r.overlaps {
			rules = append(rules, acl.Rule{Action: act, Match: ov})
		}
		return rules
	}
	// DEC-split AEC: uniform if all groups agree at this target.
	permits, denies := 0, 0
	for _, g := range r.a.decs {
		if g.dec[target] {
			permits++
		} else {
			denies++
		}
	}
	switch {
	case denies == 0 || permits == 0:
		act := acl.Action(denies == 0)
		for _, ov := range r.overlaps {
			rules = append(rules, acl.Rule{Action: act, Match: ov})
		}
	default:
		// permit* handling: insert denies for the denied DECs'
		// classes before the partial permit (§5.4 step 4).
		for _, g := range r.a.decs {
			if g.dec[target] {
				continue
			}
			for _, c := range g.classes {
				for _, ov := range r.overlaps {
					if m, ok := c.Intersect(ov); ok {
						rules = append(rules, acl.Rule{Action: acl.Deny, Match: m})
					}
				}
			}
		}
		for _, ov := range r.overlaps {
			rules = append(rules, acl.Rule{Action: acl.Permit, Match: ov})
		}
	}
	return rules
}
