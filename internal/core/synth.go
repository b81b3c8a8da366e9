package core

import (
	"fmt"
	"sort"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// row is one entry of the synthesis table (Table 4b): a sequence-encoding
// vector, the overlap-field matches, and the AEC it came from.
type row struct {
	seq      []int
	overlaps []header.Match
	a        *aec
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
// destination instead of scanning the whole rule list.
type hitIndexer struct {
	acl  *acl.ACL
	tree *acl.DstIndex // nil: linear scan (the UseSearchTree=false ablation)
}

func newHitIndexer(a *acl.ACL, useTree bool) *hitIndexer {
	h := &hitIndexer{acl: a}
	if useTree {
		h.tree = acl.NewDstIndex(a.Rules)
	}
	return h
}

// hit returns the index of the first rule containing the class, or
// len(rules) for the default.
func (h *hitIndexer) hit(class header.Match) int {
	if h.tree != nil {
		return h.tree.FirstContaining(class)
	}
	for i, r := range h.acl.Rules {
		if r.Match.Contains(class) {
			return i
		}
	}
	return len(h.acl.Rules)
}

// decide is acl.DecideMatch through the search tree (which it requires):
// the ACL's decision on the class, and whether the class is atomic with
// respect to the ACL — no rule before its first containing one straddles it.
func (h *hitIndexer) decide(class header.Match) (acl.Action, bool) {
	pos, atomic := h.tree.FirstMatch(class)
	return h.action(pos), atomic
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
func (e *Engine) buildRows(aecs []*aec, encBindings []topo.ACLBinding) ([]row, error) {
	groupings := make([]ruleGrouping, len(encBindings))
	for i, b := range encBindings {
		groupings[i] = groupRules(b.Iface.ACL(b.Dir).Rules, e.Opts.UseGrouping)
	}

	var rows []row
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
		entries := []row{{seq: nil, overlaps: []header.Match{header.MatchAll}, a: a}}
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
					seq := append(append([]int(nil), en.seq...), k)
					next = append(next, row{seq: seq, overlaps: ov, a: a})
				}
			}
			entries = next
		}
		for i, ctrl := range e.Controls {
			for j := range entries {
				if a.ctrlIn[i] {
					entries[j].seq = append(entries[j].seq, 0)
					// Intersecting with one match cannot grow the union.
					entries[j].overlaps, _ = intersectAll(entries[j].overlaps, []header.Match{ctrl.Match})
				} else {
					entries[j].seq = append(entries[j].seq, 1)
				}
			}
			// Drop entries whose overlap vanished against the control.
			keep := entries[:0]
			for _, en := range entries {
				if len(en.overlaps) > 0 {
					keep = append(keep, en)
				}
			}
			entries = keep
		}
		rows = append(rows, entries...)
	}

	sort.SliceStable(rows, func(i, j int) bool { return seqLess(rows[i].seq, rows[j].seq) })
	return rows, nil
}

func seqLess(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
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
// target binding: walk the sorted rows, emitting each row's decision over
// its overlap matches, with deny insertions for partially-denied
// DEC-split rows.
func (e *Engine) synthesizeTarget(targetID string, rows []row) *acl.ACL {
	out := &acl.ACL{Default: acl.Permit}
	for _, r := range rows {
		if r.a.solved {
			act := acl.Action(r.a.dec[targetID])
			for _, ov := range r.overlaps {
				out.Rules = append(out.Rules, acl.Rule{Action: act, Match: ov})
			}
			continue
		}
		// DEC-split AEC: uniform if all groups agree at this target.
		permits, denies := 0, 0
		for _, g := range r.a.decs {
			if g.dec[targetID] {
				permits++
			} else {
				denies++
			}
		}
		switch {
		case denies == 0 || permits == 0:
			act := acl.Action(denies == 0)
			for _, ov := range r.overlaps {
				out.Rules = append(out.Rules, acl.Rule{Action: act, Match: ov})
			}
		default:
			// permit* handling: insert denies for the denied DECs'
			// classes before the partial permit (§5.4 step 4).
			for _, g := range r.a.decs {
				if g.dec[targetID] {
					continue
				}
				for _, c := range g.classes {
					for _, ov := range r.overlaps {
						if m, ok := c.Intersect(ov); ok {
							out.Rules = append(out.Rules, acl.Rule{Action: acl.Deny, Match: m})
						}
					}
				}
			}
			for _, ov := range r.overlaps {
				out.Rules = append(out.Rules, acl.Rule{Action: acl.Permit, Match: ov})
			}
		}
	}
	return out
}
