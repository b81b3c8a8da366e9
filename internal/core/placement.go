package core

import (
	"context"
	"slices"
)

// placement is the question fix's Equation 7 and generate's Equations
// 8–10 both pose — per path shape, the conjunction of the crossed
// bindings' decisions must equal the shape's desired decision, where the
// bindings the plan may change are free and every other one keeps its
// decision — and its reduction to forced permits and deny clauses. The
// primitives differ only in the denies they pick to meet the clauses:
// fix the least-cost set (minHittingSet), generate a greedy one
// (denyTargets). A caller empties members, fills denies and shapes, and
// calls reduce; the buffers serve the next problem it poses.
type placement struct {
	denies []bool // per changeable binding: it denies now
	shapes []placeShape
	// members holds, back to back, the free lists a caller builds in it,
	// then the clauses' members.
	members []int32

	forced  []bool    // per changeable binding: it must permit
	clauses [][]int32 // one binding of each must deny; sorted, distinct
}

// placeShape is one shape of a placement problem: its desired decision
// (permit?), whether a binding the plan may not change denies on it, and
// the changeable bindings it crosses, as indices into placement.denies.
type placeShape struct {
	desired, closedDeny bool
	free                []int32
}

// reduce derives the forced permits and the clauses, or reports that no
// placement exists. A shape desiring permit forces every changeable
// binding it crosses to permit; a closed deny on it refuses the problem.
// A shape desiring deny is met by a closed deny or by an unforced binding
// that denies now (keeping a deny costs nothing); otherwise it is the
// clause "one of its unforced bindings denies", and an empty clause
// refuses the problem. A clause is kept once however many shapes pose
// it, so neither hitting-set rule depends on path multiplicity.
func (pl *placement) reduce() bool {
	pl.forced = slices.Grow(pl.forced[:0], len(pl.denies))[:len(pl.denies)]
	clear(pl.forced)
	for _, s := range pl.shapes {
		if s.desired && s.closedDeny {
			return false
		} else if s.desired {
			for _, b := range s.free {
				pl.forced[b] = true
			}
		}
	}
	pl.clauses = pl.clauses[:0]
	for _, s := range pl.shapes {
		if s.desired || s.closedDeny || slices.ContainsFunc(s.free, func(b int32) bool { return !pl.forced[b] && pl.denies[b] }) {
			continue
		}
		lo := len(pl.members)
		for _, b := range s.free {
			if !pl.forced[b] {
				pl.members = append(pl.members, b)
			}
		}
		if len(pl.members) == lo {
			return false
		}
		slices.Sort(pl.members[lo:])
		pl.members = pl.members[:lo+len(slices.Compact(pl.members[lo:]))]
		pl.clauses = append(pl.clauses, pl.members[lo:])
	}
	slices.SortFunc(pl.clauses, slices.Compare[[]int32])
	pl.clauses = slices.CompactFunc(pl.clauses, slices.Equal[[]int32])
	return true
}

// controlled is a desired decision under the §6 controls: orig, the
// original decision, unless the first control of on (indices into
// controls, in precedence order) whose match covers the traffic — in[i]
// — isolates or opens it. A covering Maintain keeps orig.
func controlled(controls []Control, on []int32, in []bool, orig bool) bool {
	for _, i := range on {
		if !in[i] {
			continue
		}
		switch controls[i].Mode {
		case Isolate:
			return false
		case Open:
			return true
		}
		break // Maintain keeps the original decision
	}
	return orig
}

// minHittingSet returns the least, as a sorted list, of the
// minimum-cardinality sets that meet every clause (each sorted and
// non-empty). It deepens the size k from 0: at size k it branches on the
// first clause the chosen set misses, over that clause's members. Every
// hitting set of size k contains a member of that clause, so every one is
// reached, and the first k that reaches one is the minimum; the search is
// O(d^k) for clauses of d members. ok is false when the call is cancelled
// first: the search polls it at every branch.
func minHittingSet(call context.Context, clauses [][]int32) (best []int32, ok bool) {
	var chosen []int32
	found := false
	var search func(k int) bool // false: cancelled
	search = func(k int) bool {
		if call.Err() != nil {
			return false
		}
		i := slices.IndexFunc(clauses, func(c []int32) bool {
			return !slices.ContainsFunc(c, func(t int32) bool { return slices.Contains(chosen, t) })
		})
		if i < 0 {
			set := slices.Clone(chosen)
			slices.Sort(set)
			if !found || slices.Compare(set, best) < 0 {
				best, found = set, true
			}
			return true
		}
		if k == 0 {
			return true
		}
		for _, t := range clauses[i] {
			chosen = append(chosen, t)
			if !search(k - 1) {
				return false
			}
			chosen = chosen[:len(chosen)-1]
		}
		return true
	}
	for k := 0; !found; k++ {
		if !search(k) {
			return nil, false
		}
	}
	return best, true
}

// denyTargets chooses which of n targets deny so that every clause (as
// reduce leaves them: non-empty, distinct, of unforced targets) has a
// denying member. A target that is the only one of a clause denies;
// then, while a clause is unmet, the target meeting the most unmet
// clauses denies, the lowest index on a tie. Every other target permits.
func denyTargets(n int, clauses [][]int32) []bool {
	deny := make([]bool, n)
	for _, c := range clauses {
		if len(c) == 1 {
			deny[c[0]] = true
		}
	}
	met := func(c []int32) bool { return slices.ContainsFunc(c, func(t int32) bool { return deny[t] }) }
	count := make([]int, n)
	for open := slices.DeleteFunc(slices.Clone(clauses), met); len(open) > 0; open = slices.DeleteFunc(open, met) {
		clear(count)
		for _, c := range open {
			for _, t := range c {
				count[t]++
			}
		}
		deny[slices.Index(count, slices.Max(count))] = true
	}
	return deny
}
