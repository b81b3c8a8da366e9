package acl

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestQuickDifferentialSymmetric: the differential rule set treats the
// two ACLs symmetrically with respect to equivalence (Theorem 4.1 holds
// in both directions), and self-diffs are empty.
func TestQuickDifferentialProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomACL(r, 1+r.Intn(8))
		if len(Differential(l, l.Clone())) != 0 {
			return false
		}
		lp := perturb(r, l)
		d1 := Differential(l, lp)
		d2 := Differential(lp, l)
		// Same multiset of rules (LCS is symmetric up to tie-breaking on
		// equal-length subsequences, which preserves the set of dropped
		// rules' multiset size).
		if len(d1) != len(d2) {
			return false
		}
		// Every differential rule comes from one of the two lists.
		pool := map[string]int{}
		for _, rr := range l.Rules {
			pool[rr.String()]++
		}
		for _, rr := range lp.Rules {
			pool[rr.String()]++
		}
		for _, rr := range d1 {
			if rr.Match.IsAll() && rr.Action == l.Default {
				continue // synthetic default-change marker
			}
			if pool[rr.String()] == 0 {
				return false
			}
			pool[rr.String()]--
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSimplifyFastIdempotent: SimplifyFast is idempotent and never
// grows the rule list.
func TestQuickSimplifyFastIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomACL(r, r.Intn(12))
		s1 := SimplifyFast(a)
		s2 := SimplifyFast(s1)
		if len(s1.Rules) > len(a.Rules) {
			return false
		}
		return s1.String() == s2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSimplifyFastPassIgnoresInteriorRepeats is the lemma generate's
// merged synthesis table rests on (core.buildRows): over a list in which
// rule groups recur, one pass returns, rule for rule, what it returns once
// every occurrence of a group strictly between its first and its last is
// removed. Keeping the first occurrence alone is not enough — a later
// repeat of an opposite-action rule is what guards a default-agreeing rule
// before it — and the drawn population must show that too.
func TestQuickSimplifyFastPassIgnoresInteriorRepeats(t *testing.T) {
	firstOnlyDiffers := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		groups := make([][]Rule, 1+r.Intn(6))
		for g := range groups {
			groups[g] = randomACL(r, 1+r.Intn(3)).Rules
		}
		// A walk over the groups in runs, so that a group recurs both back
		// to back and with other groups in between.
		var occ []int
		for n := 1 + r.Intn(12); n > 0; n-- {
			g := r.Intn(len(groups))
			for run := 1 + r.Intn(3); run > 0; run-- {
				occ = append(occ, g)
			}
		}
		firstAt, lastAt := map[int]int{}, map[int]int{}
		for i, g := range occ {
			if _, seen := firstAt[g]; !seen {
				firstAt[g] = i
			}
			lastAt[g] = i
		}
		def := Action(r.Intn(2) == 0)
		all, outer, first := &ACL{Default: def}, &ACL{Default: def}, &ACL{Default: def}
		for i, g := range occ {
			all.Rules = append(all.Rules, groups[g]...)
			if i == firstAt[g] || i == lastAt[g] {
				outer.Rules = append(outer.Rules, groups[g]...)
			}
			if i == firstAt[g] {
				first.Rules = append(first.Rules, groups[g]...)
			}
		}
		want := SimplifyFastPass(all).Rules
		if !slices.Equal(SimplifyFastPass(first).Rules, want) {
			firstOnlyDiffers++
		}
		return slices.Equal(SimplifyFastPass(outer).Rules, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if firstOnlyDiffers == 0 {
		t.Error("no drawn list needed a group's last occurrence: the population does not exercise the lemma")
	}
}
