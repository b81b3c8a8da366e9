package acl

import (
	"jinjing/internal/header"
)

// ruleEq reports whether two rules are identical (action and match).
func ruleEq(a, b Rule) bool {
	return a.Action == b.Action && a.Match.Equal(b.Match)
}

// lcsKeep computes, via the classic dynamic program, which positions of l
// and m participate in one Longest Common Subsequence of the two rule
// lists (the L ∩→ L' of Definition 4.1).
func lcsKeep(l, m []Rule) (keepL, keepM []bool) {
	n, k := len(l), len(m)
	dp := make([][]int32, n+1)
	for i := range dp {
		dp[i] = make([]int32, k+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := k - 1; j >= 0; j-- {
			if ruleEq(l[i], m[j]) {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	keepL = make([]bool, n)
	keepM = make([]bool, k)
	for i, j := 0, 0; i < n && j < k; {
		switch {
		case ruleEq(l[i], m[j]):
			keepL[i], keepM[j] = true, true
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return keepL, keepM
}

// Differential computes the differential ACL rules between L and L'
// (Definition 4.1): the rules of either list that are not part of their
// longest common subsequence — i.e. exactly the rules the update adds or
// removes. Changed defaults contribute a catch-all rule for each side.
func Differential(l, lp *ACL) []Rule {
	keepL, keepM := lcsKeep(l.Rules, lp.Rules)
	var out []Rule
	for i, k := range keepL {
		if !k {
			out = append(out, l.Rules[i])
		}
	}
	for j, k := range keepM {
		if !k {
			out = append(out, lp.Rules[j])
		}
	}
	if l.Default != lp.Default {
		out = append(out, Rule{Action: l.Default, Match: header.MatchAll})
	}
	return out
}
