// Package acl models in-network Access Control Lists: ordered lists of
// permit/deny rules with first-match semantics (§2.1 of the paper), their
// boolean decision models f_ξ(h), and the rule-set manipulations Jinjing's
// primitives depend on — differential rules (Definition 4.1), the
// destination index, redundant-rule simplification, and equivalence
// checking.
package acl

import (
	"fmt"
	"strings"

	"jinjing/internal/header"
	"jinjing/internal/smt"
)

// Action is an ACL rule decision.
type Action bool

// The two rule actions.
const (
	Permit Action = true
	Deny   Action = false
)

// String renders the action in rule syntax.
func (a Action) String() string {
	if a == Permit {
		return "permit"
	}
	return "deny"
}

// Rule is one ACL entry: a 5-tuple match plus an action.
type Rule struct {
	Action Action
	Match  header.Match
}

// String renders the rule in the textual syntax, e.g. "deny dst 1.0.0.0/8".
func (r Rule) String() string {
	return r.Action.String() + " " + r.Match.String()
}

// ACL is a sequential list of rules evaluated top to bottom, with a
// default action when no rule matches. The paper's examples use
// "permit all" as the last rule of every ACL; here that final
// catch-all is the Default field (an explicit trailing "permit all" rule
// parses into it).
type ACL struct {
	Rules   []Rule
	Default Action
}

// PermitAll is an ACL that permits every packet — the state `modify ... to
// permit-all` leaves an interface in.
func PermitAll() *ACL { return &ACL{Default: Permit} }

// Clone returns a deep copy of the ACL.
func (a *ACL) Clone() *ACL {
	out := &ACL{Default: a.Default}
	out.Rules = append([]Rule(nil), a.Rules...)
	return out
}

// Decide returns the ACL's decision on packet p: the action of the first
// matching rule, or the default. This is the decision model f_ξ(h)
// interpreted concretely.
func (a *ACL) Decide(p header.Packet) Action {
	for _, r := range a.Rules {
		if r.Match.Matches(p) {
			return r.Action
		}
	}
	return a.Default
}

// Permits reports whether the ACL permits p (f_ξ(h) = TRUE).
func (a *ACL) Permits(p header.Packet) bool { return a.Decide(p) == Permit }

// DecideMatch returns the ACL's decision on an entire traffic class m,
// provided the class is "atomic" with respect to this ACL (every rule
// either contains m or is disjoint from it); ok is false otherwise.
func (a *ACL) DecideMatch(m header.Match) (Action, bool) {
	for _, r := range a.Rules {
		switch {
		case r.Match.Contains(m):
			return r.Action, true
		case r.Match.Overlaps(m):
			return false, false // class straddles the rule boundary
		}
	}
	return a.Default, true
}

// IsPermitAll reports whether the ACL permits every packet syntactically
// (no rules that could deny before a permit default, checked exactly via
// decision-model equivalence would need SMT; this is the common literal
// case).
func (a *ACL) IsPermitAll() bool {
	if a.Default != Permit {
		return false
	}
	for _, r := range a.Rules {
		if r.Action != Permit {
			return false
		}
	}
	return true
}

// Equal reports structural (rule-for-rule) equality.
func (a *ACL) Equal(b *ACL) bool {
	if a.Default != b.Default || len(a.Rules) != len(b.Rules) {
		return false
	}
	for i := range a.Rules {
		if a.Rules[i].Action != b.Rules[i].Action || !a.Rules[i].Match.Equal(b.Rules[i].Match) {
			return false
		}
	}
	return true
}

// Fingerprint returns a canonical 64-bit structural hash of the ACL:
// FNV-1a over the default action and every rule's action and raw match
// fields. Equal ACLs (per Equal, which is field-wise) always hash the
// same, so the engine's encoding cache can recognize structurally
// identical ACLs reached through different pointers — e.g. the cloned
// but unchanged bindings of an update — and encode them once.
// Collisions are possible and must be resolved with Equal.
func (a *ACL) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	if a.Default == Permit {
		mix(1)
	} else {
		mix(2)
	}
	mix(uint64(len(a.Rules)))
	for _, r := range a.Rules {
		if r.Action == Permit {
			mix(3)
		} else {
			mix(4)
		}
		m := r.Match
		mix(uint64(m.Src.Addr)<<8 | uint64(uint8(m.Src.Len)))
		mix(uint64(m.Dst.Addr)<<8 | uint64(uint8(m.Dst.Len)))
		mix(uint64(m.SrcPort.Lo)<<16 | uint64(m.SrcPort.Hi))
		mix(uint64(m.DstPort.Lo)<<16 | uint64(m.DstPort.Hi))
		mix(uint64(m.Proto.Lo)<<8 | uint64(m.Proto.Hi))
	}
	return h
}

// String renders the ACL as comma-separated rules ending with the default,
// mirroring the paper's notation, e.g.
// "deny dst 6.0.0.0/8, permit all".
func (a *ACL) String() string {
	parts := make([]string, 0, len(a.Rules)+1)
	for _, r := range a.Rules {
		parts = append(parts, r.String())
	}
	parts = append(parts, a.Default.String()+" all")
	return strings.Join(parts, ", ")
}

// Len returns the number of explicit rules.
func (a *ACL) Len() int { return len(a.Rules) }

// Parse parses the textual ACL syntax: rules separated by commas,
// semicolons, or newlines. Each rule is
//
//	(permit|deny) [src <prefix>] [dst <prefix>] [sport <range>]
//	              [dport <range>] [proto <proto>] | (permit|deny) all
//
// A trailing "<action> all" rule sets the default action. An empty input
// yields a permit-all ACL (matching the common default in the paper's
// network).
func Parse(text string) (*ACL, error) {
	a := &ACL{Default: Permit}
	type entry struct {
		rule  Rule
		isAll bool
	}
	var entries []entry
	split := func(r rune) bool { return r == ',' || r == ';' || r == '\n' }
	for _, line := range strings.FieldsFunc(text, split) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, isAll, err := parseRule(line)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{rule: r, isAll: isAll})
	}
	// A trailing "<action> all" is the default; catch-alls elsewhere are
	// ordinary rules (synthesis legitimately emits them mid-list).
	if n := len(entries); n > 0 && entries[n-1].isAll {
		a.Default = entries[n-1].rule.Action
		entries = entries[:n-1]
	}
	for _, e := range entries {
		r := e.rule
		if e.isAll {
			r.Match = header.MatchAll
		}
		a.Rules = append(a.Rules, r)
	}
	return a, nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(text string) *ACL {
	a, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return a
}

func parseRule(line string) (Rule, bool, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Rule{}, false, fmt.Errorf("acl: empty rule")
	}
	var act Action
	switch fields[0] {
	case "permit":
		act = Permit
	case "deny":
		act = Deny
	default:
		return Rule{}, false, fmt.Errorf("acl: rule must start with permit/deny: %q", line)
	}
	rest := fields[1:]
	if len(rest) == 1 && (rest[0] == "all" || rest[0] == "any") {
		return Rule{Action: act, Match: header.MatchAll}, true, nil
	}
	m := header.MatchAll
	if len(rest) == 0 || len(rest)%2 != 0 {
		return Rule{}, false, fmt.Errorf("acl: malformed rule %q", line)
	}
	for i := 0; i < len(rest); i += 2 {
		key, val := rest[i], rest[i+1]
		var err error
		switch key {
		case "src":
			m.Src, err = header.ParsePrefix(val)
		case "dst":
			m.Dst, err = header.ParsePrefix(val)
		case "sport":
			m.SrcPort, err = header.ParsePortRange(val)
		case "dport":
			m.DstPort, err = header.ParsePortRange(val)
		case "proto":
			m.Proto, err = header.ParseProto(val)
		default:
			return Rule{}, false, fmt.Errorf("acl: unknown field %q in rule %q", key, line)
		}
		if err != nil {
			return Rule{}, false, fmt.Errorf("acl: in rule %q: %v", line, err)
		}
	}
	return Rule{Action: act, Match: m}, false, nil
}

// EncodeSeq builds the sequential (priority-order) decision model of the
// ACL over symbolic packet pv: a right fold of if-then-else over the rule
// list, exactly the O(n)-depth encoding §4.1 starts from.
func (a *ACL) EncodeSeq(b *smt.Builder, pv *smt.PacketVars) smt.F {
	out := b.Const(bool(a.Default))
	for i := len(a.Rules) - 1; i >= 0; i-- {
		r := a.Rules[i]
		out = b.Ite(b.MatchPred(pv, r.Match), b.Const(bool(r.Action)), out)
	}
	return out
}

// EncodeTournament builds the tournament-tree decision model (§4.1 "ACL
// decision model optimization"): rules are combined pairwise like a
// tournament sort, producing an O(log n)-depth circuit. For a segment of
// rules we track the pair (hit, val): whether any rule in the segment
// matches, and the decision of the first matching rule.
func (a *ACL) EncodeTournament(b *smt.Builder, pv *smt.PacketVars) smt.F {
	hit, val := a.encodeSegment(b, pv, 0, len(a.Rules))
	return b.Ite(hit, val, b.Const(bool(a.Default)))
}

func (a *ACL) encodeSegment(b *smt.Builder, pv *smt.PacketVars, lo, hi int) (hit, val smt.F) {
	switch hi - lo {
	case 0:
		return smt.False, smt.False
	case 1:
		r := a.Rules[lo]
		return b.MatchPred(pv, r.Match), b.Const(bool(r.Action))
	}
	mid := (lo + hi) / 2
	hl, vl := a.encodeSegment(b, pv, lo, mid)
	hr, vr := a.encodeSegment(b, pv, mid, hi)
	return b.Or(hl, hr), b.Ite(hl, vl, vr)
}
