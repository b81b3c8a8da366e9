package core

import (
	"fmt"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// HopTrace is the decision of one ACL attachment point on a packet, with
// the rule that made it — the operator-facing "why" of a violation.
type HopTrace struct {
	BindingID string
	// Rule is the matched rule's text, or "(default)" when the packet
	// fell through to the ACL's default action.
	Rule   string
	Action acl.Action
}

// PathTrace explains one path's decision on a packet in one snapshot.
type PathTrace struct {
	Path      topo.Path
	Permitted bool
	// Hops lists every ACL-carrying attachment point in traversal order.
	// The first denying hop (if any) is where the packet dies.
	Hops []HopTrace
}

// Explanation pairs the before/after traces of a violation on one path.
type Explanation struct {
	Packet header.Packet
	Path   topo.Path
	Before PathTrace
	After  PathTrace
}

// Explain reconstructs, for each disagreeing path of a violation, the
// hop-by-hop ACL decisions before and after the update — naming the rule
// responsible at every hop.
func (e *Engine) Explain(v Violation) []Explanation {
	out := make([]Explanation, 0, len(v.Paths))
	for _, p := range v.Paths {
		out = append(out, Explanation{
			Packet: v.Packet,
			Path:   p,
			Before: tracePath(e.Before, p, v.Packet),
			After:  tracePath(e.After, p, v.Packet),
		})
	}
	return out
}

// tracePath evaluates the path decision on one snapshot, recording the
// matching rule at every ACL-carrying hop.
func tracePath(n *topo.Network, p topo.Path, pkt header.Packet) PathTrace {
	tr := PathTrace{Path: p, Permitted: true}
	for _, b := range p.Bindings() {
		nb, err := moveBinding(b, n)
		if err != nil || nb.Iface.ACL(nb.Dir) == nil {
			continue
		}
		a := nb.Iface.ACL(nb.Dir)
		hop := HopTrace{
			BindingID: b.ID(),
			Rule:      "(default)",
			Action:    a.Default,
		}
		for _, r := range a.Rules {
			if r.Match.Matches(pkt) {
				hop.Rule = r.String()
				hop.Action = r.Action
				break
			}
		}
		tr.Hops = append(tr.Hops, hop)
		if hop.Action == acl.Deny {
			tr.Permitted = false
		}
	}
	return tr
}

// String renders the explanation as an operator-readable diff.
func (x Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packet %v on %v\n", x.Packet, x.Path)
	fmt.Fprintf(&b, "  before: %s\n", x.Before.verdict())
	for _, h := range x.Before.Hops {
		fmt.Fprintf(&b, "    %-14s %-6s via %s\n", h.BindingID, h.Action, h.Rule)
	}
	fmt.Fprintf(&b, "  after:  %s\n", x.After.verdict())
	for _, h := range x.After.Hops {
		fmt.Fprintf(&b, "    %-14s %-6s via %s\n", h.BindingID, h.Action, h.Rule)
	}
	return b.String()
}

func (t PathTrace) verdict() string {
	if t.Permitted {
		return "PERMITTED"
	}
	return "DENIED"
}
