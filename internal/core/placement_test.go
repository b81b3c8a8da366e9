package core_test

import (
	"slices"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

// TestPlacementRefusals drives both refusals of the closed-form
// placement through both primitives on the Figure 1 network: a shape
// desiring permit that crosses a deny the plan may not change, and a
// shape desiring deny whose only changeable bindings a permit-desiring
// shape forces. Each refused case names the traffic it cannot place
// (fix: an unfixable neighborhood; generate: unsolvable classes after
// the DEC split); the last two cases are the solvable controls.
//
// Traffic 1 runs p0 = A1,A4,D1,D3 only; traffic 2 runs p0 and
// p2 = A1,A2,B1,B2,C2,C4,D2,D3, where D2 denies it; traffic 7 runs
// A1,A3,C1,C3, where C1 denies it.
func TestPlacementRefusals(t *testing.T) {
	bind := func(n *topo.Network, id string, dir topo.Direction) topo.ACLBinding {
		i, err := n.LookupInterface(id)
		if err != nil {
			t.Fatal(err)
		}
		return topo.ACLBinding{Iface: i, Dir: dir}
	}
	// withACL returns a clone of n with text bound at id's ingress.
	withACL := func(n *topo.Network, id, text string) *topo.Network {
		out := n.Clone()
		bind(out, id, topo.In).Iface.SetACL(topo.In, acl.MustParse(text))
		return out
	}
	before := papernet.Build()
	// D2 drops its denies of traffic 1 and 2: p2 now permits traffic 2.
	d2Open := withACL(before, "D:2", "permit all")

	for _, c := range []struct {
		name     string
		generate bool
		after    *topo.Network
		allow    []topo.ACLBinding
		sources  []topo.ACLBinding
		controls []core.Control
		refused  header.Prefix // the traffic refused; zero: solvable
	}{
		{
			// p0 desires permit for traffic 1; D1, closed, now denies it.
			name:    "fix/closed-deny",
			after:   withACL(before, "D:1", "deny dst 1.0.0.0/8, permit all"),
			allow:   []topo.ACLBinding{bind(before, "A:1", topo.In), bind(before, "A:4", topo.Out)},
			refused: pfx("1.0.0.0/8"),
		},
		{
			// p2 desires deny for traffic 2, and its only allowed
			// binding, A1, is forced to permit by p0.
			name:    "fix/forced-clause",
			after:   d2Open,
			allow:   []topo.ACLBinding{bind(before, "A:1", topo.In)},
			refused: pfx("2.0.0.0/8"),
		},
		{
			// Opening traffic 7 to C3 meets C1's deny, neither target
			// nor source.
			name:     "generate/closed-deny",
			generate: true,
			after:    before.Clone(),
			allow:    []topo.ACLBinding{bind(before, "A:1", topo.In)},
			controls: []core.Control{{
				From:  core.IfacesNamed(before, "A:1"),
				To:    core.IfacesNamed(before, "C:3"),
				Mode:  core.Open,
				Match: header.DstMatch(pfx("7.0.0.0/8")),
			}},
			refused: pfx("7.0.0.0/8"),
		},
		{
			// With D2 a source, p2 must deny traffic 2 at a target, and
			// its only one, A1, is forced to permit by p0.
			name:     "generate/forced-clause",
			generate: true,
			after:    d2Open,
			allow:    []topo.ACLBinding{bind(before, "A:1", topo.In)},
			sources:  []topo.ACLBinding{bind(d2Open, "D:2", topo.In)},
			refused:  pfx("2.0.0.0/8"),
		},
		{
			name:  "fix/solvable",
			after: d2Open,
			allow: []topo.ACLBinding{bind(before, "A:1", topo.In), bind(before, "A:2", topo.Out)},
		},
		{
			name:     "generate/solvable",
			generate: true,
			after:    d2Open,
			allow:    []topo.ACLBinding{bind(before, "A:1", topo.In), bind(before, "A:2", topo.Out)},
			sources:  []topo.ACLBinding{bind(d2Open, "D:2", topo.In)},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := core.New(before, c.after, papernet.Scope(), core.DefaultOptions())
			e.Allow, e.Controls = c.allow, c.controls
			var refused []header.Match
			var verified bool
			if c.generate {
				res, err := e.Generate(c.sources)
				if err != nil {
					t.Fatal(err)
				}
				refused, verified = res.Unsolvable, res.Verified
			} else {
				res, err := e.Fix()
				if err != nil {
					t.Fatal(err)
				}
				refused, verified = slices.Concat(res.Unfixable...), res.Verified
			}
			if c.refused == (header.Prefix{}) {
				if len(refused) > 0 || !verified {
					t.Fatalf("refused %v, verified %v: want a verified plan", refused, verified)
				}
				return
			}
			if len(refused) == 0 {
				t.Fatal("no refusal")
			}
			for _, m := range refused {
				if !c.refused.Contains(m.Dst) {
					t.Fatalf("refused %v, outside %v", m, c.refused)
				}
			}
		})
	}
}
