package core_test

import (
	"math/rand"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

// perturbFigure1 applies n random rule edits to the Figure 1 network's
// ACLs (the failure-injection generator for the properties below).
func perturbFigure1(r *rand.Rand, n int) (*topo.Network, *topo.Network) {
	before := papernet.Build()
	after := before.Clone()
	ids := []string{"A:1", "C:1", "D:2"}
	for i := 0; i < n; i++ {
		iface, _ := after.LookupInterface(ids[r.Intn(len(ids))])
		a := iface.ACL(topo.In)
		switch r.Intn(3) {
		case 0: // flip a rule action
			if len(a.Rules) > 0 {
				k := r.Intn(len(a.Rules))
				a.Rules[k].Action = !a.Rules[k].Action
			}
		case 1: // delete a rule
			if len(a.Rules) > 0 {
				k := r.Intn(len(a.Rules))
				a.Rules = append(a.Rules[:k], a.Rules[k+1:]...)
			}
		case 2: // insert a random deny/permit
			m := header.DstMatch(papernet.Traffic(1 + r.Intn(7)))
			if r.Intn(2) == 0 {
				m.Dst, _ = m.Dst.Halves()
			}
			rule := acl.Rule{Action: acl.Action(r.Intn(2) == 0), Match: m}
			pos := r.Intn(len(a.Rules) + 1)
			a.Rules = append(a.Rules[:pos], append([]acl.Rule{rule}, a.Rules[pos:]...)...)
		}
	}
	return before, after
}

// checkReference is an independent oracle: it decides reachability
// consistency by brute-force evaluating every path's decision on sample
// packets from every atomized class (no SMT involved).
func checkReference(before, after *topo.Network, scope *topo.Scope) bool {
	paths := before.AllPaths(scope)
	// Atomize against rule prefixes too so sampling is exact per class.
	var cuts []header.Prefix
	for _, n := range []*topo.Network{before, after} {
		for _, b := range n.ACLGroup(scope) {
			for _, r := range b.Iface.ACL(b.Dir).Rules {
				if !r.Match.Dst.IsAny() {
					cuts = append(cuts, r.Match.Dst)
				}
			}
		}
	}
	classes := before.EnteringTraffic(scope, cuts...)
	for _, c := range classes {
		pkt := header.Packet{DstIP: c.Addr}
		for _, p := range paths {
			if !p.ForwardsClass(c) {
				continue
			}
			bd := pathPermits(before, p, pkt)
			ad := pathPermits(after, p, pkt)
			if bd != ad {
				return false
			}
		}
	}
	return true
}

func TestCheckAgainstBruteForceOracle(t *testing.T) {
	// Property: Check agrees with the brute-force oracle on random
	// failure injections. (Figure 1 rules are destination-only, so
	// per-class sampling is an exact oracle.)
	r := rand.New(rand.NewSource(31))
	for iter := 0; iter < 60; iter++ {
		before, after := perturbFigure1(r, 1+r.Intn(4))
		for _, diff := range []bool{true, false} {
			opts := core.DefaultOptions()
			opts.UseDifferential = diff
			e := core.New(before, after, papernet.Scope(), opts)
			got := e.Check().Consistent
			want := checkReference(before, after, papernet.Scope())
			if got != want {
				t.Fatalf("iter %d diff=%v: Check=%v oracle=%v", iter, diff, got, want)
			}
			mono := e.CheckMonolithic().Consistent
			if mono != want {
				t.Fatalf("iter %d: CheckMonolithic=%v oracle=%v", iter, mono, want)
			}
		}
	}
}

func TestFixAlwaysVerifiesOnRandomInjections(t *testing.T) {
	// Property: whenever check fails, Fix produces a plan that passes
	// check, using only allowed bindings.
	r := rand.New(rand.NewSource(57))
	fixedCount := 0
	for iter := 0; iter < 30; iter++ {
		before, after := perturbFigure1(r, 1+r.Intn(3))
		e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
		// Allow everything (fix must then always succeed).
		for _, d := range before.SortedDevices() {
			for _, i := range d.SortedInterfaces() {
				e.Allow = append(e.Allow,
					topo.ACLBinding{Iface: i, Dir: topo.In},
					topo.ACLBinding{Iface: i, Dir: topo.Out})
			}
		}
		if e.Check().Consistent {
			continue
		}
		fixedCount++
		res, err := e.Fix()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("iter %d: fix with unrestricted allow did not verify\nactions: %v", iter, res.Actions)
		}
		if len(res.Unfixable) > 0 {
			t.Fatalf("iter %d: unfixable with unrestricted allow: %v", iter, res.Unfixable)
		}
		// Neighborhoods must be pairwise disjoint.
		for i := range res.Neighborhoods {
			for j := i + 1; j < len(res.Neighborhoods); j++ {
				if res.Neighborhoods[i].Overlaps(res.Neighborhoods[j]) {
					t.Fatalf("iter %d: neighborhoods %v and %v overlap", iter,
						res.Neighborhoods[i], res.Neighborhoods[j])
				}
			}
		}
	}
	if fixedCount == 0 {
		t.Fatal("failure injection never produced an inconsistency")
	}
}

func TestGenerateAlwaysVerifiesOnRandomMigrations(t *testing.T) {
	// Property: migrating a random subset of Figure 1's ACLs to a random
	// superset of target interfaces either verifies or honestly reports
	// unsolvable classes.
	r := rand.New(rand.NewSource(91))
	verified := 0
	for iter := 0; iter < 25; iter++ {
		before := papernet.Build()
		after := before.Clone()
		all := []string{"A:1", "C:1", "D:2"}
		var sources []topo.ACLBinding
		for _, id := range all {
			if r.Intn(2) == 0 {
				continue
			}
			ai, _ := after.LookupInterface(id)
			ai.SetACL(topo.In, acl.PermitAll())
			bi, _ := before.LookupInterface(id)
			sources = append(sources, topo.ACLBinding{Iface: bi, Dir: topo.In})
		}
		if len(sources) == 0 {
			continue
		}
		e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
		targets := []string{"A:1", "A:2", "A:3", "A:4", "B:1", "B:2", "C:1", "C:2", "C:4", "D:1", "D:2"}
		for _, id := range targets {
			if r.Intn(3) == 0 {
				continue
			}
			iface, _ := before.LookupInterface(id)
			e.Allow = append(e.Allow, topo.ACLBinding{Iface: iface, Dir: topo.In})
		}
		if len(e.Allow) == 0 {
			continue
		}
		res, err := e.Generate(sources)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Unsolvable) > 0 {
			continue // honestly reported; nothing more to assert
		}
		if !res.Verified {
			t.Fatalf("iter %d: solvable migration did not verify (sources=%v)", iter, sources)
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("no migration instance verified; generator too restrictive")
	}
}

func TestCheckConservative(t *testing.T) {
	// Equivalent rewrite: conservative check must pass.
	before := papernet.Build()
	after := before.Clone()
	a1, _ := after.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse(
		"deny dst 6.0.0.0/9, deny dst 6.128.0.0/9, permit all"))
	e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
	// It solves unbounded, so every result it returns is decided.
	if res := e.CheckConservative(); !res.Consistent || !res.Complete {
		t.Fatalf("conservative check on an equivalent rewrite: consistent=%v complete=%v", res.Consistent, res.Complete)
	}

	// Semantic change: must be flagged (and is also a real violation).
	after2 := runningExampleUpdate(before)
	e2 := core.New(before, after2, papernet.Scope(), core.DefaultOptions())
	res := e2.CheckConservative()
	if res.Consistent || !res.Complete {
		t.Fatalf("conservative check on a real change: consistent=%v complete=%v", res.Consistent, res.Complete)
	}
	if len(res.Violations) == 0 {
		t.Fatal("no counterexample packets reported")
	}

	// The documented false positive: moving a deny to an interface no
	// affected traffic traverses. Add "deny dst 9.0.0.0/8" (not routed)
	// on A:1 — per-ACL inequivalent, but reachability is untouched.
	after3 := before.Clone()
	a13, _ := after3.LookupInterface("A:1")
	a13.SetACL(topo.In, acl.MustParse(
		"deny dst 9.0.0.0/8, deny dst 6.0.0.0/8, permit all"))
	e3 := core.New(before, after3, papernet.Scope(), core.DefaultOptions())
	if res := e3.CheckConservative(); res.Consistent || !res.Complete {
		t.Fatalf("expected the conservative false positive: consistent=%v complete=%v", res.Consistent, res.Complete)
	}
	if !e3.Check().Consistent {
		t.Fatal("the exact check must see through the unrouted rule")
	}
	// Both modes agree on the differential toggle.
	opts := core.DefaultOptions()
	opts.UseDifferential = false
	e4 := core.New(before, after3, papernet.Scope(), opts)
	if res := e4.CheckConservative(); res.Consistent || !res.Complete {
		t.Fatalf("basic conservative check should match: consistent=%v complete=%v", res.Consistent, res.Complete)
	}
}

func TestCheckConservativePanicsWithControls(t *testing.T) {
	before := papernet.Build()
	e := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	e.Controls = []core.Control{{Mode: core.Isolate, Match: header.MatchAll}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic with control intents")
		}
	}()
	e.CheckConservative()
}

func TestFixOnWANInjectionsSmall(t *testing.T) {
	// End-to-end failure injection on the synthetic WAN: perturb,
	// check, fix, verify — across several seeds.
	if testing.Short() {
		t.Skip("WAN injection loop skipped in -short mode")
	}
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 5))
	ids := append(append(append([]string{}, w.EdgeACLs...), w.AggACLs...), w.CoreACLs...)
	for seed := int64(0); seed < 5; seed++ {
		after := w.Perturb(seed, 2)
		e := core.New(w.Net, after, w.Scope, core.DefaultOptions())
		bs, err := netgen.Bindings(w.Net, ids)
		if err != nil {
			t.Fatal(err)
		}
		e.Allow = bs
		res, err := e.Fix()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("seed %d: WAN fix did not verify", seed)
		}
	}
}

func TestGenerateRulesStayInAllowedVocabulary(t *testing.T) {
	// Every synthesized rule must only reference destinations inside the
	// scope's announced/ruled space (no invented prefixes).
	e, sources := migrationEngine(core.DefaultOptions())
	res, err := e.Generate(sources)
	if err != nil {
		t.Fatal(err)
	}
	for id, a := range res.ACLs {
		for _, r := range a.Rules {
			if r.Match.Dst.IsAny() {
				continue
			}
			if r.Match.Dst.Len < 8 {
				t.Errorf("%s: rule %v wider than any known class", id, r)
			}
		}
	}
}
