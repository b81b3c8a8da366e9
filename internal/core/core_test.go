package core_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/lai"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

func pfx(s string) header.Prefix { return header.MustParsePrefix(s) }

// runningExampleUpdate applies the §3.2 update to a clone of the Figure 1
// network: move "deny 1/8, deny 2/8" from D2 to the top of A1, and
// "deny 7/8" from C1 to A3 (egress).
func runningExampleUpdate(n *topo.Network) *topo.Network {
	after := n.Clone()
	a1, _ := after.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse(
		"deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, deny dst 6.0.0.0/8, permit all"))
	a3, _ := after.LookupInterface("A:3")
	a3.SetACL(topo.Out, acl.MustParse("deny dst 7.0.0.0/8, permit all"))
	c1, _ := after.LookupInterface("C:1")
	c1.SetACL(topo.In, acl.PermitAll())
	d2, _ := after.LookupInterface("D:2")
	d2.SetACL(topo.In, acl.PermitAll())
	return after
}

// splitEngine checks netgen small seed 2 against a 4% perturbation of it.
// At a cube budget of two, several of its FECs — violating and consistent
// alike — overflow and are split, which the running example's one-cube
// sets never do.
func splitEngine(opts core.Options) *core.Engine {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 2))
	return core.New(w.Net, w.Perturb(3, 4), w.Scope, opts)
}

// checkWorkers runs e.Check with Options.Workers set to workers for
// this call only, so one engine can be checked at several worker counts.
func checkWorkers(e *core.Engine, workers int) *core.CheckResult {
	defer func(w int) { e.Opts.Workers = w }(e.Opts.Workers)
	e.Opts.Workers = workers
	return e.Check()
}

func newRunningEngine(t *testing.T, opts core.Options) *core.Engine {
	t.Helper()
	before := papernet.Build()
	after := runningExampleUpdate(before)
	e := core.New(before, after, papernet.Scope(), opts)
	// allow A:*, B:* — both directions of every interface on A and B.
	for _, dev := range []string{"A", "B"} {
		d := before.Devices[dev]
		for _, i := range d.SortedInterfaces() {
			e.Allow = append(e.Allow,
				topo.ACLBinding{Iface: i, Dir: topo.In},
				topo.ACLBinding{Iface: i, Dir: topo.Out})
		}
	}
	return e
}

func TestRunningExampleCheckInconsistent(t *testing.T) {
	for _, diff := range []bool{true, false} {
		opts := core.DefaultOptions()
		opts.UseDifferential = diff
		opts.FindAllViolations = true
		e := newRunningEngine(t, opts)
		res := e.Check()
		if res.Consistent {
			t.Fatalf("diff=%v: update must be inconsistent", diff)
		}
		// Violations must cover exactly traffic 1 and traffic 2 (traffic
		// 3 shares 2's FEC but is not itself broken; 6 and 7 stay denied).
		var broken []string
		for _, v := range res.Violations {
			broken = append(broken, pfx(v.Classes[0].String()).String())
			if len(v.Paths) == 0 {
				t.Errorf("violation without disagreeing paths: %+v", v)
			}
			// The counterexample must really flip some path decision.
			flipped := false
			for _, p := range v.Paths {
				bp := pathPermits(e.Before, p, v.Packet)
				ap := pathPermits(e.After, p, v.Packet)
				if bp != ap {
					flipped = true
				}
			}
			if !flipped {
				t.Errorf("diff=%v: counterexample %v does not flip any reported path", diff, v.Packet)
			}
		}
		sort.Strings(broken)
		want := "1.0.0.0/8,2.0.0.0/8"
		if strings.Join(broken, ",") != want {
			t.Errorf("diff=%v: violated FECs = %v, want %v", diff, broken, want)
		}
	}
}

// pathPermits evaluates a path's decision on a packet against a specific
// network snapshot (paths carry interfaces of the Before network, so
// bindings are re-resolved by ID).
func pathPermits(n *topo.Network, p topo.Path, pkt header.Packet) bool {
	for _, b := range p.Bindings() {
		i, err := n.LookupInterface(b.Iface.ID())
		if err != nil {
			continue
		}
		if a := i.ACL(b.Dir); a != nil && !a.Permits(pkt) {
			return false
		}
	}
	return true
}

func TestRunningExampleCheckConsistentWhenNoChange(t *testing.T) {
	before := papernet.Build()
	e := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	res := e.Check()
	if !res.Consistent {
		t.Fatal("identical snapshots must be consistent")
	}
	if res.SolvedFECs != 0 {
		t.Errorf("differential fast path should skip all FECs, solved %d", res.SolvedFECs)
	}
}

func TestRunningExampleFix(t *testing.T) {
	e := newRunningEngine(t, core.DefaultOptions())
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("fixed network must pass check; actions: %v", res.Actions)
	}
	if len(res.Unfixable) != 0 {
		t.Fatalf("unfixable neighborhoods: %v", res.Unfixable)
	}
	// Two neighborhoods: traffic 1 and traffic 2 (§4.2's example).
	if len(res.Neighborhoods) != 2 {
		t.Errorf("neighborhoods = %v, want 2", res.Neighborhoods)
	}
	var dsts []string
	for _, nb := range res.Neighborhoods {
		dsts = append(dsts, nb.Dst.String())
	}
	sort.Strings(dsts)
	if strings.Join(dsts, ",") != "1.0.0.0/8,2.0.0.0/8" {
		t.Errorf("neighborhood dsts = %v", dsts)
	}
	// All fixing rules must sit on allowed devices (A or B).
	for _, a := range res.Actions {
		if !strings.HasPrefix(a.BindingID, "A:") && !strings.HasPrefix(a.BindingID, "B:") {
			t.Errorf("fix touched non-allowed binding %s", a.BindingID)
		}
	}
	// §4.2: after fixing and simplification, A1's ACL collapses back to
	// the original "deny 6/8, permit all".
	a1, _ := res.Fixed.LookupInterface("A:1")
	origA1, _ := e.Before.LookupInterface("A:1")
	if !acl.Equivalent(a1.ACL(topo.In), origA1.ACL(topo.In)) {
		t.Errorf("fixed A1 = %v, want equivalent to original %v", a1.ACL(topo.In), origA1.ACL(topo.In))
	}
}

func TestFixWithoutOptimizations(t *testing.T) {
	opts := core.Options{} // everything off
	e := newRunningEngine(t, opts)
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("unoptimized fix must still verify; actions: %v", res.Actions)
	}
}

func migrationEngine(opts core.Options) (*core.Engine, []topo.ACLBinding) {
	before := papernet.Build()
	// §5 migration: S = {A1, D2} cleared, T = {C1, C2, D1}.
	after := before.Clone()
	var sources []topo.ACLBinding
	for _, id := range []string{"A:1:in", "D:2:in"} {
		iface, _ := after.LookupInterface(strings.TrimSuffix(id, ":in"))
		iface.SetACL(topo.In, acl.PermitAll())
		bi, _ := before.LookupInterface(strings.TrimSuffix(id, ":in"))
		sources = append(sources, topo.ACLBinding{Iface: bi, Dir: topo.In})
	}
	e := core.New(before, after, papernet.Scope(), opts)
	for _, id := range []string{"C:1", "C:2", "D:1"} {
		iface, _ := before.LookupInterface(id)
		e.Allow = append(e.Allow, topo.ACLBinding{Iface: iface, Dir: topo.In})
	}
	return e, sources
}

func TestTable3AECs(t *testing.T) {
	// The migration example groups the seven traffic classes into the
	// four AECs of Table 3: {1,2}, {3,4,5}, {6}, {7}.
	e, sources := migrationEngine(core.DefaultOptions())
	res, err := e.Generate(sources)
	if err != nil {
		t.Fatal(err)
	}
	if res.AECs != 4 {
		t.Fatalf("AECs = %d, want 4 (Table 3)", res.AECs)
	}
	if res.Classes != 7 {
		t.Fatalf("classes = %d, want 7", res.Classes)
	}
	// §5.3: exactly one AEC ([1]) needs the DEC split.
	if res.DECSplitAECs != 1 {
		t.Fatalf("DEC-split AECs = %d, want 1", res.DECSplitAECs)
	}
}

func TestTable4Synthesis(t *testing.T) {
	e, sources := migrationEngine(core.DefaultOptions())
	res, err := e.Generate(sources)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unsolvable) > 0 {
		t.Fatalf("unsolvable classes: %v", res.Unsolvable)
	}
	if !res.Verified {
		t.Fatal("generated plan must preserve reachability")
	}
	// Semantic expectations from Table 4b (the paper's synthesized
	// decisions), checked as packet decisions rather than exact rule
	// text (simplification may reshape the lists):
	//   C1 denies 6 and 7, permits 1-5;
	//   C2 denies 6 and 2, permits 1, 3-5, 7;
	//   D1 denies 6, permits the rest.
	decide := func(id string, traffic int) acl.Action {
		a := res.ACLs[id+":in"]
		if a == nil {
			t.Fatalf("no ACL synthesized for %s", id)
		}
		return a.Decide(header.Packet{DstIP: uint32(traffic) << 24})
	}
	type want struct {
		id      string
		traffic int
		act     acl.Action
	}
	wants := []want{
		{"C:1", 6, acl.Deny}, {"C:1", 7, acl.Deny},
		{"C:1", 1, acl.Permit}, {"C:1", 2, acl.Permit}, {"C:1", 3, acl.Permit},
		{"C:2", 6, acl.Deny}, {"C:2", 2, acl.Deny},
		{"C:2", 1, acl.Permit}, {"C:2", 3, acl.Permit}, {"C:2", 7, acl.Permit},
		{"D:1", 6, acl.Deny},
		{"D:1", 1, acl.Permit}, {"D:1", 2, acl.Permit}, {"D:1", 7, acl.Permit},
	}
	for _, w := range wants {
		if got := decide(w.id, w.traffic); got != w.act {
			t.Errorf("%s on traffic %d = %v, want %v", w.id, w.traffic, got, w.act)
		}
	}
}

func TestGenerateWithoutOptimizations(t *testing.T) {
	opts := core.Options{}
	e, sources := migrationEngine(opts)
	res, err := e.Generate(sources)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || len(res.Unsolvable) > 0 {
		t.Fatalf("unoptimized generate must verify: unsolvable=%v", res.Unsolvable)
	}
	// With optimizations the generated ACLs must be no longer.
	optE, optSources := migrationEngine(core.DefaultOptions())
	optRes, err := optE.Generate(optSources)
	if err != nil {
		t.Fatal(err)
	}
	if optRes.RulesAfterSimplify > res.RulesAfterSimplify {
		t.Errorf("optimized output longer (%d) than unoptimized (%d)",
			optRes.RulesAfterSimplify, res.RulesAfterSimplify)
	}
}

func TestGenerateUnsolvableIntent(t *testing.T) {
	// Remove every allowed target except one that no relevant path
	// traverses — migrating D2's denies becomes impossible.
	before := papernet.Build()
	after := before.Clone()
	d2, _ := after.LookupInterface("D:2")
	d2.SetACL(topo.In, acl.PermitAll())
	bD2, _ := before.LookupInterface("D:2")
	sources := []topo.ACLBinding{{Iface: bD2, Dir: topo.In}}

	e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
	d1, _ := before.LookupInterface("D:1")
	e.Allow = []topo.ACLBinding{{Iface: d1, Dir: topo.In}}
	res, err := e.Generate(sources)
	if err != nil {
		t.Fatal(err)
	}
	// Traffic 2 must stay denied on p2 = <A1,A2,B1,B2,C2,C4,D2,D3>, but
	// the only allowed target D:1 does not lie on p2 — even the DEC split
	// cannot save this intent.
	if len(res.Unsolvable) == 0 {
		t.Fatal("expected unsolvable classes")
	}
	found := false
	for _, c := range res.Unsolvable {
		if c.Dst == pfx("2.0.0.0/8") {
			found = true
		}
	}
	if !found {
		t.Errorf("traffic 2 should be among the unsolvable classes: %v", res.Unsolvable)
	}
}

// overlapBombNet is Figure 1 with 66 source-prefix denies on A1 and 66
// destination-port denies on C1. Each list is one §5.5 group, so the AEC
// denied at both carries 66 × 66 = 4,356 distinct overlap intersections
// in one synthesis row — past maxOverlapsPerRow (4,096).
func overlapBombNet() *topo.Network {
	n := papernet.Build()
	var srcs, ports []string
	for i := 0; i < 66; i++ {
		srcs = append(srcs, fmt.Sprintf("deny src 10.0.%d.0/24", i))
		ports = append(ports, fmt.Sprintf("deny dport %d", 1000+2*i))
	}
	a1, _ := n.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse(strings.Join(srcs, ", ")+", permit all"))
	c1, _ := n.LookupInterface("C:1")
	c1.SetACL(topo.In, acl.MustParse(strings.Join(ports, ", ")+", permit all"))
	return n
}

func TestGenerateOverlapBoundIsAnError(t *testing.T) {
	// An input-reachable blow-up of the overlap field must come back as a
	// structured error naming the AEC and the bound — never a panic.
	before := overlapBombNet()
	a1, _ := before.LookupInterface("A:1")
	e := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	for _, id := range []string{"C:1", "C:2", "D:1"} {
		iface, _ := before.LookupInterface(id)
		e.Allow = append(e.Allow, topo.ACLBinding{Iface: iface, Dir: topo.In})
	}
	res, err := e.Generate([]topo.ACLBinding{{Iface: a1, Dir: topo.In}})
	var bound *core.ErrOverlapBound
	if !errors.As(err, &bound) {
		t.Fatalf("want *ErrOverlapBound, got res=%+v err=%v", res, err)
	}
	if bound.Bound != 4096 || bound.AEC < 0 || bound.AEC >= 8 {
		t.Fatalf("error names AEC %d, bound %d", bound.AEC, bound.Bound)
	}
	for _, want := range []string{fmt.Sprintf("AEC %d", bound.AEC), "4096"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("message %q does not name %q", err, want)
		}
	}
}

func TestControlIsolateGenerate(t *testing.T) {
	// Scenario-1 style: isolate traffic to 5.0.0.0/8 between A:1 and D:3
	// by generating rules at the allowed interfaces, preserving all other
	// reachability.
	before := papernet.Build()
	e := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	for _, id := range []string{"B:1", "B:2"} {
		iface, _ := before.LookupInterface(id)
		e.Allow = append(e.Allow, topo.ACLBinding{Iface: iface, Dir: topo.In})
	}
	e.Controls = []core.Control{{
		From:  map[string]bool{"A:1": true},
		To:    map[string]bool{"D:3": true},
		Mode:  core.Isolate,
		Match: header.DstMatch(pfx("5.0.0.0/8")),
	}}
	res, err := e.Generate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unsolvable) > 0 {
		t.Fatalf("unsolvable: %v", res.Unsolvable)
	}
	if !res.Verified {
		t.Fatal("generated isolation plan must satisfy the desired reachability")
	}
	// Semantics: traffic 5 must now be denied on its path (p2), while
	// traffic 2 and 3 (sharing links) stay reachable.
	gen := res.Generated
	paths := gen.AllPaths(papernet.Scope())
	for _, p := range paths {
		if p.Dst().ID() != "D:3" {
			continue
		}
		if p.ForwardsClass(pfx("5.0.0.0/8")) && pathPermits(gen, p, header.Packet{DstIP: 5 << 24}) {
			t.Errorf("traffic 5 still reachable via %v", p)
		}
		if p.ForwardsClass(pfx("3.0.0.0/8")) && !pathPermits(gen, p, header.Packet{DstIP: 3 << 24}) {
			t.Errorf("traffic 3 wrongly isolated on %v", p)
		}
	}
}

func TestControlOpenGenerate(t *testing.T) {
	// Open traffic 6 from A:1 to D:3 (currently denied by A1) by
	// regenerating A's ACLs.
	before := papernet.Build()
	e := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	a1, _ := before.LookupInterface("A:1")
	e.Allow = []topo.ACLBinding{{Iface: a1, Dir: topo.In}}
	e.Controls = []core.Control{{
		From:  map[string]bool{"A:1": true},
		To:    map[string]bool{"D:3": true},
		Mode:  core.Open,
		Match: header.DstMatch(pfx("6.0.0.0/8")),
	}}
	// A1's original ACL is replaced (it is both source and target).
	res, err := e.Generate([]topo.ACLBinding{{Iface: a1, Dir: topo.In}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unsolvable) > 0 {
		t.Fatalf("unsolvable: %v", res.Unsolvable)
	}
	if !res.Verified {
		t.Fatal("open plan must verify")
	}
	gen := res.Generated
	for _, p := range gen.AllPaths(papernet.Scope()) {
		if p.Dst().ID() == "D:3" && p.ForwardsClass(pfx("6.0.0.0/8")) {
			if !pathPermits(gen, p, header.Packet{DstIP: 6 << 24}) {
				t.Errorf("traffic 6 still blocked on %v", p)
			}
		}
	}
}

func TestControlCheckDesiredReachability(t *testing.T) {
	// §6 check: an update that adds "deny 5/8" at A1 satisfies the intent
	// "isolate 5/8 from A:1 to D:3, maintain the rest".
	before := papernet.Build()
	after := before.Clone()
	a1, _ := after.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse("deny dst 5.0.0.0/8, deny dst 6.0.0.0/8, permit all"))
	e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
	e.Controls = []core.Control{{
		From:  map[string]bool{"A:1": true},
		To:    map[string]bool{"D:3": true, "C:3": true},
		Mode:  core.Isolate,
		Match: header.DstMatch(pfx("5.0.0.0/8")),
	}}
	if res := e.Check(); !res.Consistent {
		t.Fatalf("isolation update should satisfy the intent: %+v", res.Violations)
	}
	// Without the control, the same update is an inconsistency.
	e2 := core.New(before, after, papernet.Scope(), core.DefaultOptions())
	if res := e2.Check(); res.Consistent {
		t.Fatal("without the intent the update must be flagged")
	}
}

func TestControlMaintainPrecedence(t *testing.T) {
	// "maintain 7/8" listed before "isolate all" protects traffic 7 on
	// the A:1 -> C:3 pair while everything else to C:3 is isolated.
	before := papernet.Build()
	e := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	for _, id := range []string{"A:2", "A:3"} {
		iface, _ := before.LookupInterface(id)
		e.Allow = append(e.Allow, topo.ACLBinding{Iface: iface, Dir: topo.Out})
	}
	e.Controls = []core.Control{
		{
			From: map[string]bool{"A:1": true}, To: map[string]bool{"C:3": true},
			Mode: core.Maintain, Match: header.DstMatch(pfx("7.0.0.0/8")),
		},
		{
			From: map[string]bool{"A:1": true}, To: map[string]bool{"C:3": true},
			Mode: core.Isolate, Match: header.MatchAll,
		},
	}
	res, err := e.Generate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || len(res.Unsolvable) > 0 {
		t.Fatalf("maintain/isolate plan must verify (unsolvable=%v)", res.Unsolvable)
	}
	gen := res.Generated
	for _, p := range gen.AllPaths(papernet.Scope()) {
		if p.Dst().ID() != "C:3" {
			continue
		}
		if p.ForwardsClass(pfx("7.0.0.0/8")) {
			// Originally denied at C1 -> maintain keeps it denied; fine
			// either way as long as it matches the original.
			orig := pathPermits(before, p, header.Packet{DstIP: 7 << 24})
			got := pathPermits(gen, p, header.Packet{DstIP: 7 << 24})
			if got != orig {
				t.Errorf("maintained traffic 7 changed on %v: %v -> %v", p, orig, got)
			}
		}
	}
}

func TestRunProgramEndToEnd(t *testing.T) {
	// The Figure 3 program via the LAI front end: check reports the
	// inconsistency, fix repairs it.
	src := `
scope A:*, B:*, C:*, D:*
entry A:1
allow A:*, B:*
acl A1new { deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, deny dst 6.0.0.0/8, permit all }
acl A3new { deny dst 7.0.0.0/8, permit all }
modify D:2, C:1 to permit-all
modify A:1 to acl A1new
modify A:3-out to acl A3new
check
fix
`
	net := papernet.Build()
	resolved, err := lai.Resolve(lai.MustParse(src), net, lai.ResolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Run(resolved, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) != 1 || rep.Checks[0].Consistent {
		t.Fatal("check should report inconsistency")
	}
	if len(rep.Fixes) != 1 || !rep.Fixes[0].Verified {
		t.Fatal("fix should produce a verified plan")
	}
	var sb strings.Builder
	rep.Print(&sb)
	out := sb.String()
	if !strings.Contains(out, "INCONSISTENT") || !strings.Contains(out, "verified=true") {
		t.Errorf("report output unexpected:\n%s", out)
	}
}

func TestRunMigrationProgram(t *testing.T) {
	src := `
scope A:*, B:*, C:*, D:*
entry A:1
allow C:1, C:2, D:1
modify A:1, D:2 to permit-all
generate
`
	net := papernet.Build()
	resolved, err := lai.Resolve(lai.MustParse(src), net, lai.ResolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Run(resolved, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Generates) != 1 {
		t.Fatal("expected one generate result")
	}
	g := rep.Generates[0]
	if !g.Verified || len(g.Unsolvable) > 0 {
		t.Fatalf("migration program failed: verified=%v unsolvable=%v", g.Verified, g.Unsolvable)
	}
}

func TestCheckStats(t *testing.T) {
	e := newRunningEngine(t, core.DefaultOptions())
	res := e.Check()
	if res.FECs != 5 {
		t.Errorf("FECs = %d, want 5", res.FECs)
	}
	if res.SolvedFECs == 0 {
		t.Error("an inconsistent update must reach the solver")
	}
	if res.SolvedFECs >= res.FECs {
		t.Error("differential fast path should skip untouched FECs")
	}
}

func TestMonolithicAgreesWithCheck(t *testing.T) {
	// The Minesweeper-style baseline must decide exactly the same
	// property as Algorithm 1, on both inconsistent and consistent
	// updates.
	// It solves unbounded, so every result it returns is decided.
	e := newRunningEngine(t, core.DefaultOptions())
	if got := e.CheckMonolithic(); got.Consistent || !got.Complete {
		t.Fatalf("monolithic check on the running-example violation: consistent=%v complete=%v", got.Consistent, got.Complete)
	}
	before := papernet.Build()
	same := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	if got := same.CheckMonolithic(); !got.Consistent || !got.Complete {
		t.Fatalf("monolithic check on an unchanged network: complete=%v violations=%+v", got.Complete, got.Violations)
	}
	// An equivalent-but-rewritten update (split prefix) must also pass.
	after := before.Clone()
	a1, _ := after.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse(
		"deny dst 6.0.0.0/9, deny dst 6.128.0.0/9, permit all"))
	eq := core.New(before, after, papernet.Scope(), core.DefaultOptions())
	if got := eq.CheckMonolithic(); !got.Consistent || !got.Complete {
		t.Fatalf("monolithic check on an equivalent rewrite: consistent=%v complete=%v", got.Consistent, got.Complete)
	}
	if got := eq.Check(); !got.Consistent {
		t.Fatal("per-FEC check flagged an equivalent rewrite")
	}
}

func TestFixWithoutExpansionAblation(t *testing.T) {
	// §4.2: without neighborhood enlargement, fix degenerates to
	// per-packet exclusion and cannot converge; the cap must kick in.
	opts := core.DefaultOptions()
	opts.NoExpansion = 50
	e := newRunningEngine(t, opts)
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighborhoods) < 50 {
		t.Fatalf("expected the cap to bind, got %d neighborhoods", len(res.Neighborhoods))
	}
	if res.Verified {
		t.Fatal("per-packet fixing cannot finish within the cap")
	}
	for _, nb := range res.Neighborhoods {
		if nb.Dst.Len != 32 {
			t.Fatalf("expansion disabled but neighborhood %v is not a singleton", nb)
		}
	}
}
