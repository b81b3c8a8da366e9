package core_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

func TestControlOpenCheck(t *testing.T) {
	// Intent: open traffic 6 from A:1 to D:3. An update that removes the
	// deny satisfies it; leaving the network unchanged violates it.
	before := papernet.Build()
	opened := before.Clone()
	a1, _ := opened.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.PermitAll())

	ctrl := core.Control{
		From:  core.IfacesNamed(before, "A:1"),
		To:    core.IfacesNamed(before, "D:3"),
		Mode:  core.Open,
		Match: header.DstMatch(pfx("6.0.0.0/8")),
	}

	good := core.New(before, opened, papernet.Scope(), core.DefaultOptions())
	good.Controls = []core.Control{ctrl}
	if res := good.Check(); !res.Consistent {
		t.Fatalf("removing the deny satisfies the open intent: %+v", res.Violations)
	}

	bad := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	bad.Controls = []core.Control{ctrl}
	res := bad.Check()
	if res.Consistent {
		t.Fatal("an unchanged network cannot satisfy the open intent")
	}
	// The counterexample must be traffic to 6/8.
	if len(res.Violations) == 0 || !pfx("6.0.0.0/8").Matches(res.Violations[0].Packet.DstIP) {
		t.Fatalf("counterexample should be in 6.0.0.0/8: %+v", res.Violations)
	}
}

func TestControlOpenSideEffectCaught(t *testing.T) {
	// An update that opens 6/8 but also breaks traffic 1 must still be
	// flagged (open intents protect nothing else).
	before := papernet.Build()
	after := before.Clone()
	a1, _ := after.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse("deny dst 1.0.0.0/8, permit all"))
	e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
	e.Controls = []core.Control{{
		From:  core.IfacesNamed(before, "A:1"),
		To:    core.IfacesNamed(before, "D:3"),
		Mode:  core.Open,
		Match: header.DstMatch(pfx("6.0.0.0/8")),
	}}
	res := e.Check()
	if res.Consistent {
		t.Fatal("the side effect on traffic 1 must be caught")
	}
}

func TestControlFixRestoresDesiredReachability(t *testing.T) {
	// Intent: isolate 5/8 between A:1 and D:3. The operator's update is
	// a no-op; fix must synthesize the isolation on allowed interfaces
	// and verify.
	before := papernet.Build()
	e := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	a1, _ := before.LookupInterface("A:1")
	a2, _ := before.LookupInterface("A:2")
	e.Allow = []topo.ACLBinding{
		{Iface: a1, Dir: topo.In},
		{Iface: a2, Dir: topo.Out},
	}
	e.Controls = []core.Control{{
		From:  core.IfacesNamed(before, "A:1"),
		To:    core.IfacesNamed(before, "D:3"),
		Mode:  core.Isolate,
		Match: header.DstMatch(pfx("5.0.0.0/8")),
	}}
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("fix must achieve the isolation intent; actions: %v", res.Actions)
	}
	if len(res.Actions) == 0 {
		t.Fatal("isolation requires at least one new rule")
	}
	// Traffic 5's forwarding path must now deny it.
	for _, p := range res.Fixed.AllPaths(papernet.Scope()) {
		if p.Dst().ID() == "D:3" && p.ForwardsClass(pfx("5.0.0.0/8")) {
			if pathPermits(res.Fixed, p, header.Packet{DstIP: 5 << 24}) {
				t.Errorf("traffic 5 still reachable via %v", p)
			}
		}
	}
}

func TestEngineResultsSurviveJSONRoundTrip(t *testing.T) {
	// Serialize a WAN and its perturbed snapshot, reload both, and
	// confirm the engine reaches the same verdict — the CLI's actual
	// data path.
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 11))
	after := w.Perturb(3, 3)

	reload := func(n *topo.Network) *topo.Network {
		data, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		out := topo.NewNetwork()
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	e1 := core.New(w.Net, after, w.Scope, core.DefaultOptions())
	e2 := core.New(reload(w.Net), reload(after), w.Scope, core.DefaultOptions())
	r1, r2 := e1.Check(), e2.Check()
	if r1.Consistent != r2.Consistent {
		t.Fatalf("verdict changed across JSON round trip: %v vs %v", r1.Consistent, r2.Consistent)
	}
	if r1.FECs != r2.FECs {
		t.Fatalf("FEC count changed across JSON round trip: %d vs %d", r1.FECs, r2.FECs)
	}
}

func TestMaintainShieldsFromIsolate(t *testing.T) {
	// §6's priority example on the (A:1 -> D:3) pair, which carries
	// traffic 1-6: "maintain dst 2/8" listed before "isolate dst all"
	// protects traffic 2 while everything else to D:3 must be blocked.
	// The update "permit 2/8, deny all" at A:1 achieves exactly that
	// (traffic 7 to C:3 keeps its original denial — at A:1 now instead
	// of C:1, which leaves every path decision unchanged).
	before := papernet.Build()
	after := before.Clone()
	a1, _ := after.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse("permit dst 2.0.0.0/8, deny all"))

	maintain2 := core.Control{
		From: core.IfacesNamed(before, "A:1"), To: core.IfacesNamed(before, "D:3"),
		Mode: core.Maintain, Match: header.DstMatch(pfx("2.0.0.0/8")),
	}
	isolateAll := core.Control{
		From: core.IfacesNamed(before, "A:1"), To: core.IfacesNamed(before, "D:3"),
		Mode: core.Isolate, Match: header.MatchAll,
	}

	e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
	e.Controls = []core.Control{maintain2, isolateAll}
	if res := e.Check(); !res.Consistent {
		t.Fatalf("update satisfies maintain-then-isolate: %+v", res.Violations)
	}

	// Swapped priority: isolate-all now covers 2/8 too, and the update
	// (which keeps 2/8 reachable on p0) must be flagged.
	e2 := core.New(before, after, papernet.Scope(), core.DefaultOptions())
	e2.Controls = []core.Control{isolateAll, maintain2}
	res := e2.Check()
	if res.Consistent {
		t.Fatal("isolate-all listed first must win over maintain")
	}
	if len(res.Violations) == 0 || !pfx("2.0.0.0/8").Matches(res.Violations[0].Packet.DstIP) {
		t.Fatalf("counterexample should be traffic 2: %+v", res.Violations)
	}
}

// A control whose match is `all` joins the differential set like any
// other (§6): with no ACL change at all, "isolate all from A:1 to D:3"
// is violated by every reachable class on that pair, and check, fix and
// a warm re-check must all see it whatever the optimization switches.
func isolateAllA1D3(before *topo.Network) core.Control {
	return core.Control{
		From: core.IfacesNamed(before, "A:1"), To: core.IfacesNamed(before, "D:3"),
		Mode: core.Isolate, Match: header.MatchAll,
	}
}

func TestControlIsolateAllCheck(t *testing.T) {
	noDiff := core.DefaultOptions()
	noDiff.UseDifferential = false
	var want []string
	for _, c := range []struct {
		name string
		opts core.Options
	}{
		{"no-optimizations", core.Options{}},
		{"no-differential", noDiff},
		{"default", core.DefaultOptions()},
	} {
		c.opts.FindAllViolations = true
		c.opts.Forensics = true
		before := papernet.Build()
		e := core.New(before, before.Clone(), papernet.Scope(), c.opts)
		e.Controls = []core.Control{isolateAllA1D3(before)}
		res := e.Check()
		if res.Consistent || len(res.Violations) == 0 {
			t.Fatalf("%s: an unchanged network cannot satisfy isolate-all", c.name)
		}
		var got []string
		for _, v := range res.Violations {
			got = append(got, v.Packet.String())
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Errorf("%s: counterexamples %v, want %v", c.name, got, want)
		}
		// Each counterexample is the packet the set algebra's verdict
		// named: no solver ran, for detection or for a witness.
		if st := res.SolverStats; st.Decisions != 0 || st.Propagations != 0 {
			t.Errorf("%s: solver ran under the control: %+v", c.name, st)
		}
		// The route is on record: every violating FEC was decided by a
		// complete procedure, none skipped by the differential fast path.
		for _, f := range res.Forensics {
			if f.Verdict == "violating" && f.Route != "pset" {
				t.Errorf("%s: FEC %d violating by route %q, want pset", c.name, f.FEC, f.Route)
			}
		}
	}
}

func TestControlIsolateAllFix(t *testing.T) {
	before := papernet.Build()
	e := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	a1, _ := before.LookupInterface("A:1")
	e.Allow = []topo.ACLBinding{{Iface: a1, Dir: topo.In}}
	e.Controls = []core.Control{isolateAllA1D3(before)}
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Actions) == 0 || !res.Verified {
		t.Fatalf("fix must isolate the pair and verify; verified=%v actions=%v", res.Verified, res.Actions)
	}
}

func TestControlIsolateAllWarmRecheck(t *testing.T) {
	// The first generation satisfies the intent (deny all at A:1, which
	// also keeps traffic 7's original denial); the edit back to the
	// original network must be re-decided, not replayed or skipped.
	before := papernet.Build()
	isolated := before.Clone()
	a1, _ := isolated.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse("deny all"))
	opts := core.DefaultOptions()
	opts.Verdicts = core.NewVerdictCache()
	e := core.New(before, isolated, papernet.Scope(), opts)
	e.Controls = []core.Control{isolateAllA1D3(before)}
	if res := e.Check(); !res.Consistent {
		t.Fatalf("deny-all at A:1 satisfies isolate-all: %+v", res.Violations)
	}
	e.UpdateAfter(before.Clone())
	if res := e.Check(); res.Consistent {
		t.Fatal("warm re-check: the unchanged network cannot satisfy isolate-all")
	}
}

// TestControlsMissingClassesMatchSAT runs controls whose destinations
// hit some FECs' classes and miss others: on A:1 → D:3, open 6/8 (half
// of FEC {5,6}) and isolate 4/8 (all of FEC {4}), while FECs {1} and
// {2,3} carry the controls on their paths but lie outside both matches.
// The set algebra skips a control whose match misses a FEC's flip
// region; every FEC's verdict must still be the per-path SAT
// reference's.
func TestControlsMissingClassesMatchSAT(t *testing.T) {
	before := papernet.Build() // every Build numbers its interfaces alike
	controls := []core.Control{
		{From: core.IfacesNamed(before, "A:1"), To: core.IfacesNamed(before, "D:3"), Mode: core.Open, Match: header.DstMatch(pfx("6.0.0.0/8"))},
		{From: core.IfacesNamed(before, "A:1"), To: core.IfacesNamed(before, "D:3"), Mode: core.Isolate, Match: header.DstMatch(pfx("4.0.0.0/8"))},
	}
	missesControls := func(classes []header.Prefix) bool {
		for _, c := range classes {
			for _, ctrl := range controls {
				if ctrl.Match.Dst.Overlaps(c) {
					return false
				}
			}
		}
		return true
	}
	var consistent, uncontrolled int
	for _, a1 := range []string{
		"deny dst 6.0.0.0/8, permit all",                                         // unchanged: neither intent met
		"deny dst 3.0.0.0/8, permit all",                                         // opens 6, breaks 3, leaves 4
		"deny dst 4.0.0.0/8, permit all",                                         // meets both intents
		"deny dst 4.0.0.0/8, deny dst 1.0.0.0/8, permit all",                     // meets both, breaks 1
		"deny dst 5.0.0.0/8, deny dst 6.0.0.0/8, deny dst 4.0.0.0/8, permit all", // isolates 4, breaks 5, keeps 6 shut
	} {
		engine := func() *core.Engine {
			before := papernet.Build()
			after := before.Clone()
			ifc, _ := after.LookupInterface("A:1")
			ifc.SetACL(topo.In, acl.MustParse(a1))
			opts := core.DefaultOptions()
			opts.FindAllViolations = true
			e := core.New(before, after, papernet.Scope(), opts)
			e.Controls = controls
			return e
		}
		got, want := engine().Check(), core.RefViolatingClasses(engine())
		if got.Consistent != (len(want) == 0) || !got.Complete {
			t.Fatalf("A:1 %q: consistent=%v complete=%v, the SAT reference has %d violating FECs", a1, got.Consistent, got.Complete, len(want))
		}
		var gotClasses []string
		for _, v := range got.Violations {
			gotClasses = append(gotClasses, fmt.Sprint(v.Classes))
		}
		if g, w := fmt.Sprint(gotClasses), fmt.Sprint(want); g != w {
			t.Fatalf("A:1 %q: violating FECs %s, the SAT reference %s", a1, g, w)
		}
		if got.Consistent {
			consistent++
		}
		for _, v := range got.Violations {
			if missesControls(v.Classes) {
				uncontrolled++
			}
		}
	}
	if consistent == 0 || uncontrolled == 0 {
		t.Fatalf("population too weak: %d consistent updates, %d violations outside every control's match", consistent, uncontrolled)
	}
}
