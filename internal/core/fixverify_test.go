package core

import (
	"fmt"
	"slices"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/topo"
)

// This file pins the fix verification's kept route (keptVerdict): the
// verification check keeps the fix loop's verdict on every FEC the plan
// cannot flip and decides the rest on Before→Fixed, and must come out as
// a fresh check of Before→Fixed does.

// fixVerification runs a fix's verification on fixed as FixContext runs
// it: on an engine derived from e that holds the fix loop's verdicts —
// e's generation, which the fix leaves in place — and its index.
func fixVerification(e *Engine, fixed *topo.Network) (*CheckResult, int) {
	ctx := e.checkContext()
	ver := e.derived(fixed, nil)
	ver.kept = &fixVerdicts{ctx: ctx, ix: e.compileFix(ctx)}
	return ver.Check(), ver.kept.kept
}

// freshCheck is a new engine's check of Before→fixed under e's options
// and controls.
func freshCheck(e *Engine, fixed *topo.Network) *CheckResult {
	f := New(e.Before, fixed, e.Scope, e.Opts)
	f.Controls = e.Controls
	return f.Check()
}

// violationText renders a check's counterexamples, their paths included.
func violationText(res *CheckResult) string {
	s := ""
	for _, v := range res.Violations {
		s += fmt.Sprintf("%v %v %v\n", v.Packet, v.Classes, v.Paths)
	}
	return s
}

// routeCounts tallies the verification's forensics by route and verdict.
func routeCounts(res *CheckResult) map[string]int {
	n := map[string]int{}
	for _, f := range res.Forensics {
		n[f.Route+"/"+f.Verdict]++
	}
	return n
}

// isolateFirstPrefix isolates the first edge's first prefix from the
// cores' uplinks to every edge's external interface.
func isolateFirstPrefix(w *netgen.WAN) Control {
	var from, to []*topo.Interface
	for _, cn := range w.CoreNames {
		from = append(from, w.Net.Devices[cn].Interfaces["up"])
	}
	for _, en := range w.EdgeNames {
		to = append(to, w.Net.Devices[en].Interfaces["ext"])
	}
	return Control{From: NewIfaceSet(from...), To: NewIfaceSet(to...), Mode: Isolate,
		Match: header.DstMatch(w.EdgePrefixes[w.EdgeNames[0]][0])}
}

// TestFuzzFixVerificationKeeps is the differential lane of the kept
// route: over netgen WANs, seeds and perturbations, with and without a
// control, in find-first and find-all mode, and with a one-binding allow
// that leaves neighborhoods unfixable, the fix's Verified must equal a
// fresh Before→Fixed check's verdict, and the verification's
// counterexamples must be the fresh check's. Across the corpus the route
// must keep FECs, decide others, and keep a violating verdict that makes
// a fix unverified.
func TestFuzzFixVerificationKeeps(t *testing.T) {
	type wan struct {
		size  netgen.Size
		seeds []int64
	}
	wans := []wan{{netgen.Small, []int64{1, 7, 42}}, {netgen.Medium, []int64{7, 42}}}
	if testing.Short() {
		wans = []wan{{netgen.Small, []int64{42}}, {netgen.Medium, []int64{42}}}
	}
	total := map[string]int{}
	unverified := 0
	for _, wn := range wans {
		for _, seed := range wn.seeds {
			w := netgen.Build(netgen.DefaultConfig(wn.size, seed))
			for _, pct := range []float64{1, 3, 5} {
				for _, mode := range []string{"plain", "control", "one-allow"} {
					for _, findAll := range []bool{false, true} {
						name := fmt.Sprintf("%v-%d/%.0f%%/%s/findAll=%v", wn.size, seed, pct, mode, findAll)
						opts := DefaultOptions()
						opts.FindAllViolations = findAll
						opts.Forensics = true
						e := WANFix(w, pct, opts)
						switch mode {
						case "control":
							e.Controls = []Control{isolateFirstPrefix(w)}
						case "one-allow":
							e.Allow = e.Allow[:1]
						}
						res, err := e.Fix()
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						fresh := freshCheck(e, res.Fixed)
						if want := fresh.Consistent && fresh.Complete; res.Verified != want {
							t.Fatalf("%s: fix verified=%v, fresh check of the fixed snapshot says %v", name, res.Verified, want)
						}
						ver, _ := fixVerification(e, res.Fixed)
						if ver.Consistent != fresh.Consistent || violationText(ver) != violationText(fresh) {
							t.Fatalf("%s: verification counterexamples\n%s differ from a fresh check's\n%s",
								name, violationText(ver), violationText(fresh))
						}
						for k, n := range routeCounts(ver) {
							total[k] += n
						}
						if !res.Verified && routeCounts(ver)["kept/violating"] > 0 {
							unverified++
						}
					}
				}
			}
		}
	}
	t.Logf("verification routes over the corpus: %v", total)
	if total["kept/consistent"] == 0 || total["pset/consistent"]+total["pset-split/consistent"] == 0 {
		t.Fatalf("the corpus must both keep and decide FECs: %v", total)
	}
	if unverified == 0 {
		t.Fatal("no case kept a violating verdict in an unverified fix")
	}
}

// TestFixVerificationNoDifferentialDecidesAll pins that the ablation
// keeps the paper's strawman: without the Theorem 4.1 preprocessing the
// verification re-checks Before→Fixed cold and keeps nothing.
func TestFixVerificationNoDifferentialDecidesAll(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 42))
	e := WANFix(w, 5, Options{OptimizeSynthesis: true})
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	ver, kept := fixVerification(e, res.Fixed)
	if kept != 0 || ver.Consistent != res.Verified {
		t.Fatalf("no-differential verification kept %d FECs (consistent=%v, fix verified=%v)", kept, ver.Consistent, res.Verified)
	}
}

// mediumFix is a verified fix of the medium WAN at 5% with every ACL
// binding and the first edge's uplink u0:in — bound in no snapshot —
// open to the plan, under forensics.
func mediumFix(t *testing.T) (*Engine, *FixResult, topo.ACLBinding) {
	t.Helper()
	w := netgen.Build(netgen.DefaultConfig(netgen.Medium, 42))
	opts := DefaultOptions()
	opts.Forensics = true
	e := WANFix(w, 5, opts)
	up := topo.ACLBinding{Iface: w.Net.Devices[w.EdgeNames[0]].Interfaces["u0"], Dir: topo.In}
	e.Allow = append(e.Allow, up)
	res, err := e.Fix()
	if err != nil || !res.Verified {
		t.Fatalf("medium fix: verified=%v err=%v", res != nil && res.Verified, err)
	}
	return e, res, up
}

// crossers lists the FECs some path of which crosses b.
func crossers(e *Engine, b topo.ACLBinding) []int {
	var out []int
	for i, fec := range e.FECs() {
		if slices.ContainsFunc(fec.Paths, func(p topo.Path) bool {
			return slices.ContainsFunc(p.Hops, func(h topo.Hop) bool {
				return b.Dir == topo.In && h.In == b.Iface || b.Dir == topo.Out && h.Out == b.Iface
			})
		}) {
			out = append(out, i)
		}
	}
	return out
}

// prependAt returns a clone of n with rule prepended to the ACL at b
// (permit-all where none is bound).
func prependAt(t *testing.T, n *topo.Network, b topo.ACLBinding, rule acl.Rule) *topo.Network {
	t.Helper()
	out := n.Clone()
	fb, err := moveBinding(b, out)
	if err != nil {
		t.Fatal(err)
	}
	a := acl.PermitAll()
	if cur := fb.Iface.ACL(fb.Dir); cur != nil {
		a = cur.Clone()
	}
	a.Rules = append([]acl.Rule{rule}, a.Rules...)
	fb.Iface.SetACL(fb.Dir, a)
	return out
}

// TestFixVerificationCatchesAlteredBinding is the mutation guard of the
// kept route. The fixed snapshot is altered at a binding the plan
// touched, in a FEC no neighborhood of the plan meets: a deny of the
// FEC's traffic lands on top of the simplified ACL. A shortcut that
// trusted simplify and kept every FEC without a plan rule in its region
// would keep that FEC consistent; the verification must decide it and
// report the fixed snapshot inconsistent, as a fresh check does.
func TestFixVerificationCatchesAlteredBinding(t *testing.T) {
	e, res, _ := mediumFix(t)
	touched, err := netgen.Bindings(e.Before, []string{res.Actions[0].BindingID})
	if err != nil {
		t.Fatal(err)
	}
	b := touched[0]
	planned := func(fec topo.FEC) bool {
		return slices.ContainsFunc(res.Neighborhoods, func(nb header.Match) bool {
			return slices.ContainsFunc(fec.Classes, func(c header.Prefix) bool { return header.DstMatch(c).Overlaps(nb) })
		})
	}
	for _, i := range crossers(e, b) {
		fec := e.FECs()[i]
		if planned(fec) {
			continue
		}
		fixed := prependAt(t, res.Fixed, b, acl.Rule{Action: acl.Deny, Match: header.DstMatch(fec.Classes[0])})
		if freshCheck(e, fixed).Consistent {
			continue // Before denies that traffic through b too: nothing flips
		}
		ver, _ := fixVerification(e, fixed)
		if ver.Consistent {
			t.Fatalf("a deny of FEC %d's traffic added at %s, outside every neighborhood, was not caught", i, b.ID())
		}
		for _, f := range ver.Forensics {
			if f.FEC == i && f.Route == "kept" {
				t.Fatalf("FEC %d, altered at %s, was kept", i, b.ID())
			}
		}
		return
	}
	t.Fatalf("no FEC through %s outside the plan's neighborhoods has traffic a deny there flips", b.ID())
}

// TestFixVerificationDecidesFirstBinding pins that a binding bound in the
// fixed snapshot but in neither Before nor After is decided, not kept:
// the kept test reads a binding's two ACLs, and there is no After ACL to
// read. Bound with an ACL that changes no decision, every FEC through it
// is decided and consistent; with a deny of one such FEC's traffic, the
// verification is inconsistent, as a fresh check is.
func TestFixVerificationDecidesFirstBinding(t *testing.T) {
	e, res, up := mediumFix(t)
	through := crossers(e, up)
	if len(through) == 0 {
		t.Fatalf("no FEC crosses %s", up.ID())
	}
	fixed := res.Fixed
	if fb, _ := moveBinding(up, fixed); fb.Iface.ACL(fb.Dir) == nil {
		// The plan left it unbound: bind a permit-all ACL for the first time.
		fixed = fixed.Clone()
		fb, _ = moveBinding(up, fixed)
		fb.Iface.SetACL(fb.Dir, acl.PermitAll())
	}
	ver, _ := fixVerification(e, fixed)
	if !ver.Consistent || !freshCheck(e, fixed).Consistent {
		t.Fatal("an ACL that changes no decision made the fixed snapshot inconsistent")
	}
	for _, f := range ver.Forensics {
		if slices.Contains(through, f.FEC) && f.Route == "kept" {
			t.Fatalf("FEC %d crosses %s, bound for the first time, and was kept", f.FEC, up.ID())
		}
	}

	for _, i := range through {
		denied := prependAt(t, fixed, up, acl.Rule{Action: acl.Deny, Match: header.DstMatch(e.FECs()[i].Classes[0])})
		if freshCheck(e, denied).Consistent {
			continue
		}
		if ver, _ := fixVerification(e, denied); ver.Consistent {
			t.Fatalf("a deny of FEC %d's traffic at %s, bound for the first time, was not caught", i, up.ID())
		}
		return
	}
	t.Fatalf("no FEC through %s has traffic a deny there flips", up.ID())
}
