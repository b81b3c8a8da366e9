package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

func TestEngineLazyCaches(t *testing.T) {
	before := papernet.Build()
	e := core.New(before, nil, papernet.Scope(), core.DefaultOptions())
	if e.After != e.Before {
		t.Fatal("nil after should alias before")
	}
	p1 := e.Paths()
	p2 := e.Paths()
	if len(p1) != len(p2) || len(p1) == 0 {
		t.Fatal("Paths should be stable")
	}
	c1 := e.Classes()
	if len(c1) != 7 {
		t.Fatalf("classes = %d", len(c1))
	}
	f := e.FECs()
	if len(f) != 5 {
		t.Fatalf("FECs = %d", len(f))
	}
}

// TestEngineIndexUsesControlRefinedClasses pins the engine's one walk to
// its own classes: control prefixes finer and coarser than the FIB atoms
// (and one no FIB routes) refine the FECs but leave the paths alone.
func TestEngineIndexUsesControlRefinedClasses(t *testing.T) {
	before := papernet.Build()
	e := core.New(before, nil, papernet.Scope(), core.DefaultOptions())
	for _, dst := range []string{"1.2.0.0/16", "0.0.0.0/5", "99.0.0.0/8"} {
		e.Controls = append(e.Controls, core.Control{
			Mode: core.Maintain, Match: header.DstMatch(header.MustParsePrefix(dst)),
		})
	}
	plain := before.AllPaths(papernet.Scope())
	if len(e.Paths()) != len(plain) {
		t.Fatalf("paths = %d, want the %d of the unrefined walk", len(e.Paths()), len(plain))
	}
	for i, p := range e.Paths() {
		if p.Key() != plain[i].Key() {
			t.Fatalf("path %d = %v, want %v", i, p, plain[i])
		}
	}
	if len(e.Classes()) <= 7 {
		t.Fatalf("classes = %v, want the 7 /8s refined by the control prefixes", e.Classes())
	}
	if want := topo.ComputeFECs(e.Paths(), e.Classes()); !reflect.DeepEqual(e.FECs(), want) {
		t.Fatalf("FECs = %+v, want %+v", e.FECs(), want)
	}
	if len(e.FECs()) != 5 {
		t.Fatalf("FECs = %d, want 5: refined classes forward like the atoms they split", len(e.FECs()))
	}
}

func TestTimingsString(t *testing.T) {
	e := newRunningEngine(t, core.DefaultOptions())
	res := e.Check()
	s := res.Timings.String()
	if !strings.Contains(s, "=") {
		t.Fatalf("timings string %q", s)
	}
}

func TestControlModeString(t *testing.T) {
	if core.Isolate.String() != "isolate" || core.Open.String() != "open" ||
		core.Maintain.String() != "maintain" {
		t.Error("ControlMode.String wrong")
	}
}

func TestFixActionString(t *testing.T) {
	e := newRunningEngine(t, core.DefaultOptions())
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Actions {
		s := a.String()
		if !strings.Contains(s, "add to") || !strings.Contains(s, a.BindingID) {
			t.Errorf("FixAction.String = %q", s)
		}
	}
}

func TestGenerateRequiresTargets(t *testing.T) {
	before := papernet.Build()
	e := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	if _, err := e.Generate(nil); err == nil {
		t.Fatal("generate without allow targets must error")
	}
}

func TestCheckFindAllVsFirst(t *testing.T) {
	// FindAllViolations reports one violation per broken FEC; the default
	// stops at the first.
	first := newRunningEngine(t, core.DefaultOptions())
	r1 := first.Check()
	if len(r1.Violations) != 1 {
		t.Fatalf("default mode should report exactly one violation, got %d", len(r1.Violations))
	}
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	all := newRunningEngine(t, opts)
	r2 := all.Check()
	if len(r2.Violations) != 2 {
		t.Fatalf("find-all should report both broken FECs, got %d", len(r2.Violations))
	}
}

func TestCheckParallelAgreesWithSequential(t *testing.T) {
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	e := newRunningEngine(t, opts)
	seq := e.Check()
	for _, workers := range []int{1, 2, 4, 8} {
		e2 := newRunningEngine(t, opts)
		par := checkWorkers(e2, workers)
		if par.Consistent != seq.Consistent {
			t.Fatalf("workers=%d: verdict %v != %v", workers, par.Consistent, seq.Consistent)
		}
		if len(par.Violations) != len(seq.Violations) {
			t.Fatalf("workers=%d: %d violations != %d", workers, len(par.Violations), len(seq.Violations))
		}
		for i := range par.Violations {
			if par.Violations[i].Classes[0] != seq.Violations[i].Classes[0] {
				t.Fatalf("workers=%d: violation order differs", workers)
			}
		}
	}
	// Consistent case.
	before := papernet.Build()
	same := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	if !checkWorkers(same, 4).Consistent {
		t.Fatal("parallel check flagged an unchanged network")
	}
}

func TestExplainViolation(t *testing.T) {
	e := newRunningEngine(t, core.DefaultOptions())
	res := e.Check()
	if res.Consistent {
		t.Fatal("expected a violation")
	}
	exps := e.Explain(res.Violations[0])
	if len(exps) == 0 {
		t.Fatal("no explanations")
	}
	for _, x := range exps {
		if x.Before.Permitted == x.After.Permitted {
			t.Errorf("explanation should show a flipped verdict: %+v", x)
		}
		s := x.String()
		if !strings.Contains(s, "before:") || !strings.Contains(s, "after:") {
			t.Errorf("rendering missing sections:\n%s", s)
		}
		// The after-trace must name the new deny rule on A:1.
		found := false
		for _, h := range x.After.Hops {
			if h.BindingID == "A:1:in" && strings.HasPrefix(h.Rule, "deny dst") {
				found = true
			}
		}
		if !found && !x.After.Permitted {
			t.Errorf("after-trace should blame A:1's new deny:\n%s", x)
		}
	}
}

// TestFirstViolationResolvesNothingPastTheHit pins the laziness of the
// check loop: resolve is interleaved with decide, so a cold
// first-violation check sends to a complete backend exactly the
// solver-bound FECs at or below the hit — no formula is built, and no
// set algebra run, for anything past it — whichever backend decides and
// whatever the worker count, which check ignores.
func TestFirstViolationResolvesNothingPastTheHit(t *testing.T) {
	for _, backend := range []core.Backend{core.BackendAuto, core.BackendSAT} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("backend=%v,workers=%d", backend, workers), func(t *testing.T) {
				all := core.DefaultOptions()
				all.Backend = backend
				all.FindAllViolations = true
				all.Forensics = true
				full := newRunningEngine(t, all).Check()

				first := core.DefaultOptions()
				first.Backend = backend
				first.Workers = workers
				first.Forensics = true
				res := newRunningEngine(t, first).Check()
				if res.Consistent || len(res.Forensics) == 0 {
					t.Fatalf("running example must be inconsistent with forensics: %+v", res)
				}
				hit := res.Forensics[len(res.Forensics)-1].FEC // the scan examined nothing past it
				var want, bound int64
				for _, f := range full.Forensics {
					switch f.Route {
					case "pset", "sat", "sat-bailout":
						bound++
						if f.FEC <= hit {
							want++
						}
					}
				}
				if want == bound {
					t.Fatalf("first violating FEC %d is the last solver-bound one: the case cannot show laziness", hit)
				}
				if got := full.Stats.SatSelected + full.Stats.PsetDecided; got != bound {
					t.Fatalf("find-all run resolved %d solver-bound FECs, forensics list %d", got, bound)
				}
				if got := res.Stats.SatSelected + res.Stats.PsetDecided; got != want {
					t.Fatalf("first-violation run resolved %d solver-bound FECs, want %d (at or below FEC %d) of %d",
						got, want, hit, bound)
				}
			})
		}
	}
}
