package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"jinjing/internal/core"
	"jinjing/internal/obs"
	"jinjing/internal/papernet"
	"jinjing/internal/sat"
	"jinjing/internal/topo"
)

// obsHarness wires a full observer (JSONL trace + metrics + unthrottled
// progress) into the given options and returns the pieces for assertions.
func obsHarness(opts *core.Options) (trace, progress *bytes.Buffer, m *obs.Metrics) {
	trace, progress = &bytes.Buffer{}, &bytes.Buffer{}
	m = obs.NewMetrics()
	p := obs.NewProgress(progress)
	p.SetMinInterval(0)
	opts.Obs = obs.NewObserver(obs.NewTracer(obs.NewJSONLSink(trace)), m, p)
	return trace, progress, m
}

// decodeSpans parses a JSONL trace into records keyed by span name.
func decodeSpans(t *testing.T, trace *bytes.Buffer) map[string][]obs.SpanRecord {
	t.Helper()
	out := map[string][]obs.SpanRecord{}
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var r obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if r.Type == "span" {
			out[r.Name] = append(out[r.Name], r)
		}
	}
	return out
}

// TestCheckObservability runs the sequential check under a full observer
// and cross-checks spans, metrics, progress, and the result's solver
// stats against each other.
func TestCheckObservability(t *testing.T) {
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	// Force the solver: this test cross-checks solver-stat plumbing,
	// which the pset backend (the default pick here) never feeds.
	forceSAT(t)
	trace, progress, m := obsHarness(&opts)
	e := newRunningEngine(t, opts)
	res := e.Check()

	if res.Consistent {
		t.Fatal("running example must be inconsistent")
	}
	if res.SolverStats.Decisions == 0 && res.SolverStats.Propagations == 0 {
		t.Fatalf("solver stats empty: %+v", res.SolverStats)
	}

	spans := decodeSpans(t, trace)
	root := spans["check"]
	if len(root) != 1 || root[0].Attrs["consistent"] != false {
		t.Fatalf("check root span wrong: %+v", root)
	}
	for _, phase := range []string{"preprocess", "fec", "solve"} {
		ps := spans[phase]
		if len(ps) != 1 {
			t.Fatalf("phase %q: want 1 span, got %d", phase, len(ps))
		}
		if ps[0].Parent != root[0].ID {
			t.Fatalf("phase %q not parented to check: %+v", phase, ps[0])
		}
	}

	snap := m.Snapshot()
	assertCheckShapeSpans(t, spans, snap, "sat", res.SolvedFECs)
	if got := snap.Counters["check.fecs"]; got != int64(res.FECs) {
		t.Fatalf("check.fecs counter %d != result FECs %d", got, res.FECs)
	}
	if got := snap.Counters["sat.conflicts"]; got != res.SolverStats.Conflicts {
		t.Fatalf("sat.conflicts counter %d != aggregated %d", got, res.SolverStats.Conflicts)
	}
	if got := snap.Histograms["check.fec_solve_ns"].Count; got != int64(res.SolvedFECs) {
		t.Fatalf("solve histogram count %d != solved FECs %d", got, res.SolvedFECs)
	}
	if snap.Gauges["smt.nodes"] <= 0 {
		t.Fatal("smt.nodes gauge not set")
	}
	if v, ok := snap.Gauges["topo.paths.truncated"]; !ok || v != 0 {
		t.Fatalf("topo.paths.truncated gauge = %d (set: %v), want 0 reported", v, ok)
	}
	if !strings.Contains(progress.String(), "check: FECs") {
		t.Fatalf("no progress lines: %q", progress.String())
	}
}

// assertCheckShapeSpans checks what check reports of its path shapes: the
// fec.solve spans of the given backend (one per decided FEC) carry the
// FEC's path count and its distinct-shape count, the check.path_shapes
// gauge is their sum, and the root has exactly the check's four phase
// spans under it — compiling shapes added none. Under forceSAT each FEC
// also has a bailed-out pset span, which must say so.
func assertCheckShapeSpans(t *testing.T, spans map[string][]obs.SpanRecord, snap obs.Snapshot, backend string, solved int) {
	t.Helper()
	rootID := spans["check"][0].ID
	var phases []string
	for name, recs := range spans {
		for _, s := range recs {
			if s.Parent == rootID {
				phases = append(phases, name)
			}
		}
	}
	sort.Strings(phases)
	if want := []string{"fec", "preprocess", "solve", "witness"}; !slices.Equal(phases, want) {
		t.Fatalf("check phase spans %v, want %v", phases, want)
	}
	sum, decided := int64(0), 0
	for _, s := range spans["fec.solve"] {
		if s.Attrs["backend"] != backend {
			if s.Attrs["backend"] != "pset" || s.Attrs["bailout"] != true {
				t.Fatalf("fec.solve span attrs %v: want backend=%s or a pset bail-out", s.Attrs, backend)
			}
			continue
		}
		paths, _ := s.Attrs["paths"].(float64)
		shapes, _ := s.Attrs["shapes"].(float64)
		if shapes < 1 || shapes > paths {
			t.Fatalf("fec.solve span attrs %v: want 1 <= shapes <= paths", s.Attrs)
		}
		sum += int64(shapes)
		decided++
	}
	if decided != solved {
		t.Fatalf("%d %s fec.solve spans, %d solved FECs", decided, backend, solved)
	}
	if got := snap.Gauges["check.path_shapes"]; got != sum {
		t.Fatalf("check.path_shapes gauge %d, fec.solve spans sum to %d", got, sum)
	}
}

// TestCheckPsetObservability is the default route's half of the above:
// the set algebra decides every FEC of the running example, and its
// fec.solve spans and counters say so.
func TestCheckPsetObservability(t *testing.T) {
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	trace, _, m := obsHarness(&opts)
	res := newRunningEngine(t, opts).Check()
	snap := m.Snapshot()
	spans := decodeSpans(t, trace)
	assertCheckShapeSpans(t, spans, snap, "pset", res.SolvedFECs)
	if got := snap.Counters["backend.pset.selected"]; got != int64(res.SolvedFECs) || snap.Counters["backend.bailout"] != 0 {
		t.Fatalf("backend.pset.selected=%d backend.bailout=%d, want %d and 0", got, snap.Counters["backend.bailout"], res.SolvedFECs)
	}
	// Each decision names what its cost followed: the flip region's cubes
	// and the rules its indexed folds visited, which the counter totals.
	folded := int64(0)
	for _, s := range spans["fec.solve"] {
		cubes, cok := s.Attrs["region_cubes"].(float64)
		rules, rok := s.Attrs["rules_folded"].(float64)
		if !cok || !rok || cubes < 0 || rules < 0 {
			t.Fatalf("fec.solve span attrs %v: want region_cubes and rules_folded", s.Attrs)
		}
		folded += int64(rules)
	}
	if got := snap.Counters["check.pset.rules_folded"]; got != folded || folded == 0 {
		t.Fatalf("check.pset.rules_folded=%d, fec.solve spans sum to %d (want equal and non-zero)", got, folded)
	}
	// No FEC took the SAT route, so the check built no formula.
	if nodes, misses := snap.Gauges["smt.nodes"], snap.Counters["encoder.cache.misses"]; nodes != 0 || misses != 0 {
		t.Fatalf("smt.nodes=%d encoder.cache.misses=%d, want 0 and 0", nodes, misses)
	}
}

// TestSATBuilderScopedToGeneration checks After A, then B, then A again
// on one engine under forceSAT. Each After is its own generation with its
// own formula builder, so the smt.nodes gauge measures that generation
// and does not accumulate across edits: without a verdict cache the
// third check rebuilds exactly the first check's formulas; with one, it
// replays every verdict and builds none.
func TestSATBuilderScopedToGeneration(t *testing.T) {
	before := papernet.Build()
	afterA := runningExampleUpdate(before)
	afterB := editAfter(t, afterA, "C:1", papernet.Traffic(6))
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			forceSAT(t)
			opts := core.DefaultOptions()
			opts.FindAllViolations = true
			if cached {
				opts.Verdicts = core.NewVerdictCache()
			}
			_, _, m := obsHarness(&opts)
			e := core.New(before, afterA, papernet.Scope(), opts)
			var nodes []int64
			for _, after := range []*topo.Network{afterA, afterB, afterA} {
				e.UpdateAfter(after)
				if e.Check().Consistent {
					t.Fatal("every After must be inconsistent")
				}
				nodes = append(nodes, m.Snapshot().Gauges["smt.nodes"])
			}
			want := nodes[0]
			if cached {
				want = 0
			}
			if nodes[0] == 0 || nodes[2] != want {
				t.Fatalf("smt.nodes per check %v: want a non-zero first and a third of %d", nodes, want)
			}
		})
	}
}

// TestCheckParallelObservability checks what check reports under
// Workers=4, which it ignores: the solver stats — in the result aggregate
// and the metrics registry alike — equal a one-worker run's, and the
// root span names no worker count.
func TestCheckParallelObservability(t *testing.T) {
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	// Force the solver: the test compares solver stats, which the pset
	// backend never feeds.
	forceSAT(t)
	want := newRunningEngine(t, opts).Check().SolverStats
	opts.Workers = 4
	trace, _, m := obsHarness(&opts)
	e := newRunningEngine(t, opts)
	res := e.Check()

	if res.Consistent {
		t.Fatal("running example must be inconsistent")
	}
	if res.SolverStats != want || want.Propagations == 0 {
		t.Fatalf("Workers=4 solver stats %+v, one worker %+v", res.SolverStats, want)
	}
	snap := m.Snapshot()
	if snap.Counters["sat.propagations"] != res.SolverStats.Propagations {
		t.Fatalf("sat.propagations %d != aggregate %d",
			snap.Counters["sat.propagations"], res.SolverStats.Propagations)
	}
	spans := decodeSpans(t, trace)
	root := spans["check"]
	if len(root) != 1 || root[0].Attrs["mode"] != nil || root[0].Attrs["workers"] != nil {
		t.Fatalf("check root span wrong: %+v", root)
	}
	// Resolution runs under solve: no separate encode phase, and decided
	// counts the jobs that reached a verdict.
	if len(spans["encode"]) != 0 {
		t.Fatalf("check must not emit an encode phase: %v", spans["encode"])
	}
	if sv := spans["solve"]; len(sv) != 1 || sv[0].Attrs["decided"] != float64(res.SolvedFECs) {
		t.Fatalf("solve span wrong (want decided=%d): %+v", res.SolvedFECs, sv)
	}
	if got := snap.Histograms["check.fec_solve_ns"].Count; got != int64(res.SolvedFECs) {
		t.Fatalf("solve histogram count %d != solved FECs %d", got, res.SolvedFECs)
	}
}

// TestFixObservability exercises the fix pipeline's spans and counters.
func TestFixObservability(t *testing.T) {
	opts := core.DefaultOptions()
	trace, _, m := obsHarness(&opts)
	seeks := countFixSeeks(t)
	e := newRunningEngine(t, opts)
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("fix must verify on the running example")
	}
	if n := seeks(); n != 0 {
		t.Fatalf("fix made %d solver seeks, want 0", n)
	}
	snap := m.Snapshot()
	if len(res.Neighborhoods) == 0 {
		t.Fatal("the running example needs fixing")
	}
	if snap.Counters["fix.neighborhoods"] != int64(len(res.Neighborhoods)) {
		t.Fatalf("fix.neighborhoods %d != %d", snap.Counters["fix.neighborhoods"], len(res.Neighborhoods))
	}
	spans := decodeSpans(t, trace)
	if len(spans["fix"]) != 1 {
		t.Fatalf("want one fix root span, got %+v", spans["fix"])
	}
	fixID := spans["fix"][0].ID
	seen := false
	for _, s := range spans["verify"] {
		if s.Parent == fixID {
			seen = true
		}
	}
	if !seen {
		t.Fatal("fix has no verify child span")
	}

	// Exactly the four phase spans, each once, directly under the root.
	var phases []string
	for name, recs := range spans {
		for _, s := range recs {
			if s.Parent == fixID {
				phases = append(phases, name)
			}
		}
	}
	sort.Strings(phases)
	if want := []string{"preprocess", "simplify", "solve", "verify"}; !slices.Equal(phases, want) {
		t.Fatalf("fix phase spans %v, want %v", phases, want)
	}
	child := func(name string) obs.SpanRecord {
		for _, s := range spans[name] {
			if s.Parent == fixID {
				return s
			}
		}
		t.Fatalf("no %s span under fix", name)
		return obs.SpanRecord{}
	}
	// The per-call index: shapes and distinct ACLs on the solve span and
	// as a gauge; the validity queries expansion asked as a counter.
	solve := child("solve")
	shapes, _ := solve.Attrs["path_shapes"].(float64)
	distinct, _ := solve.Attrs["distinct_acls"].(float64)
	if shapes <= 0 || distinct <= 0 {
		t.Fatalf("solve span attrs %v: want positive path_shapes and distinct_acls", solve.Attrs)
	}
	if got := snap.Gauges["fix.path_shapes"]; got != int64(shapes) {
		t.Fatalf("fix.path_shapes gauge %d, solve span says %v", got, shapes)
	}
	// Each neighborhood's placement is solved or read from its FEC's memo,
	// and the counter and the solve span agree on how many were solved.
	placements := snap.Counters["fix.placements"]
	if attr, _ := solve.Attrs["placements"].(float64); placements <= 0 || placements > int64(len(res.Neighborhoods)) || int64(attr) != placements {
		t.Fatalf("fix.placements = %d (solve span says %v) for %d neighborhoods", placements, solve.Attrs["placements"], len(res.Neighborhoods))
	}
	// Every neighborhood is the product of at least one probe per field.
	if got := snap.Counters["fix.expand.probes"]; got < 5*int64(len(res.Neighborhoods)) {
		t.Fatalf("fix.expand.probes = %d for %d neighborhoods", got, len(res.Neighborhoods))
	}
	// The running example's touched ACLs are small: every redundancy
	// decision is exact, and all of them fit the cube budget.
	simplify := child("simplify")
	cube, _ := simplify.Attrs["exact_cube"].(float64)
	sat, hasSAT := simplify.Attrs["exact_sat"].(float64)
	if cube <= 0 || !hasSAT || sat != 0 {
		t.Fatalf("simplify span attrs %v: want exact_cube > 0 and exact_sat = 0", simplify.Attrs)
	}
}

// TestGenerateObservability exercises the generate pipeline's spans and
// counters on the §5 migration example.
func TestGenerateObservability(t *testing.T) {
	opts := core.DefaultOptions()
	trace, _, m := obsHarness(&opts)
	e, sources := migrationEngine(opts)
	res, err := e.Generate(sources)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("generate must verify on the migration example")
	}
	snap := m.Snapshot()
	if snap.Counters["generate.aecs"] != int64(res.AECs) {
		t.Fatalf("generate.aecs %d != %d", snap.Counters["generate.aecs"], res.AECs)
	}
	if snap.Counters["generate.rules"] != int64(res.RulesGenerated) {
		t.Fatalf("generate.rules %d != %d", snap.Counters["generate.rules"], res.RulesGenerated)
	}
	spans := decodeSpans(t, trace)
	if len(spans["generate"]) != 1 || spans["generate"][0].Attrs["verified"] != true {
		t.Fatalf("generate root span wrong: %+v", spans["generate"])
	}
	genID := spans["generate"][0].ID
	// Exactly these four phases: the per-call index compiles inside
	// "solve" and the first-match pass runs inside "derive-aec", so the
	// operator benchmark's layer attribution keeps adding up.
	phases := map[string]obs.SpanRecord{}
	for name, recs := range spans {
		for _, s := range recs {
			if s.Parent == genID {
				phases[name] = s
			}
		}
	}
	for _, phase := range []string{"derive-aec", "solve", "synthesize", "verify"} {
		if _, ok := phases[phase]; !ok {
			t.Fatalf("generate has no %q child span", phase)
		}
	}
	if len(phases) != 4 {
		t.Fatalf("generate has phase spans beyond the four the benchmark attributes: %v", phases)
	}
	// Figure 1 has four paths from A1 (p0–p3), no two crossing the same
	// targets and ACL bindings: four shapes.
	solve := phases["solve"].Attrs
	if solve["paths"] != float64(4) || solve["path_shapes"] != float64(4) {
		t.Fatalf("solve span attrs paths=%v path_shapes=%v, want 4 and 4", solve["paths"], solve["path_shapes"])
	}
	if got := snap.Gauges["generate.path_shapes"]; got != 4 {
		t.Fatalf("generate.path_shapes gauge = %d, want 4", got)
	}
	// The synthesis table: how many sequence vectors the AECs cross into
	// and how many entries hold them once vectors of one AEC with equal
	// overlap lists are merged. Table 4b has four rows, one per AEC, so
	// nothing merges.
	syn := phases["synthesize"].Attrs
	if syn["rows"] != float64(4) || syn["row_entries"] != float64(4) {
		t.Fatalf("synthesize span attrs rows=%v row_entries=%v, want 4 and 4", syn["rows"], syn["row_entries"])
	}
	if rows, entries := snap.Gauges["generate.rows"], snap.Gauges["generate.row_entries"]; rows != 4 || entries != 4 {
		t.Fatalf("generate.rows / generate.row_entries gauges = %d / %d, want 4 and 4", rows, entries)
	}
}

// TestObserverOffStillAggregatesSolverStats pins that the result's
// solver counters do not depend on an observer being attached.
func TestObserverOffStillAggregatesSolverStats(t *testing.T) {
	forceSAT(t)
	res := newRunningEngine(t, core.DefaultOptions()).Check()
	if res.SolverStats == (sat.Stats{}) {
		t.Fatal("SolverStats must be aggregated even without an observer")
	}
}
