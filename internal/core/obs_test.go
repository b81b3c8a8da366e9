package core_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"testing"

	"jinjing/internal/core"
	"jinjing/internal/obs"
	"jinjing/internal/sat"
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
// and cross-checks spans, metrics, progress, and the result against each
// other. The check decides in the set algebra and runs no solver: its
// solver stats are zero and its metrics carry no sat.* key and no
// formula.
func TestCheckObservability(t *testing.T) {
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	trace, progress, m := obsHarness(&opts)
	e := newRunningEngine(t, opts)
	res := e.Check()

	if res.Consistent {
		t.Fatal("running example must be inconsistent")
	}
	if res.SolverStats != (sat.Stats{}) {
		t.Fatalf("the check ran a solver: %+v", res.SolverStats)
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
	assertCheckShapeSpans(t, spans, snap, res.SolvedFECs)
	if got := snap.Counters["check.fecs"]; got != int64(res.FECs) {
		t.Fatalf("check.fecs counter %d != result FECs %d", got, res.FECs)
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "sat.") {
			t.Fatalf("the check wrote %s", name)
		}
	}
	if got := snap.Histograms["check.fec_solve_ns"].Count; got != int64(res.SolvedFECs) {
		t.Fatalf("solve histogram count %d != solved FECs %d", got, res.SolvedFECs)
	}
	if _, ok := snap.Gauges["smt.nodes"]; ok {
		t.Fatal("the check reported a formula size")
	}
	if v, ok := snap.Gauges["topo.paths.truncated"]; !ok || v != 0 {
		t.Fatalf("topo.paths.truncated gauge = %d (set: %v), want 0 reported", v, ok)
	}
	if !strings.Contains(progress.String(), "check: FECs") {
		t.Fatalf("no progress lines: %q", progress.String())
	}
}

// assertCheckShapeSpans checks what check reports of its path shapes: the
// fec.solve spans (one per decided FEC) carry the FEC's path count and
// its distinct-shape count, the check.path_shapes gauge is their sum, and
// the root has exactly the check's four phase spans under it — compiling
// shapes added none.
func assertCheckShapeSpans(t *testing.T, spans map[string][]obs.SpanRecord, snap obs.Snapshot, solved int) {
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
		if s.Attrs["backend"] != "pset" {
			t.Fatalf("fec.solve span attrs %v: want backend=pset", s.Attrs)
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
		t.Fatalf("%d fec.solve spans, %d solved FECs", decided, solved)
	}
	if got := snap.Gauges["check.path_shapes"]; got != sum {
		t.Fatalf("check.path_shapes gauge %d, fec.solve spans sum to %d", got, sum)
	}
}

// TestCheckPsetObservability pins what the set algebra reports of its
// decisions: it decides every FEC of the running example on its flip
// region whole, and each fec.solve span names what the decision's cost
// followed. FECs split at a lowered budget say so too.
func TestCheckPsetObservability(t *testing.T) {
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	trace, _, m := obsHarness(&opts)
	res := newRunningEngine(t, opts).Check()
	snap := m.Snapshot()
	spans := decodeSpans(t, trace)
	assertCheckShapeSpans(t, spans, snap, res.SolvedFECs)
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

	// At a budget of two cubes splitEngine's network splits FECs: each is
	// counted in backend.bailout, and its span counts its pieces.
	core.SetCubeBudget(t, 2)
	trace, _, m = obsHarness(&opts)
	split := splitEngine(opts).Check()
	snap = m.Snapshot()
	if split.Stats.PsetBailout == 0 || snap.Counters["backend.bailout"] != split.Stats.PsetBailout ||
		split.Stats.PsetDecided+split.Stats.PsetBailout != int64(split.SolvedFECs) {
		t.Fatalf("at 2 cubes: stats %+v, backend.bailout=%d, %d solved FECs", split.Stats, snap.Counters["backend.bailout"], split.SolvedFECs)
	}
	pieces := 0
	for _, s := range decodeSpans(t, trace)["fec.solve"] {
		if leaves, ok := s.Attrs["leaves"].(float64); ok {
			if leaves < 1 {
				t.Fatalf("fec.solve span attrs %v: a split decides at least one piece", s.Attrs)
			}
			pieces++
		}
	}
	if int64(pieces) != split.Stats.PsetBailout {
		t.Fatalf("%d fec.solve spans count pieces, %d FECs split", pieces, split.Stats.PsetBailout)
	}
}

// TestCheckParallelObservability checks what check reports under
// Workers=4, which it ignores: the decision stats and the rules the set
// algebra folded equal a one-worker run's, and the root span names no
// worker count.
func TestCheckParallelObservability(t *testing.T) {
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	_, _, m1 := obsHarness(&opts)
	want := newRunningEngine(t, opts).Check().Stats
	folded := m1.Snapshot().Counters["check.pset.rules_folded"]
	opts.Workers = 4
	trace, _, m := obsHarness(&opts)
	e := newRunningEngine(t, opts)
	res := e.Check()

	if res.Consistent {
		t.Fatal("running example must be inconsistent")
	}
	snap := m.Snapshot()
	if res.Stats != want || snap.Counters["check.pset.rules_folded"] != folded || folded == 0 {
		t.Fatalf("Workers=4 stats %+v and %d rules folded, one worker %+v and %d",
			res.Stats, snap.Counters["check.pset.rules_folded"], want, folded)
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
	e := newRunningEngine(t, opts)
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("fix must verify on the running example")
	}
	snap := m.Snapshot()
	if len(res.Regions) == 0 {
		t.Fatal("the running example needs fixing")
	}
	if snap.Counters["fix.neighborhoods"] != int64(len(res.Regions)) {
		t.Fatalf("fix.neighborhoods %d != %d regions", snap.Counters["fix.neighborhoods"], len(res.Regions))
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "sat.") {
			t.Fatalf("fix (or its verification check) wrote %s", name)
		}
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
	// as a gauge.
	solve := child("solve")
	shapes, _ := solve.Attrs["path_shapes"].(float64)
	distinct, _ := solve.Attrs["distinct_acls"].(float64)
	if shapes <= 0 || distinct <= 0 {
		t.Fatalf("solve span attrs %v: want positive path_shapes and distinct_acls", solve.Attrs)
	}
	if got := snap.Gauges["fix.path_shapes"]; got != int64(shapes) {
		t.Fatalf("fix.path_shapes gauge %d, solve span says %v", got, shapes)
	}
	// Each region's placement is decided or read from its FEC's memo,
	// and the counter and the solve span agree on how many were decided.
	placements := snap.Counters["fix.placements"]
	if attr, _ := solve.Attrs["placements"].(float64); placements <= 0 || placements > int64(len(res.Regions)) || int64(attr) != placements {
		t.Fatalf("fix.placements = %d (solve span says %v) for %d regions", placements, solve.Attrs["placements"], len(res.Regions))
	}
	// The running example's touched ACLs are small: every redundancy
	// decision is exact, and all of them fit the cube budget.
	simplify := child("simplify")
	cube, _ := simplify.Attrs["exact_cube"].(float64)
	over, hasOver := simplify.Attrs["over_budget"].(float64)
	if cube <= 0 || !hasOver || over != 0 {
		t.Fatalf("simplify span attrs %v: want exact_cube > 0 and over_budget = 0", simplify.Attrs)
	}
	// The verification reports the FECs it kept from the fix loop and the
	// ones it decided, the latter as its own check's solve span does.
	verify := child("verify")
	kept, okK := verify.Attrs["kept"].(float64)
	decided, okD := verify.Attrs["decided"].(float64)
	if !okK || !okD || kept+decided > float64(e.NumFECs()) {
		t.Fatalf("verify span attrs %v: want kept and decided, at most %d FECs together", verify.Attrs, e.NumFECs())
	}
	nested := 0
	for _, c := range spans["check"] {
		for _, s := range spans["solve"] {
			if c.Parent == verify.ID && s.Parent == c.ID {
				if nested++; s.Attrs["decided"] != decided {
					t.Fatalf("verify span says decided=%v, its check's solve span %v", decided, s.Attrs["decided"])
				}
			}
		}
	}
	if nested != 1 {
		t.Fatalf("want one solve span in the verification check, got %d", nested)
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
// solver counters do not depend on an observer being attached: the
// monolithic baseline's one query, the only solver a check runs, still
// adds up.
func TestObserverOffStillAggregatesSolverStats(t *testing.T) {
	res := newRunningEngine(t, core.DefaultOptions()).CheckMonolithic()
	if res.SolverStats == (sat.Stats{}) {
		t.Fatal("SolverStats must be aggregated even without an observer")
	}
}
