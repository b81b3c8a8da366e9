package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/lai"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

// testBin holds jinjing and jinjingd built from the working tree, for
// the tests that drive the real binaries.
var testBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "jjbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/jinjing", "./cmd/jinjingd")
	cmd.Dir = ".." // the module the binaries belong to
	cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building jinjing and jinjingd: %v\n%s", err, out)
		os.Exit(1)
	}
	testBin = dir
	code := m.Run()
	os.RemoveAll(dir) //nolint:errcheck // temp dir
	os.Exit(code)
}

func testEnv(t *testing.T) env {
	t.Helper()
	return env{bin: testBin, work: t.TempDir()}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentiles(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	if got := median(xs); !near(got, 25) {
		t.Errorf("median = %v, want 25", got)
	}
	if got := percentile(xs, 0.9); !near(got, 37) {
		t.Errorf("p90 = %v, want 37", got)
	}
	if got := percentile(xs, 1); !near(got, 40) {
		t.Errorf("p100 = %v, want 40", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	var ten []float64
	for i := 10; i >= 1; i-- {
		ten = append(ten, float64(i))
	}
	q1, med, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(med, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []*span{
		{Name: "op", ID: 1, Op: 1, Start: 0, End: 100 * ms},
		{Name: "a", ID: 2, Parent: 1, Op: 1, Start: 10 * ms, End: 40 * ms},
		{Name: "a.child", ID: 3, Parent: 2, Op: 1, Start: 15 * ms, End: 25 * ms},
		{Name: "b", ID: 4, Parent: 1, Op: 1, Start: 30 * ms, End: 70 * ms}, // overlaps a by 10 ms
		{Name: "detail", ID: 5, Parent: 4, Op: 1, Start: 35 * ms, End: 60 * ms},
		{Name: "other-op", ID: 6, Parent: 1, Op: 2, Start: 0, End: 100 * ms},
	}
	self := selfTimes(spans, 1, func(s *span) bool { return s.Name == "detail" })
	want := map[string]time.Duration{"op": 40 * ms, "a": 20 * ms, "a.child": 10 * ms, "b": 40 * ms}
	if len(self) != len(want) {
		t.Fatalf("%d spans, want %d", len(self), len(want))
	}
	var sum time.Duration
	for s, d := range self {
		if d != want[s.Name] {
			t.Errorf("self(%s) = %v, want %v", s.Name, d, want[s.Name])
		}
		sum += d
	}
	// Overlapping siblings are counted once in the parent, so self times
	// add up to the op plus the overlap.
	if sum != 110*ms {
		t.Errorf("self times sum to %v, want 110ms", sum)
	}
}

// figure1 is the paper's running example with its D2 ACL loosened: the
// update stops denying traffic 2 at D2, which changes the decision on
// the long path A1→A2→B→C→D only.
func figure1() (before, after *topo.Network) {
	before, after = papernet.Build(), papernet.Build()
	after.Devices["D"].Interfaces["2"].SetACL(topo.In, acl.MustParse("deny dst 1.0.0.0/8, permit all"))
	return before, after
}

func TestRefevalFigure1(t *testing.T) {
	before, after := figure1()
	a1 := before.Devices["A"].Interfaces["1"]
	short, long := "<A:1, A:4, D:1, D:3>", "<A:1, A:2, B:1, B:2, C:2, C:4, D:2, D:3>"

	pkt := func(dst uint32) header.Packet { return header.Packet{DstIP: dst<<24 | 9} }
	var got []string
	for _, p := range refWalks(before, a1, pkt(2)) {
		got = append(got, "<"+strings.Join(p, ", ")+">")
	}
	if len(got) != 2 || got[0] != short || got[1] != long {
		t.Fatalf("traffic 2 walks %v, want the ECMP pair %s and %s", got, short, long)
	}
	if w := refWalks(before, a1, pkt(9)); len(w) != 0 {
		t.Errorf("unrouted traffic walks %v", w)
	}

	decide := func(n *topo.Network, path string, dst uint32) (bool, bool) {
		p, err := parseRefPath(path)
		if err != nil {
			t.Fatal(err)
		}
		permits, forwards, err := refDecide(n, p, pkt(dst))
		if err != nil {
			t.Fatal(err)
		}
		return permits, forwards
	}
	for _, c := range []struct {
		n                 *topo.Network
		path              string
		dst               uint32
		permits, forwards bool
	}{
		{before, short, 1, true, true},
		{before, short, 6, false, false}, // denied at A1, and A forwards 6 to A2 only
		{before, long, 2, false, true},   // denied at D2
		{after, long, 2, true, true},     // the update opens it
		{before, long, 1, false, false},  // A never sends 1 towards B
		{before, "<A:1, A:3, C:1, C:3>", 7, false, true},
	} {
		permits, forwards := decide(c.n, c.path, c.dst)
		if permits != c.permits || forwards != c.forwards {
			t.Errorf("%s dst %d: permits=%v forwards=%v, want %v %v", c.path, c.dst, permits, forwards, c.permits, c.forwards)
		}
	}
}

// figure1Report runs the real engine on the Figure 1 update and returns
// what the CLI would print.
func figure1Report(t *testing.T, commands string) (*expectation, string) {
	t.Helper()
	before, after := figure1()
	prog, err := lai.Parse("scope A:*, B:*, C:*, D:*\nentry A:1\nallow A:1-in, C:1-in, D:2-in\nmodify D:2-in\n" + commands)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := lai.Resolve(prog, before, lai.ResolveOptions{Updated: after})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	rep, err := core.Run(resolved, opts)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	rep.Print(&out)
	return &expectation{before: before, after: after, samples: 500, seed: 1}, out.String()
}

func TestJudgeFigure1(t *testing.T) {
	pool := []header.Prefix{papernet.Traffic(1), papernet.Traffic(2), papernet.Traffic(5)}
	x, rep := figure1Report(t, "check\n")
	if !strings.Contains(rep, "INCONSISTENT") || !strings.Contains(rep, "counterexample 0.0.0.0:0 -> 2.0.0.0:0") {
		t.Fatalf("unexpected engine report:\n%s", rep)
	}
	if err := x.judge(rep, pool); err != nil {
		t.Errorf("genuine report rejected: %v", err)
	}
	if bad, err := x.expectInconsistent(pool); err != nil || !bad {
		t.Errorf("reference does not find the update unsafe (%v, %v)", bad, err)
	}

	// A corrupted counterexample must not survive: traffic 3 takes the
	// same path but its decision does not change there.
	forged := strings.Replace(rep, "-> 2.0.0.0:0", "-> 3.0.0.0:0", 1)
	if err := x.judge(forged, pool); err == nil {
		t.Error("forged counterexample accepted")
	}
	// Nor a counterexample moved to a path the packet never takes.
	moved := strings.Replace(rep, "<A:1, A:2, B:1, B:2, C:2, C:4, D:2, D:3>", "<A:1, A:3, C:1, C:4, D:2, D:3>", 1)
	if err := x.judge(moved, pool); err == nil {
		t.Error("counterexample on an unforwarded path accepted")
	}
	// Nor a clean bill of health for an unsafe update.
	if err := x.judge("check: consistent (5 FECs, 5 solved)\n", pool); err == nil {
		t.Error("'consistent' accepted for an update the reference finds unsafe")
	}

	// check; fix: the plan must restore Equation 3, and a plan with an
	// action dropped must not.
	x, rep = figure1Report(t, "check\nfix\n")
	if err := x.judge(rep, pool); err != nil {
		t.Errorf("genuine fix plan rejected: %v\n%s", err, rep)
	}
	var kept []string
	for _, line := range strings.Split(rep, "\n") {
		if !strings.HasPrefix(line, "  add to ") {
			kept = append(kept, line)
		}
	}
	if err := x.judge(strings.Join(kept, "\n"), pool); err == nil {
		t.Error("fix plan with its actions removed accepted")
	}
}

func TestIOSRoundTrip(t *testing.T) {
	g, err := loadGrid()
	if err != nil {
		t.Fatal(err)
	}
	in, err := g.generate(g.find("check-first-large"), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := throughIOS(in.before)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameNetwork(in.before, parsed); err != nil {
		t.Errorf("rendering does not round-trip: %v", err)
	}
	// The comparison must notice a dropped rule, a rerouted prefix and a
	// missing cable.
	a := parsed.Devices["edge0"].Interfaces["ext"].ACL(topo.In)
	a.Rules = a.Rules[1:]
	if err := sameNetwork(in.before, parsed); err == nil {
		t.Error("dropped rule not noticed")
	}
	parsed, _ = throughIOS(in.before)
	parsed.Devices["agg0"].FIB[0].Prefix.Addr ^= 1 << 8
	if err := sameNetwork(in.before, parsed); err == nil {
		t.Error("changed route not noticed")
	}
	cfgs, links := renderIOS(in.before)
	if parsed, err = parseIOS(in.before, cfgs, links[1:]); err != nil {
		t.Fatal(err)
	}
	if err := sameNetwork(in.before, parsed); err == nil {
		t.Error("missing link not noticed")
	}
}

func TestSeedRelabelsOnly(t *testing.T) {
	g, err := loadGrid()
	if err != nil {
		t.Fatal(err)
	}
	wl := g.find("check-all-large")
	text := func(seed int64) string {
		in, err := g.generate(wl, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(in.before)
		a, _ := json.Marshal(in.after)
		return string(b) + string(a) + in.prog.Format()
	}
	if text(5) != text(5) {
		t.Error("the same seed gave different inputs")
	}
	if text(5) == text(6) {
		t.Error("different seeds gave the same inputs")
	}
	// Same shape: rule and route counts are the seed's to keep.
	count := func(seed int64) (rules, routes int) {
		in, _ := g.generate(wl, seed, true)
		for _, d := range in.after.SortedDevices() {
			routes += len(d.FIB)
			for _, i := range d.SortedInterfaces() {
				if a := i.ACL(topo.In); a != nil {
					rules += len(a.Rules)
				}
			}
		}
		return
	}
	r5, f5 := count(5)
	r6, f6 := count(6)
	if r5 != r6 || f5 != f6 || r5 == 0 {
		t.Errorf("seeds change the amount of input: %d/%d rules, %d/%d routes", r5, r6, f5, f6)
	}
}

// TestManifest holds BENCHMARK.json, workloads.json and the metric
// tables equal: the file at the repository root is exactly what
// `jjbench manifest` prints.
func TestManifest(t *testing.T) {
	g, err := loadGrid()
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is not what `jjbench manifest` prints; regenerate it")
	}
	for _, w := range g.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the manifest admits 128", n)
	}
}

// TestQuickSmoke runs every workload end to end and traced on the small
// WAN, against the real binaries, and checks that what is printed is
// what BENCHMARK.json names — in both directions.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real binaries")
	}
	g, err := loadGrid()
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(g.Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, workloads.json %d", len(manifest.Workloads), len(g.Workloads))
	}
	sameNames := func(what string, out *outcome, names []struct{ Name string }) {
		t.Helper()
		want := map[string]bool{}
		for _, n := range names {
			want[n.Name] = true
			if _, ok := out.Metrics[n.Name]; !ok {
				t.Errorf("%s: %s is in BENCHMARK.json but was not printed", what, n.Name)
			}
		}
		for name := range out.Metrics {
			if !want[name] {
				t.Errorf("%s: %s was printed but is not in BENCHMARK.json", what, name)
			}
		}
	}
	window := time.Duration(g.Quick.RunMS) * time.Millisecond
	for i, w := range manifest.Workloads {
		wl := g.find(w.Name)
		if wl == nil || g.Workloads[i].Name != w.Name {
			t.Fatalf("workload %q of BENCHMARK.json is not row %d of workloads.json", w.Name, i)
		}
		t.Run(w.Name, func(t *testing.T) {
			out, err := g.endToEndRun(testEnv(t), wl, 3, window, true)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Attempted < g.MinOps || out.Failed != 0 {
				t.Errorf("end to end: correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
			}
			sameNames("end to end", out, manifest.EndToEnd)
			for name, v := range out.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; they must never be 0", name, v.Value)
				}
			}

			tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
			out, err = g.tracedRun(testEnv(t), wl, 3, window, true, tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d", out.Correct, out.Failed)
			}
			sameNames("traced", out, manifest.PerLayer)
			// The layers of one op add up to the op.
			var layers float64
			for name, v := range out.Metrics {
				if isOpLayer(name) {
					layers += v.Value
				}
			}
			if total := out.Metrics["bench.traced_op_ms"].Value; math.Abs(layers-total) > 0.1*total {
				t.Errorf("layer self times sum to %.3f ms, the traced op took %.3f ms", layers, total)
			}
			trace, err := os.ReadFile(tracePath)
			if err != nil || bytes.Count(trace, []byte("\n")) < 5 {
				t.Errorf("trace file: %d lines, %v", bytes.Count(trace, []byte("\n")), err)
			}
		})
	}
}

// TestBrokenInputFailsOps swaps the update plan for the unchanged
// network behind the benchmark's back: every op must then fail its
// acceptance test instead of being timed.
func TestBrokenInputFailsOps(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real binaries")
	}
	g, err := loadGrid()
	if err != nil {
		t.Fatal(err)
	}
	e := testEnv(t)
	wl := g.find("check-all-large")
	in, _, err := g.setupCLI(e, wl, 3, true, "in")
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.measureCLI(e, in, 3, 100*time.Millisecond)
	if err != nil || res.failed != 0 || len(res.ops) == 0 {
		t.Fatalf("intact input: failed=%d ops=%d err=%v (%s)", res.failed, len(res.ops), err, res.firstFailure)
	}
	unchanged, err := os.ReadFile(filepath.Join(in.dir, "net.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(in.dir, "after.json"), unchanged, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = g.measureCLI(e, in, 3, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted == 0 || res.failed != res.attempted || len(res.ops) != 0 {
		t.Errorf("swapped input: attempted=%d failed=%d timed=%d; every op should fail", res.attempted, res.failed, len(res.ops))
	}
	if !strings.Contains(res.firstFailure, "exit code 0, want 1") {
		t.Errorf("failure %q does not name the wrong exit code", res.firstFailure)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall []float64, failed int) string {
		path := filepath.Join(dir, name)
		for i, w := range wall {
			out := &outcome{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]metricValue{
				"op_wall_p50_ms": {w, "ms"}, "topo.fecs_ms": {w / 2, "ms"}}}
			if err := appendRun(path, "wl", int64(i), 0, false, time.Second, out); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", []float64{100, 101, 99, 100, 102, 100, 98, 100, 101, 100}, 0)
	verdict := func(b string) (string, error) {
		var out bytes.Buffer
		err := compare(&out, base, b)
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "op_wall_p50_ms") {
				return line, err
			}
		}
		t.Fatalf("no op_wall_p50_ms row in:\n%s", out.String())
		return "", nil
	}
	if line, err := verdict(write("same.jsonl", []float64{101, 100, 103, 99, 100, 101, 100, 102, 100, 99}, 0)); err != nil || !strings.HasSuffix(line, "ok") {
		t.Errorf("equal sets: %q, %v", line, err)
	}
	var slow []float64 // past the bound by five points
	for _, w := range []float64{101, 100, 103, 99, 100, 101, 100, 102, 100, 99} {
		slow = append(slow, w*(1.05+endToEnd[0].Bound))
	}
	if line, err := verdict(write("slow.jsonl", slow, 0)); err == nil || !strings.Contains(line, "regressed") {
		t.Errorf("set slower than the bound: %q, %v", line, err)
	}
	if line, err := verdict(write("noisy.jsonl", []float64{80, 140, 95, 150, 70, 130, 100, 160, 90, 120}, 0)); err != nil || !strings.HasSuffix(line, "unresolved") {
		t.Errorf("noisy set: %q, %v", line, err)
	}
	if line, err := verdict(write("failing.jsonl", []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}, 1)); err == nil || !strings.Contains(line, "more failed ops") {
		t.Errorf("set with failed ops: %q, %v", line, err)
	}
}
