package jinjing_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"jinjing"
	"jinjing/internal/core"
	"jinjing/internal/lai"
	"jinjing/internal/netgen"
	"jinjing/internal/obs"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

// buildTool compiles one of the cmd/ binaries into a shared temp dir.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// TestCLIPipeline drives the full netgen -> check -> fix flow through the
// command-line tools, exactly as a user would.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline builds binaries; skipped in -short mode")
	}
	netgenBin := buildTool(t, "jinjing-netgen")
	jinjingBin := buildTool(t, "jinjing")
	dir := t.TempDir()

	before := filepath.Join(dir, "net.json")
	after := filepath.Join(dir, "net-after.json")
	run(t, netgenBin, "-size", "small", "-seed", "9", "-out", before)
	run(t, netgenBin, "-size", "small", "-seed", "9", "-perturb", "4", "-out", after)

	// An LAI program: check the perturbed plan (expect inconsistency and
	// exit code 1), then check+fix (expect success).
	checkProg := filepath.Join(dir, "check.lai")
	writeProgram(t, checkProg, "check\n")
	cmd := exec.Command(jinjingBin, "-topo", before, "-updated", after, "-program", checkProg)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("check of a perturbed plan should exit nonzero\n%s", out)
	}
	if !strings.Contains(string(out), "INCONSISTENT") {
		t.Fatalf("expected INCONSISTENT, got:\n%s", out)
	}

	fixProg := filepath.Join(dir, "fix.lai")
	writeProgram(t, fixProg, "check\nfix\n")
	out2, err := exec.Command(jinjingBin, "-topo", before, "-updated", after, "-program", fixProg).CombinedOutput()
	if err != nil {
		t.Fatalf("check+fix failed: %v\n%s", err, out2)
	}
	if !strings.Contains(string(out2), "verified=true") {
		t.Fatalf("expected a verified fix, got:\n%s", out2)
	}
}

// writeProgram emits a full LAI program for the small WAN: scope over
// every generated device, modify every ACL-carrying binding from the
// updated snapshot, then the given commands.
func writeProgram(t *testing.T, path, commands string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(smallWANProgram(commands)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// smallWANProgram is writeProgram's program text.
func smallWANProgram(commands string) string {
	var b strings.Builder
	b.WriteString("scope ")
	var scopeParts, allowParts, modifyParts []string
	for i := 0; i < 2; i++ {
		scopeParts = append(scopeParts, sprintfDev("core%d", i))
	}
	for i := 0; i < 4; i++ {
		scopeParts = append(scopeParts, sprintfDev("agg%d", i))
	}
	for i := 0; i < 8; i++ {
		scopeParts = append(scopeParts, sprintfDev("edge%d", i))
		allowParts = append(allowParts, "edge"+itoa(i)+":ext-in")
		modifyParts = append(modifyParts, "edge"+itoa(i)+":ext-in")
	}
	for i := 0; i < 2; i++ {
		allowParts = append(allowParts, "core"+itoa(i)+":up-in")
		modifyParts = append(modifyParts, "core"+itoa(i)+":up-in")
	}
	for i := 0; i < 4; i++ {
		allowParts = append(allowParts, "agg"+itoa(i)+":*-in")
	}
	b.WriteString(strings.Join(scopeParts, ", "))
	b.WriteString("\nallow ")
	b.WriteString(strings.Join(allowParts, ", "))
	b.WriteString("\nmodify ")
	b.WriteString(strings.Join(modifyParts, ", "))
	// Aggregation ACLs sit on varying downlink interfaces; modify them
	// with a glob.
	for i := 0; i < 4; i++ {
		b.WriteString(", agg" + itoa(i) + ":*-in")
	}
	b.WriteString("\n")
	b.WriteString(commands)
	return b.String()
}

func sprintfDev(format string, i int) string {
	return strings.Replace(format, "%d", itoa(i), 1) + ":*"
}

func itoa(i int) string { return string(rune('0' + i)) }

func run(t *testing.T, bin string, args ...string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
}

// TestCLIObservability drives the -trace/-metrics/-progress/-cpuprofile/
// -memprofile flags end to end: the trace must be valid JSONL ending in a
// metrics record, and the profiles must materialize even on the
// nonzero-exit (inconsistent) path.
func TestCLIObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI run builds binaries; skipped in -short mode")
	}
	netgenBin := buildTool(t, "jinjing-netgen")
	jinjingBin := buildTool(t, "jinjing")
	dir := t.TempDir()

	before := filepath.Join(dir, "net.json")
	after := filepath.Join(dir, "net-after.json")
	run(t, netgenBin, "-size", "small", "-seed", "9", "-out", before)
	run(t, netgenBin, "-size", "small", "-seed", "9", "-perturb", "4", "-out", after)
	prog := filepath.Join(dir, "check.lai")
	writeProgram(t, prog, "check\n")

	tracePath := filepath.Join(dir, "trace.jsonl")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	cmd := exec.Command(jinjingBin,
		"-topo", before, "-updated", after, "-program", prog,
		"-trace", tracePath, "-metrics", "-progress",
		"-cpuprofile", cpuPath, "-memprofile", memPath,
	)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("perturbed check should exit nonzero\n%s", out)
	}
	if !strings.Contains(string(out), "sat.conflicts") {
		t.Fatalf("-metrics output missing from stderr:\n%s", out)
	}
	for _, counter := range []string{
		"fec.cache.hits", "fec.cache.misses",
		"backend.pset.selected", "backend.bailout",
	} {
		if !strings.Contains(string(out), counter) {
			t.Fatalf("-metrics output missing incremental counter %s:\n%s", counter, out)
		}
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace too short:\n%s", data)
	}
	sawCheck, sawLoad := false, false
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %d not JSON: %v\n%s", i, err, line)
		}
		switch rec["type"] {
		case "span":
			switch rec["name"] {
			case "check":
				sawCheck = true
			case "load":
				// The load is traced too: a root span with the input's size.
				sawLoad = true
				attrs, _ := rec["attrs"].(map[string]any)
				if rec["depth"] != 0.0 || attrs["bytes"] == nil || attrs["devices"] != 14.0 || attrs["routes"] == nil {
					t.Fatalf("load span should be a root with bytes, devices=14 and routes: %s", line)
				}
			}
		case "metrics":
			if i != len(lines)-1 {
				t.Fatalf("metrics record must be last (line %d of %d)", i, len(lines))
			}
		default:
			t.Fatalf("trace line %d has unknown type: %s", i, line)
		}
	}
	if !sawCheck || !sawLoad {
		t.Fatalf("no check or load span in trace:\n%s", data)
	}
	if rec := lines[len(lines)-1]; !strings.Contains(rec, `"metrics"`) {
		t.Fatalf("trace does not end with a metrics record: %s", rec)
	}

	for _, p := range []string{cpuPath, memPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestCLIWorkersGolden pins the determinism contract at the CLI surface:
// the same program run with -workers N must produce byte-identical stdout
// (verdict, violations, counterexample packets, fix report) for every N.
// Check ignores the worker count; parallel fix may schedule its per-FEC
// work in any order, but merges outcomes in FEC order, so the output a
// user sees cannot depend on it.
func TestCLIWorkersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI run builds binaries; skipped in -short mode")
	}
	netgenBin := buildTool(t, "jinjing-netgen")
	jinjingBin := buildTool(t, "jinjing")
	dir := t.TempDir()

	before := filepath.Join(dir, "net.json")
	after := filepath.Join(dir, "net-after.json")
	run(t, netgenBin, "-size", "small", "-seed", "9", "-out", before)
	run(t, netgenBin, "-size", "small", "-seed", "9", "-perturb", "4", "-out", after)
	prog := filepath.Join(dir, "checkfix.lai")
	writeProgram(t, prog, "check\nfix\n")

	outputs := map[int]string{}
	for _, workers := range []int{1, 2, 8} {
		cmd := exec.Command(jinjingBin,
			"-topo", before, "-updated", after, "-program", prog,
			"-all-violations", "-workers", itoa(workers),
		)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("-workers %d failed: %v\n%s%s", workers, err, stdout.String(), stderr.String())
		}
		if !strings.Contains(stdout.String(), "verified=true") {
			t.Fatalf("-workers %d: expected a verified fix:\n%s", workers, stdout.String())
		}
		outputs[workers] = stdout.String()
	}
	for _, workers := range []int{2, 8} {
		if outputs[workers] != outputs[1] {
			t.Errorf("-workers %d stdout differs from -workers 1:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				workers, outputs[1], workers, outputs[workers])
		}
	}
}

// TestCLIBackendGolden pins the worker-identity contract on the CLI
// golden's inputs (the netgen small seed-9 network and a 4% perturbation
// of it): core.Run's check-and-fix report must verify and be
// byte-identical at one worker and at eight, and so must the solver
// counters, which only fix's placement solvers feed — the check decides
// every FEC in the set algebra (its CacheStats say so). Outside -short
// mode the no-optimization report is also pinned to `jinjing
// -no-optimizations` on the same input files, so the flag's wiring is
// exercised too.
func TestCLIBackendGolden(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 9))
	dir := t.TempDir()
	before, after := filepath.Join(dir, "net.json"), filepath.Join(dir, "net-after.json")
	// The in-process runs load the bytes the binary reads.
	load := func(path string, n *topo.Network) *topo.Network {
		data, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded := topo.NewNetwork()
		if err := loaded.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		return loaded
	}
	beforeNet, afterNet := load(before, w.Net), load(after, w.Perturb(10, 4))
	prog, err := lai.Parse(smallWANProgram("check\nfix\n"))
	if err != nil {
		t.Fatal(err)
	}
	capture := func(workers int, noOpt bool) (string, map[string]int64) {
		resolved, err := lai.Resolve(prog, beforeNet, lai.ResolveOptions{Updated: afterNet})
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.FindAllViolations = true
		opts.Workers = workers
		if noOpt {
			opts.UseDifferential, opts.OptimizeSynthesis = false, false
		}
		m := obs.NewMetrics()
		opts.Obs = obs.NewObserver(nil, m, nil)
		rep, err := core.Run(resolved, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var out strings.Builder
		rep.Print(&out)
		if !strings.Contains(out.String(), "verified=true") {
			t.Fatalf("workers=%d: expected a verified fix:\n%s", workers, out.String())
		}
		if stats := rep.Checks[0].Stats; stats.PsetDecided == 0 || stats.PsetBailout != 0 {
			t.Fatalf("workers=%d: the check decided no FEC in the set algebra, or split one: %+v", workers, stats)
		}
		return out.String(), m.Snapshot().Counters
	}

	checkLines := func(out string) string {
		check, _, _ := strings.Cut(out, "\nfix:")
		return check
	}
	golden, satCounters := capture(1, false)
	if satCounters["sat.propagations"] == 0 {
		t.Fatalf("fix's placements propagated nothing: %v", satCounters)
	}
	out, counters := capture(8, false)
	if out != golden {
		t.Errorf("the report at 8 workers differs from one worker's:\n--- 1 ---\n%s\n--- 8 ---\n%s", golden, out)
	}
	// Check runs one loop whatever the worker count, and fix's per-FEC
	// work is a pure function of the FEC: the solver counters cannot
	// depend on the worker count either.
	for _, name := range []string{"sat.decisions", "sat.propagations", "sat.conflicts"} {
		if got, want := counters[name], satCounters[name]; got != want {
			t.Errorf("at 8 workers: %s = %d, one worker has %d", name, got, want)
		}
	}

	// Without the optimizations (the CLI's -no-optimizations) the check
	// finds the same violations with the same witnesses, deciding every
	// FEC rather than the differential-related ones, and its unsimplified
	// fix still verifies (capture checks).
	basic, _ := capture(1, true)
	var fecs, solved int
	if _, err := fmt.Sscanf(basic, "check: INCONSISTENT (%d FECs, %d solved)", &fecs, &solved); err != nil || solved != fecs {
		t.Errorf("no optimizations: check should decide every FEC (%v):\n%s", err, basic)
	}
	solvedCount := regexp.MustCompile(`, \d+ solved\)`)
	if got, want := solvedCount.ReplaceAllString(checkLines(basic), ")"), solvedCount.ReplaceAllString(checkLines(golden), ")"); got != want {
		t.Errorf("no-optimization check lines differ from the default run's:\n--- default ---\n%s\n--- no optimizations ---\n%s", want, got)
	}

	if testing.Short() {
		return
	}
	progPath := filepath.Join(dir, "checkfix.lai")
	writeProgram(t, progPath, "check\nfix\n")
	cmd := exec.Command(buildTool(t, "jinjing"),
		"-topo", before, "-updated", after, "-program", progPath,
		"-all-violations", "-no-optimizations")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("jinjing -no-optimizations failed: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	if stdout.String() != basic {
		t.Errorf("jinjing -no-optimizations stdout differs from the in-process no-optimization report:\n--- in process ---\n%s\n--- CLI ---\n%s", basic, stdout.String())
	}
}

// TestCLIBackendFlagRetired pins the upgrade path of the retired -backend
// flag: the check picks its own decision procedure, so jinjing refuses
// the flag as unknown and exits 2.
func TestCLIBackendFlagRetired(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI run builds binaries; skipped in -short mode")
	}
	jinjingBin := buildTool(t, "jinjing")
	dir := t.TempDir()
	net, prog := filepath.Join(dir, "net.json"), filepath.Join(dir, "check.lai")
	if err := os.WriteFile(net, []byte(`{"devices":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	writeProgram(t, prog, "check\n")
	out, err := exec.Command(jinjingBin, "-topo", net, "-program", prog, "-backend", "sat").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-backend sat: err %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -backend") {
		t.Fatalf("-backend sat: no unknown-flag message:\n%s", out)
	}
}

// TestCLIResourceLimits drives the -timeout/-fec-budget/-max-retries
// flags end to end: generous limits must leave stdout byte-identical to
// the unlimited run, while an immediately-expiring -timeout must report
// UNDECIDED promptly and exit nonzero — an undecided check composes
// into automation as a failure, never a pass.
func TestCLIResourceLimits(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI run builds binaries; skipped in -short mode")
	}
	netgenBin := buildTool(t, "jinjing-netgen")
	jinjingBin := buildTool(t, "jinjing")
	dir := t.TempDir()

	before := filepath.Join(dir, "net.json")
	after := filepath.Join(dir, "net-after.json")
	run(t, netgenBin, "-size", "small", "-seed", "9", "-out", before)
	run(t, netgenBin, "-size", "small", "-seed", "9", "-perturb", "4", "-out", after)
	prog := filepath.Join(dir, "check.lai")
	writeProgram(t, prog, "check\n")

	capture := func(args ...string) (string, error) {
		cmd := exec.Command(jinjingBin, append([]string{
			"-topo", before, "-updated", after, "-program", prog, "-all-violations",
		}, args...)...)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &bytes.Buffer{}
		err := cmd.Run()
		return stdout.String(), err
	}

	// Generous limits: the perturbed check is inconsistent (nonzero exit)
	// either way, and the limit flags must not change a byte of output.
	plain, err := capture()
	if err == nil {
		t.Fatalf("perturbed check should exit nonzero\n%s", plain)
	}
	limited, err := capture("-timeout", "1h", "-fec-budget", "1000000", "-max-retries", "3")
	if err == nil {
		t.Fatalf("perturbed check should exit nonzero under generous limits\n%s", limited)
	}
	if limited != plain {
		t.Fatalf("generous limits changed stdout:\n--- plain ---\n%s\n--- limited ---\n%s", plain, limited)
	}

	// An immediately-expiring deadline: partial results, UNDECIDED, exit 1.
	undecided, err := capture("-timeout", "1ns")
	if err == nil {
		t.Fatalf("an undecided check must exit nonzero\n%s", undecided)
	}
	if !strings.Contains(undecided, "check: UNDECIDED") {
		t.Fatalf("expected UNDECIDED, got:\n%s", undecided)
	}
	if !strings.Contains(undecided, "undecided FEC") {
		t.Fatalf("expected per-FEC undecided lines, got:\n%s", undecided)
	}
	if strings.Contains(undecided, "check: consistent") {
		t.Fatalf("an undecided check must not read as consistent:\n%s", undecided)
	}
}

// TestCLIFixPlanError runs fix into the one plan error a CLI input can
// reach — an expired deadline leaves the seeks without verdicts, and
// FixContext refuses the plan — and requires what every error carried out
// of the fix path must look like from outside: exit status 2, one
// diagnostic line on stderr, no stack trace, and no plan on stdout.
func TestCLIFixPlanError(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI run builds binaries; skipped in -short mode")
	}
	netgenBin := buildTool(t, "jinjing-netgen")
	jinjingBin := buildTool(t, "jinjing")
	dir := t.TempDir()

	before := filepath.Join(dir, "net.json")
	after := filepath.Join(dir, "net-after.json")
	run(t, netgenBin, "-size", "small", "-seed", "9", "-out", before)
	run(t, netgenBin, "-size", "small", "-seed", "9", "-perturb", "4", "-out", after)
	prog := filepath.Join(dir, "fix.lai")
	writeProgram(t, prog, "fix\n")

	for _, workers := range []string{"1", "4"} {
		cmd := exec.Command(jinjingBin, "-topo", before, "-updated", after, "-program", prog,
			"-timeout", "1ns", "-workers", workers)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("workers=%s: want exit status 2, got %v\nstderr:\n%s", workers, err, stderr.String())
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "jinjing: core: fix refuses to emit a plan built on unknown verdicts:") {
			t.Fatalf("workers=%s: stderr does not carry the structured error:\n%s", workers, msg)
		}
		if strings.Contains(msg, "goroutine ") || strings.Contains(msg, "panic") || strings.Count(msg, "\n") != 1 {
			t.Fatalf("workers=%s: stderr reads like a crash, not a diagnostic:\n%s", workers, msg)
		}
		if stdout.Len() != 0 {
			t.Fatalf("workers=%s: no plan must be printed:\n%s", workers, stdout.String())
		}
	}
}

// TestCLITelemetryGolden drives the -decision-log/-listen/-slow-fecs
// flags end to end: all three must be byte-inert on stdout (the ledger
// goes to its file, the server and the slow-FEC table to stderr), the
// ledger must replay to the verdicts the run printed, and the server
// must announce its bound address.
func TestCLITelemetryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI run builds binaries; skipped in -short mode")
	}
	netgenBin := buildTool(t, "jinjing-netgen")
	jinjingBin := buildTool(t, "jinjing")
	dir := t.TempDir()

	before := filepath.Join(dir, "net.json")
	after := filepath.Join(dir, "net-after.json")
	run(t, netgenBin, "-size", "small", "-seed", "9", "-out", before)
	run(t, netgenBin, "-size", "small", "-seed", "9", "-perturb", "4", "-out", after)
	prog := filepath.Join(dir, "checkfix.lai")
	writeProgram(t, prog, "check\nfix\n")

	capture := func(args ...string) (string, string) {
		cmd := exec.Command(jinjingBin, append([]string{
			"-topo", before, "-updated", after, "-program", prog, "-all-violations",
		}, args...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("jinjing %v: %v\n%s%s", args, err, stdout.String(), stderr.String())
		}
		return stdout.String(), stderr.String()
	}

	golden, _ := capture()
	if !strings.Contains(golden, "verified=true") {
		t.Fatalf("expected a verified fix:\n%s", golden)
	}

	ledgerPath := filepath.Join(dir, "decisions.jsonl")
	stdout, stderr := capture(
		"-decision-log", ledgerPath,
		"-listen", "127.0.0.1:0",
		"-slow-fecs", "3",
	)
	if stdout != golden {
		t.Fatalf("telemetry flags changed stdout:\n--- plain ---\n%s\n--- instrumented ---\n%s", golden, stdout)
	}
	if !strings.Contains(stderr, "listening on 127.0.0.1:") {
		t.Fatalf("-listen did not announce its address on stderr:\n%s", stderr)
	}
	if !strings.Contains(stderr, "slowest of") || !strings.Contains(stderr, "route") {
		t.Fatalf("-slow-fecs table missing from stderr:\n%s", stderr)
	}

	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("decision log not written: %v", err)
	}
	recs, skipped := jinjing.ParseDecisionLog(data)
	if skipped != 0 {
		t.Fatalf("decision log has %d damaged lines:\n%s", skipped, data)
	}
	// One record per primitive: the check, then the fix — the fix's
	// internal verification checks must not add records of their own.
	if len(recs) != 2 || recs[0].Primitive != "check" || recs[1].Primitive != "fix" {
		t.Fatalf("want [check fix] records, got %d: %+v", len(recs), recs)
	}
	check, fix := recs[0], recs[1]
	if check.Consistent == nil || *check.Consistent {
		t.Fatalf("ledger says consistent; stdout said INCONSISTENT: %+v", check)
	}
	if len(check.FECLog) != check.FECs || check.FECs == 0 {
		t.Fatalf("check record must log every FEC (%d), got %d entries", check.FECs, len(check.FECLog))
	}
	violating := 0
	for _, d := range check.FECLog {
		if d.Verdict == "violating" {
			violating++
		}
	}
	if violating == 0 || violating != len(check.Witnesses) {
		t.Fatalf("%d violating FECs vs %d witnesses", violating, len(check.Witnesses))
	}
	// The witnesses are the packets stdout printed.
	for _, w := range check.Witnesses {
		if !strings.Contains(stdout, w.Packet) {
			t.Fatalf("ledger witness %q not in stdout:\n%s", w.Packet, stdout)
		}
	}
	if fix.Verified == nil || !*fix.Verified || len(fix.Actions) == 0 {
		t.Fatalf("fix record must carry the verified plan: %+v", fix)
	}
	if check.WallNS <= 0 || fix.WallNS <= 0 {
		t.Fatal("wall time not stamped")
	}
}

// TestCLIExperimentsSmoke runs the experiments binary on the tiniest
// subset to keep the tool honest.
func TestCLIExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build; skipped in -short mode")
	}
	bin := buildTool(t, "jinjing-experiments")
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	out, err := exec.Command(bin, "-figures", "t5", "-json", jsonPath).CombinedOutput()
	if err != nil {
		t.Fatalf("experiments t5: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Table 5") {
		t.Fatalf("missing Table 5 header:\n%s", out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("-json report not written: %v", err)
	}
	var report struct {
		Table5 []struct {
			Size       string `json:"size"`
			Experiment string `json:"experiment"`
			Lines      int    `json:"lines"`
		} `json:"table5"`
		Metrics *struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("bad -json report: %v\n%s", err, data)
	}
	if len(report.Table5) == 0 {
		t.Fatalf("empty table5 in report:\n%s", data)
	}
	if report.Table5[0].Size != "small" || report.Table5[0].Lines <= 0 {
		t.Fatalf("report row malformed: %+v", report.Table5[0])
	}
	// -json embeds the run's final metrics snapshot (t5 only parses LAI
	// programs, so the registry may be sparse — but the key must exist).
	if report.Metrics == nil {
		t.Fatalf("-json report missing the metrics snapshot:\n%s", data)
	}

	// An unknown figure name — a typo, or a study this tool no longer
	// carries — is a usage error that names the valid set, not a silent
	// empty run.
	for _, name := range []string{"4e", "shard"} {
		cmd := exec.Command(bin, "-figures", "t5,"+name)
		out, err := cmd.CombinedOutput()
		if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 2 {
			t.Fatalf("-figures t5,%s: want exit 2, got %v\n%s", name, err, out)
		}
		if !strings.Contains(string(out), `"`+name+`"`) || !strings.Contains(string(out), "4a,4b,4c,4d,t5") {
			t.Fatalf("-figures t5,%s: error does not name the figure and the valid set:\n%s", name, out)
		}
		if strings.Contains(string(out), "Table 5") {
			t.Fatalf("-figures t5,%s ran a figure before rejecting the list:\n%s", name, out)
		}
	}
}

// TestCLIConfigsIngestion runs the jinjing binary against a directory of
// IOS-style configs plus a cable plan (the §7 Scenario 2 cell), checking
// a bad relocation expressed as an inline-ACL LAI program.
func TestCLIConfigsIngestion(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build; skipped in -short mode")
	}
	jinjingBin := buildTool(t, "jinjing")
	dir := t.TempDir()

	files := map[string]string{
		"g.cfg": `hostname G
ip access-list extended PROTECT
  deny ip any 10.2.0.0 0.0.255.255
  permit ip any any
interface up
  ip access-group PROTECT in
interface d1
interface d2
ip route 10.1.0.0 255.255.0.0 d1
ip route 10.2.0.0 255.255.0.0 d2
ip route 8.0.0.0 255.0.0.0 up
`,
		"r1.cfg": `hostname R1
interface u
interface h
ip route 10.1.0.0 255.255.0.0 h
ip route 10.2.0.0 255.255.0.0 u
ip route 8.0.0.0 255.0.0.0 u
`,
		"r2.cfg": `hostname R2
interface u
interface h
ip route 10.2.0.0 255.255.0.0 h
ip route 10.1.0.0 255.255.0.0 u
ip route 8.0.0.0 255.0.0.0 u
`,
		"links.json": `[
  {"from": "G:d1", "to": "R1:u"}, {"from": "R1:u", "to": "G:d1"},
  {"from": "G:d2", "to": "R2:u"}, {"from": "R2:u", "to": "G:d2"}
]`,
		"relocate.lai": `scope G:*, R1:*, R2:*
entry G:up, R1:h, R2:h
allow G:up-in, G:d1-out, G:d2-out
acl moved { deny dst 10.2.0.0/16, permit all }
modify G:up to permit-all
modify G:d1-out to acl moved
modify G:d2-out to acl moved
check
fix
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := exec.Command(jinjingBin,
		"-configs", dir,
		"-links", filepath.Join(dir, "links.json"),
		"-program", filepath.Join(dir, "relocate.lai"),
		"-emit-ios",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("jinjing -configs failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "INCONSISTENT") {
		t.Fatalf("relocation side effect not reported:\n%s", out)
	}
	if !strings.Contains(string(out), "verified=true") {
		t.Fatalf("fix not verified:\n%s", out)
	}
	if !strings.Contains(string(out), "ip access-list extended JINJING-") {
		t.Fatalf("-emit-ios produced no IOS output:\n%s", out)
	}
}

// TestCLIGenerateOverlapBound feeds generate a rule set whose overlap
// field outgrows the per-row bound (two single-group ACLs of 66 rules on
// orthogonal fields, crossed by one AEC): the CLI must exit with its
// error status and one diagnostic line, not a stack trace.
func TestCLIGenerateOverlapBound(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI run builds binaries; skipped in -short mode")
	}
	jinjingBin := buildTool(t, "jinjing")
	dir := t.TempDir()

	net := papernet.Build()
	var srcs, ports []string
	for i := 0; i < 66; i++ {
		srcs = append(srcs, "deny src 10.0."+strconv.Itoa(i)+".0/24")
		ports = append(ports, "deny dport "+strconv.Itoa(1000+2*i))
	}
	for id, rules := range map[string][]string{"A:1": srcs, "C:1": ports} {
		iface, err := net.LookupInterface(id)
		if err != nil {
			t.Fatal(err)
		}
		a, err := jinjing.ParseACL(strings.Join(rules, ", ") + ", permit all")
		if err != nil {
			t.Fatal(err)
		}
		iface.SetACL(jinjing.In, a)
	}
	data, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	topoPath := filepath.Join(dir, "net.json")
	progPath := filepath.Join(dir, "generate.lai")
	prog := "scope A:*, B:*, C:*, D:*\nentry A:1\nallow C:1, C:2, D:1\nmodify A:1 to permit-all\ngenerate\n"
	for path, content := range map[string][]byte{topoPath: data, progPath: []byte(prog)} {
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cmd := exec.Command(jinjingBin, "-topo", topoPath, "-program", progPath)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("want exit status 2, got %v\nstderr:\n%s", err, stderr.String())
	}
	msg := stderr.String()
	if !strings.HasPrefix(msg, "jinjing: core: generate: the overlap field of AEC ") || !strings.Contains(msg, "4096") {
		t.Fatalf("stderr does not carry the structured error:\n%s", msg)
	}
	if strings.Contains(msg, "goroutine ") || strings.Contains(msg, "panic") || strings.Count(msg, "\n") != 1 {
		t.Fatalf("stderr reads like a crash, not a diagnostic:\n%s", msg)
	}
	if stdout.Len() != 0 {
		t.Fatalf("no plan must be printed:\n%s", stdout.String())
	}
}
