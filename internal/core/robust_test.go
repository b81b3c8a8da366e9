package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"jinjing/internal/core"
	"jinjing/internal/faultinject"
	"jinjing/internal/lai"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/sat"
	"jinjing/internal/topo"
)

// This file is the fault lane: every test injects failures through
// internal/faultinject and asserts the pipeline degrades exactly as
// documented — retries recover, Unknown verdicts surface instead of
// being silently cached, crashed fix workers hand their jobs to a
// sequential re-run, and a fully collapsed pool still yields the clean
// plan. All tests are named TestFault* so `make faults` can select the
// lane; none may call t.Parallel (the faultinject registry is
// process-global).

// findAllOpts is the fault lane's baseline check configuration: the
// running example with every violation reported, so partial results have
// something to be partial about.
func findAllOpts(t *testing.T) core.Options {
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	return opts
}

// eachFaultMode runs fn with findAllOpts at one worker and at two. Check
// runs on the calling goroutine whatever the count, so both arms must
// degrade identically; generate fans its AECs out at two.
func eachFaultMode(t *testing.T, fn func(t *testing.T, opts core.Options)) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer faultinject.Reset()
			opts := findAllOpts(t)
			opts.Workers = workers
			fn(t, opts)
		})
	}
}

// generateSignature runs the §5 migration under opts and renders what it
// produced: every synthesized ACL by target binding, and the verdict of
// its verification check.
func generateSignature(t *testing.T, opts core.Options) string {
	t.Helper()
	e, sources := migrationEngine(opts)
	res, err := e.Generate(sources)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(res.ACLs))
	for id := range res.ACLs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%s: %s\n", id, res.ACLs[id])
	}
	fmt.Fprintf(&b, "verified=%v\n", res.Verified)
	return b.String()
}

// TestFaultTimeoutRetryRecovers injects solver timeouts into the first
// AEC queries of generate, whose queries are the ones with a retry loop
// (the check runs no solver): the retry path must re-run them and the
// generated ACLs must equal the clean run's.
func TestFaultTimeoutRetryRecovers(t *testing.T) {
	defer faultinject.Reset()
	want := generateSignature(t, core.DefaultOptions())

	faultinject.Reset() // the schedule below numbers GenerateAEC hits from here
	opts := core.DefaultOptions()
	_, _, m := obsHarness(&opts)
	// The first two hits: a query decided before its search starts
	// ignores an interrupt, so one of them reaches a search.
	faultinject.Schedule(faultinject.GenerateAEC, faultinject.Timeout, 1, 2)
	if got := generateSignature(t, opts); got != want {
		t.Fatalf("timeout-retried generate diverged:\n%s\nwant:\n%s", got, want)
	}
	if n := m.Snapshot().Counters["retry.count"]; n < 1 {
		t.Fatalf("retry.count = %d, want >= 1", n)
	}
}

// TestFaultTransientRetryRecovers is the same contract for a transient
// fault: one retryable failure, same generated ACLs.
func TestFaultTransientRetryRecovers(t *testing.T) {
	defer faultinject.Reset()
	want := generateSignature(t, core.DefaultOptions())

	faultinject.Reset() // the schedule below numbers GenerateAEC hits from here
	opts := core.DefaultOptions()
	_, _, m := obsHarness(&opts)
	faultinject.Schedule(faultinject.GenerateAEC, faultinject.Transient, 1)
	if got := generateSignature(t, opts); got != want {
		t.Fatalf("transient-retried generate diverged:\n%s\nwant:\n%s", got, want)
	}
	if n := m.Snapshot().Counters["retry.count"]; n < 1 {
		t.Fatalf("retry.count = %d, want >= 1", n)
	}
}

// TestFaultTransientExhaustsRetries pins the degradation side: with a
// retry allowance of two, persistent transient faults retry every AEC
// query twice and then leave it Unknown, so generate refuses with every
// blocked AEC named, ascending.
func TestFaultTransientExhaustsRetries(t *testing.T) {
	defer faultinject.Reset()
	opts := core.DefaultOptions()
	opts.MaxRetries = 2
	_, _, m := obsHarness(&opts)
	faultinject.Schedule(faultinject.GenerateAEC, faultinject.Transient)
	e, sources := migrationEngine(opts)
	res, err := e.Generate(sources)
	var uv *core.ErrUnknownVerdicts
	if res != nil || !errors.As(err, &uv) || len(uv.AECs) == 0 {
		t.Fatalf("persistent transient faults must block generate: res=%v err=%v", res, err)
	}
	for i := 1; i < len(uv.AECs); i++ {
		if uv.AECs[i-1] >= uv.AECs[i] {
			t.Fatalf("blocking AECs not ascending: %v", uv.AECs)
		}
	}
	attempts := faultinject.Hits(faultinject.GenerateAEC)
	if n := m.Snapshot().Counters["retry.count"]; attempts == 0 || n != attempts*2/3 {
		t.Fatalf("retry.count = %d for %d attempts, want two retries per query", n, attempts)
	}
}

// TestFaultCheckTransientMarksUnknown pins the check's side of a transient
// fault: the check has no retry, so every FEC its set algebra would
// decide is Unknown("transient fault"), reported ascending, and the check
// is honest about being incomplete.
func TestFaultCheckTransientMarksUnknown(t *testing.T) {
	defer faultinject.Reset()
	opts := findAllOpts(t)
	_, _, m := obsHarness(&opts)
	faultinject.Schedule(faultinject.CheckSolve, faultinject.Transient)
	res := newRunningEngine(t, opts).Check()
	if res.Complete || len(res.Unknown) == 0 {
		t.Fatalf("persistent transient faults must leave the check incomplete: %+v", res.Unknown)
	}
	for i, u := range res.Unknown {
		if u.Reason != "transient fault" {
			t.Fatalf("Unknown[%d].Reason = %q, want \"transient fault\"", i, u.Reason)
		}
		if i > 0 && res.Unknown[i-1].FEC >= u.FEC {
			t.Fatalf("Unknown not ascending: %v", res.Unknown)
		}
	}
	if n := m.Snapshot().Counters["fec.unknown"]; n != int64(len(res.Unknown)) {
		t.Fatalf("fec.unknown counter = %d, want %d", n, len(res.Unknown))
	}
}

// TestFaultUnknownNeverCachedAndRepaired is the verdict-cache soundness
// regression: a run whose every FEC decision is interrupted finds no
// violation (the dangerous consistent-but-incomplete case), and none of
// its Unknown FECs may be stored in the VerdictCache — the next
// unrestricted call on the same warm engine must decide them and land on
// the cold-run answer, violations and all.
func TestFaultUnknownNeverCachedAndRepaired(t *testing.T) {
	eachFaultMode(t, func(t *testing.T, opts core.Options) {
		opts.MaxRetries = 0
		opts.Verdicts = core.NewVerdictCache()
		_, _, m := obsHarness(&opts)

		cancel := faultinject.Schedule(faultinject.CheckSolve, faultinject.Timeout)
		warm := newRunningEngine(t, opts)
		res1 := warm.Check()
		if res1.Complete {
			t.Fatal("every query timed out, yet the check claims completeness")
		}
		if !res1.Consistent {
			t.Fatalf("no query got a verdict, yet violations appeared: %v", res1.Violations)
		}
		if len(res1.Unknown) == 0 {
			t.Fatal("no Unknown FECs reported")
		}
		for _, u := range res1.Unknown {
			if u.Reason != sat.ReasonInterrupted {
				t.Fatalf("Unknown reason = %q, want %q", u.Reason, sat.ReasonInterrupted)
			}
		}
		if n := m.Snapshot().Counters["fec.unknown"]; n != int64(len(res1.Unknown)) {
			t.Fatalf("fec.unknown counter = %d, want %d", n, len(res1.Unknown))
		}

		// Lift the faults; the warm engine must now repair itself. If any
		// Unknown had been cached as "consistent", this re-check would
		// replay it and miss the running example's violations.
		cancel()
		res2 := warm.Check()
		cold := newRunningEngine(t, findAllOpts(t)).Check()
		if got, want := checkSignature(res2), checkSignature(cold); got != want {
			t.Fatalf("post-fault re-check diverged from cold run:\n%s\nwant:\n%s", got, want)
		}
		if res2.Consistent {
			t.Fatal("running example is inconsistent; a cached Unknown masked it")
		}
		if res2.SolvedFECs != cold.SolvedFECs {
			t.Fatalf("warm repair SolvedFECs=%d, cold=%d", res2.SolvedFECs, cold.SolvedFECs)
		}
	})
}

// TestFaultDeadlineCancelsPromptly wedges generate's solver (every AEC
// query times out, retries effectively unbounded) and relies on
// Options.Deadline to cut the call loose: generate must return promptly
// and refuse, naming the AECs it never decided.
func TestFaultDeadlineCancelsPromptly(t *testing.T) {
	eachFaultMode(t, func(t *testing.T, opts core.Options) {
		opts.MaxRetries = 1 << 30
		opts.Deadline = 50 * time.Millisecond
		faultinject.Schedule(faultinject.GenerateAEC, faultinject.Timeout)

		start := time.Now()
		e, sources := migrationEngine(opts)
		res, err := e.Generate(sources)
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("deadline did not cut the wedged call loose: took %v", elapsed)
		}
		var uv *core.ErrUnknownVerdicts
		if res != nil || !errors.As(err, &uv) || len(uv.AECs) == 0 {
			t.Fatalf("a deadline-cancelled generate must refuse: res=%v err=%v", res, err)
		}
	})
}

// TestFaultCancelledContextMarksUnknown runs a check under an
// already-cancelled context: it must return with every FEC
// Unknown("cancelled") and, after the faults are lifted, the same warm
// engine must repair to the cold answer — cancelled verdicts are never
// cached either.
func TestFaultCancelledContextMarksUnknown(t *testing.T) {
	eachFaultMode(t, func(t *testing.T, opts core.Options) {
		opts.MaxRetries = 1 << 30
		opts.Verdicts = core.NewVerdictCache()
		cancelFault := faultinject.Schedule(faultinject.CheckSolve, faultinject.Timeout)

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		warm := newRunningEngine(t, opts)
		res := warm.CheckContext(ctx)
		if res.Complete {
			t.Fatal("a cancelled check cannot be complete")
		}
		// The dead call resolved nothing: every FEC of the scope is
		// Unknown.
		if len(res.Unknown) != res.FECs {
			t.Fatalf("%d of %d FECs Unknown: %v", len(res.Unknown), res.FECs, res.Unknown)
		}
		for _, u := range res.Unknown {
			if u.Reason != "cancelled" {
				t.Fatalf("Unknown reason = %q, want \"cancelled\"", u.Reason)
			}
		}

		cancelFault()
		res2 := warm.Check()
		cold := newRunningEngine(t, findAllOpts(t)).Check()
		if got, want := checkSignature(res2), checkSignature(cold); got != want {
			t.Fatalf("post-cancel re-check diverged from cold run:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestFaultWorkerPanicRecovered crashes the check's first FEC decision. Check decides on the calling goroutine at every worker
// count, which has nobody to hand the job to — the panic surfaces
// instead of being swallowed, and nothing counts as recovered.
func TestFaultWorkerPanicRecovered(t *testing.T) {
	eachFaultMode(t, func(t *testing.T, opts core.Options) {
		_, _, m := obsHarness(&opts)
		faultinject.Schedule(faultinject.CheckSolve, faultinject.Panic, 1)
		e := newRunningEngine(t, opts)
		defer func() {
			if recover() == nil {
				t.Fatal("check swallowed the injected panic")
			}
			if n := m.Snapshot().Counters["worker.panic.recovered"]; n != 0 {
				t.Fatalf("worker.panic.recovered = %d without a pool", n)
			}
		}()
		e.Check()
	})
}

// TestFaultPoolCollapseSequentialFallback crashes every job a fix pool
// worker picks up (the every-hit ParallelJob schedule; the sequential
// re-run does not fire it) and asserts the fallback finishes the fix with
// the clean one-worker plan, every violating FEC's seek having died
// exactly once. With one worker there is no pool: nothing fires, nothing
// is recovered, same plan.
func TestFaultPoolCollapseSequentialFallback(t *testing.T) {
	clean, err := newRunningEngine(t, core.DefaultOptions()).Fix()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(clean.Actions)
	all := core.DefaultOptions()
	all.FindAllViolations = true
	violating := int64(len(newRunningEngine(t, all).Check().Violations))
	if violating < 2 {
		t.Fatalf("%d violating FECs: the pool needs two jobs to be a pool", violating)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer faultinject.Reset()
			opts := core.DefaultOptions()
			opts.Workers = workers
			_, _, m := obsHarness(&opts)
			faultinject.Schedule(faultinject.ParallelJob, faultinject.Panic)
			e := newRunningEngine(t, opts)
			res, err := e.Fix()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatalf("collapsed-pool fix must still verify; actions: %v", res.Actions)
			}
			if got := fmt.Sprint(res.Actions); got != want {
				t.Fatalf("collapsed-pool plan differs from the one-worker plan:\n%s\nwant:\n%s", got, want)
			}
			jobs := int64(0)
			if workers > 1 {
				jobs = violating
			}
			if n := m.Snapshot().Counters["worker.panic.recovered"]; n != jobs {
				t.Fatalf("worker.panic.recovered = %d, want %d (every pool job died once)", n, jobs)
			}
		})
	}
}

// TestFaultFixPoolRetriesPanickedJobs crashes one job of fix's generic
// worker pool: the job must be retried sequentially after the pool
// drains and the plan must equal the sequential clean plan.
func TestFaultFixPoolRetriesPanickedJobs(t *testing.T) {
	defer faultinject.Reset()
	sres, err := newRunningEngine(t, core.DefaultOptions()).Fix()
	if err != nil {
		t.Fatal(err)
	}

	opts := core.DefaultOptions()
	opts.Workers = 4
	_, _, m := obsHarness(&opts)
	faultinject.Schedule(faultinject.ParallelJob, faultinject.Panic, 1)
	pres, err := newRunningEngine(t, opts).Fix()
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Verified {
		t.Fatalf("panic-recovered fix must still verify; actions: %v", pres.Actions)
	}
	if len(sres.Actions) != len(pres.Actions) {
		t.Fatalf("plan length differs: clean %d, faulted %d", len(sres.Actions), len(pres.Actions))
	}
	for i := range sres.Actions {
		if sres.Actions[i].String() != pres.Actions[i].String() {
			t.Fatalf("action %d differs: clean %v, faulted %v", i, sres.Actions[i], pres.Actions[i])
		}
	}
	if n := m.Snapshot().Counters["worker.panic.recovered"]; n < 1 {
		t.Fatalf("worker.panic.recovered = %d, want >= 1", n)
	}
}

// TestFaultFixRefusesUnknownVerdicts interrupts every FEC decision of
// fix's check loop: fix must emit no plan at all and name the blocking
// FECs in ascending order.
func TestFaultFixRefusesUnknownVerdicts(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Schedule(faultinject.CheckSolve, faultinject.Timeout)
	res, err := newRunningEngine(t, core.DefaultOptions()).Fix()
	if res != nil {
		t.Fatalf("fix emitted a plan on unknown verdicts: %+v", res)
	}
	var uv *core.ErrUnknownVerdicts
	if !errors.As(err, &uv) {
		t.Fatalf("err = %v, want *ErrUnknownVerdicts", err)
	}
	if uv.Stage != "fix" {
		t.Fatalf("Stage = %q, want \"fix\"", uv.Stage)
	}
	if len(uv.FECs) == 0 {
		t.Fatal("refusal names no blocking FECs")
	}
	for i := 1; i < len(uv.FECs); i++ {
		if uv.FECs[i-1].FEC >= uv.FECs[i].FEC {
			t.Fatalf("blocking FECs not ascending: %v", uv.FECs)
		}
	}
	if !strings.Contains(err.Error(), "raise -timeout") {
		t.Fatalf("refusal does not tell the operator what to do: %v", err)
	}
}

// TestFaultGenerateRefusesUnknownVerdicts is the same contract for
// generate: blocked AEC indices, ascending, no partial plan.
func TestFaultGenerateRefusesUnknownVerdicts(t *testing.T) {
	defer faultinject.Reset()
	opts := core.DefaultOptions()
	opts.MaxRetries = 0
	e, sources := migrationEngine(opts)
	faultinject.Schedule(faultinject.GenerateAEC, faultinject.Timeout)
	res, err := e.Generate(sources)
	if res != nil {
		t.Fatalf("generate emitted a plan on unknown verdicts: %+v", res)
	}
	var uv *core.ErrUnknownVerdicts
	if !errors.As(err, &uv) {
		t.Fatalf("err = %v, want *ErrUnknownVerdicts", err)
	}
	if uv.Stage != "generate" {
		t.Fatalf("Stage = %q, want \"generate\"", uv.Stage)
	}
	if len(uv.AECs) == 0 {
		t.Fatal("refusal names no blocking AECs")
	}
	for i := 1; i < len(uv.AECs); i++ {
		if uv.AECs[i-1] >= uv.AECs[i] {
			t.Fatalf("blocking AECs not ascending: %v", uv.AECs)
		}
	}
}

// TestFaultPsetBailoutMixedRoutes mixes the two routes within one
// generation and one verdict cache: at a budget of eight cubes some FECs'
// flip regions overflow and are split while the rest are decided whole.
// Two warm re-checks follow UpdateAfter: an unchanged snapshot replays
// every mixed verdict and its memoized witness, and a one-rule edit
// re-decides the FECs crossing it. Every check's verdicts and SolvedFECs
// must equal the default budget's, and the warm checks must reach the
// same FECs the same way.
func TestFaultPsetBailoutMixedRoutes(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 2))
	first := w.Perturb(3, 4)
	edited := first.Clone()
	ifc, _ := edited.LookupInterface("edge7:ext")
	ifc.ACL(topo.In).Rules[0].Action = !ifc.ACL(topo.In).Rules[0].Action
	afters := []*topo.Network{first, first.Clone(), edited}
	run := func() (res []*core.CheckResult) {
		opts := core.DefaultOptions()
		opts.UseDifferential = false // every FEC reaches the set algebra
		opts.FindAllViolations = true
		opts.Forensics = true
		opts.Verdicts = core.NewVerdictCache()
		e := core.New(w.Net, first, w.Scope, opts)
		for _, after := range afters {
			e.UpdateAfter(after)
			res = append(res, e.Check())
		}
		return res
	}
	want := run()
	if want[0].Stats.PsetBailout != 0 || want[0].Stats.PsetDecided < 8 || want[0].Consistent {
		t.Fatalf("default budget's first check: want >= 8 verdicts, no split, violations: %+v", want[0].Stats)
	}
	if want[1].Stats.FECCacheHits != want[0].Stats.PsetDecided || want[2].Stats.PsetDecided == 0 {
		t.Fatalf("default budget's re-checks: want a full replay, then re-decisions: %+v, %+v", want[1].Stats, want[2].Stats)
	}

	core.SetCubeBudget(t, 8)
	got := run()
	if got[0].Stats.PsetBailout == 0 || got[0].Stats.PsetDecided == 0 {
		t.Fatalf("at 8 cubes the first check must mix both routes: %+v", got[0].Stats)
	}
	// The mix must reach verdicts of both kinds on the split route.
	splitVerdicts := map[string]bool{}
	for _, f := range got[0].Forensics {
		if f.Route == "pset-split" {
			splitVerdicts[f.Verdict] = true
		}
	}
	if !splitVerdicts["violating"] || !splitVerdicts["consistent"] {
		t.Fatalf("the split route decided only %v", splitVerdicts)
	}
	for g := range got {
		if gs, ws := fecSet(got[g]), fecSet(want[g]); fmt.Sprint(gs) != fmt.Sprint(ws) || got[g].Consistent != want[g].Consistent {
			t.Fatalf("check %d under mixed routes: violating FECs %v, default budget %v", g, gs, ws)
		}
		if got[g].SolvedFECs != want[g].SolvedFECs || !got[g].Complete {
			t.Fatalf("check %d: SolvedFECs %d complete=%v, default budget %d", g, got[g].SolvedFECs, got[g].Complete, want[g].SolvedFECs)
		}
		if g > 0 && (got[g].Stats.FECCacheHits != want[g].Stats.FECCacheHits ||
			got[g].Stats.PsetDecided+got[g].Stats.PsetBailout != want[g].Stats.PsetDecided) {
			t.Fatalf("warm re-check %d stats %+v, default budget %+v", g, got[g].Stats, want[g].Stats)
		}
	}
	// The replay re-reports the first check's witnesses byte for byte.
	if a, b := checkSignature(got[1]), checkSignature(got[0]); a != b {
		t.Fatalf("the replay's witnesses differ from the check it replays:\n%s\nwant:\n%s", a, b)
	}
}

// TestFaultLimitsInertOnHappyPath pins the zero-overhead contract:
// generous limits must not change a single byte of the result, and no
// budget or retry machinery may trigger.
func TestFaultLimitsInertOnHappyPath(t *testing.T) {
	want := checkSignature(newRunningEngine(t, findAllOpts(t)).Check())

	opts := findAllOpts(t)
	opts.Deadline = time.Minute
	opts.PerFECBudget = 1 << 30
	opts.MaxRetries = 3
	_, _, m := obsHarness(&opts)
	if got := checkSignature(newRunningEngine(t, opts).Check()); got != want {
		t.Fatalf("limits changed the sequential result:\n%s\nwant:\n%s", got, want)
	}
	if got := checkSignature(checkWorkers(newRunningEngine(t, opts), 4)); got != want {
		t.Fatalf("limits changed the parallel result:\n%s\nwant:\n%s", got, want)
	}
	snap := m.Snapshot()
	if snap.Counters["budget.exhausted"] != 0 || snap.Counters["retry.count"] != 0 ||
		snap.Counters["fec.unknown"] != 0 {
		t.Fatalf("limit machinery triggered on the happy path: %v", snap.Counters)
	}
}

// TestFaultRunReportsUndecided drives the whole Run pipeline with every
// FEC decision interrupted: the report must print the UNDECIDED line plus
// each undecided FEC, never the consistent line.
func TestFaultRunReportsUndecided(t *testing.T) {
	defer faultinject.Reset()
	src := `
scope A:*, B:*, C:*, D:*
entry A:1
acl A1new { deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, deny dst 6.0.0.0/8, permit all }
modify A:1 to acl A1new
check
`
	resolved, err := lai.Resolve(lai.MustParse(src), papernet.Build(), lai.ResolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	faultinject.Schedule(faultinject.CheckSolve, faultinject.Timeout)
	rep, err := core.RunContext(context.Background(), resolved, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) != 1 || rep.Checks[0].Complete {
		t.Fatalf("check should be incomplete: %+v", rep.Checks)
	}
	var out bytes.Buffer
	rep.Print(&out)
	s := out.String()
	if !strings.Contains(s, "check: UNDECIDED") {
		t.Fatalf("report missing UNDECIDED line:\n%s", s)
	}
	if !strings.Contains(s, "undecided FEC") {
		t.Fatalf("report missing per-FEC undecided lines:\n%s", s)
	}
	if strings.Contains(s, "check: consistent") {
		t.Fatalf("an undecided check must not print as consistent:\n%s", s)
	}
}
