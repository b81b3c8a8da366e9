package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

// These tests pin the durable-warm-state contract: exporting a bound
// verdict cache and importing it into a freshly built engine (the
// restart scenario — new pointers, same content) must replay verdicts
// byte-identically to a cold run, and an import against a different
// configuration must be refused, degrading to a cold start rather than
// ever serving another configuration's verdicts.

func TestSnapshotRestoreWarmEqualsCold(t *testing.T) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	opts := core.DefaultOptions()
	opts.UseDifferential = false
	opts.FindAllViolations = true
	opts.Verdicts = core.NewVerdictCache()

	warm := core.New(before, after, papernet.Scope(), opts)
	warm.Check()
	edited := editAfter(t, after, "C:1", papernet.Traffic(6))
	warm.UpdateAfter(edited)
	warm.Check()

	snap := warm.ExportVerdicts()
	if snap == nil {
		t.Fatal("ExportVerdicts returned nil for a bound cache")
	}
	if snap.NumEntries() == 0 {
		t.Fatal("exported snapshot holds no entries")
	}

	// "Restart": rebuild everything from cloned inputs — no pointer in
	// common with the exporting engine — and import.
	before2 := before.Clone()
	after2 := edited.Clone()
	opts2 := core.DefaultOptions()
	opts2.UseDifferential = false
	opts2.FindAllViolations = true
	opts2.Verdicts = core.NewVerdictCache()
	restored := core.New(before2, after2, papernet.Scope(), opts2)
	if err := restored.ImportVerdicts(snap); err != nil {
		t.Fatalf("ImportVerdicts: %v", err)
	}

	got := restored.Check()
	if got.Stats.FECCacheHits == 0 {
		t.Fatal("restored engine replayed no verdicts")
	}
	if got.Stats.FECCacheMisses != 0 {
		t.Fatalf("restored engine missed %d FECs on a fully snapshotted generation", got.Stats.FECCacheMisses)
	}

	coldOpts := core.DefaultOptions()
	coldOpts.UseDifferential = false
	coldOpts.FindAllViolations = true
	cold := core.New(before.Clone(), edited.Clone(), papernet.Scope(), coldOpts).Check()
	if a, b := checkSignature(got), checkSignature(cold); a != b {
		t.Fatalf("restored result diverged from cold:\nrestored:\n%s\ncold:\n%s", a, b)
	}
	if got.SolvedFECs != cold.SolvedFECs {
		t.Fatalf("restored SolvedFECs=%d, cold=%d", got.SolvedFECs, cold.SolvedFECs)
	}
}

func TestSnapshotExportNothingToExport(t *testing.T) {
	before := papernet.Build()
	after := runningExampleUpdate(before)

	// No cache installed.
	e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
	if snap := e.ExportVerdicts(); snap != nil {
		t.Fatalf("exported a snapshot with no cache installed: %+v", snap)
	}

	// Cache installed but never bound (no check ran).
	opts := core.DefaultOptions()
	opts.Verdicts = core.NewVerdictCache()
	e2 := core.New(before, after, papernet.Scope(), opts)
	if snap := e2.ExportVerdicts(); snap != nil {
		t.Fatalf("exported a snapshot from an unbound cache: %+v", snap)
	}
}

func TestSnapshotImportRefusesMismatch(t *testing.T) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	opts := core.DefaultOptions()
	opts.Verdicts = core.NewVerdictCache()
	warm := core.New(before, after, papernet.Scope(), opts)
	warm.Check()
	snap := warm.ExportVerdicts()
	if snap == nil {
		t.Fatal("no snapshot to test with")
	}

	// A different Before snapshot digests differently: refuse.
	otherBefore := editAfter(t, before, "A:1", papernet.Traffic(3))
	o2 := core.DefaultOptions()
	o2.Verdicts = core.NewVerdictCache()
	other := core.New(otherBefore, after.Clone(), papernet.Scope(), o2)
	if err := other.ImportVerdicts(snap); err == nil {
		t.Fatal("import accepted a snapshot from a different Before configuration")
	}
	// The refusal must leave a usable cold cache, not a poisoned one.
	res := other.Check()
	if res.Stats.FECCacheHits != 0 {
		t.Fatalf("post-refusal check replayed %d verdicts from a refused snapshot", res.Stats.FECCacheHits)
	}
	if res.Stats.FECCacheMisses == 0 {
		t.Fatal("post-refusal check consulted no cache at all")
	}

	// A tampered FEC count: refuse.
	bad := *snap
	bad.NFEC++
	o3 := core.DefaultOptions()
	o3.Verdicts = core.NewVerdictCache()
	same := core.New(before.Clone(), after.Clone(), papernet.Scope(), o3)
	if err := same.ImportVerdicts(&bad); err == nil {
		t.Fatal("import accepted a snapshot with a mismatched FEC count")
	}

	// A tampered config digest: refuse.
	bad2 := *snap
	bad2.Config = "0000000000000000"
	if err := same.ImportVerdicts(&bad2); err == nil {
		t.Fatal("import accepted a snapshot with a mismatched config digest")
	}

	// Same ACLs, paths and FEC count, different classes: with class 7
	// routed as 7.0.0.0/9, C:1's narrowed deny still blocks all of it, so
	// the FEC a /8 route leaves violating is consistent. Refuse, and
	// check as a cold run does.
	narrowC1 := func(n *topo.Network) *topo.Network {
		out := n.Clone()
		c1, err := out.LookupInterface("C:1")
		if err != nil {
			t.Fatal(err)
		}
		c1.SetACL(topo.In, acl.MustParse("deny dst 7.0.0.0/9, permit all"))
		return out
	}
	unfiltered := func(vc *core.VerdictCache) core.Options {
		o := core.DefaultOptions()
		o.UseDifferential = false
		o.FindAllViolations = true
		o.Verdicts = vc
		return o
	}
	wide := core.New(before, narrowC1(before), papernet.Scope(), unfiltered(core.NewVerdictCache()))
	if wide.Check().Consistent {
		t.Fatal("C:1's narrowed deny must leave 7.128.0.0/9 violating")
	}
	narrow := papernet.Build()
	for _, d := range narrow.Devices {
		for k := range d.FIB {
			if d.FIB[k].Prefix == papernet.Traffic(7) {
				d.FIB[k].Prefix = header.Prefix{Addr: 7 << 24, Len: 9}
			}
		}
	}
	coldEngine := core.New(narrow, narrowC1(narrow), papernet.Scope(), unfiltered(nil))
	cold := coldEngine.Check()
	if !cold.Consistent || coldEngine.NumFECs() != wide.NumFECs() {
		t.Fatalf("the /9 network must be consistent with %d FECs: %s", wide.NumFECs(), checkSignature(cold))
	}
	restored := core.New(narrow, narrowC1(narrow), papernet.Scope(), unfiltered(core.NewVerdictCache()))
	if err := restored.ImportVerdicts(wide.ExportVerdicts()); err == nil {
		t.Fatal("import accepted a snapshot taken over different FEC classes")
	}
	res = restored.Check()
	if got, want := checkSignature(res), checkSignature(cold); got != want || res.Stats.FECCacheHits != 0 {
		t.Fatalf("post-refusal check replayed %d verdicts:\n%s\ncold:\n%s", res.Stats.FECCacheHits, got, want)
	}
}

func TestSnapshotExportDeterministic(t *testing.T) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.Verdicts = core.NewVerdictCache()
	warm := core.New(before, after, papernet.Scope(), opts)
	warm.Check()

	a, b := warm.ExportVerdicts(), warm.ExportVerdicts()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two exports of the same cache differ")
	}

	// Import → export round trip preserves the value exactly.
	o2 := core.DefaultOptions()
	o2.FindAllViolations = true
	o2.Verdicts = core.NewVerdictCache()
	restored := core.New(before.Clone(), after.Clone(), papernet.Scope(), o2)
	if err := restored.ImportVerdicts(a); err != nil {
		t.Fatalf("ImportVerdicts: %v", err)
	}
	c := restored.ExportVerdicts()
	if !reflect.DeepEqual(a, c) {
		t.Fatal("import → export round trip changed the snapshot")
	}
}

// TestFuzzSnapshotEditSequences cross-checks the snapshot round trip
// against the PR 4 incremental fuzz harness: random networks undergo
// random edit sequences, and at every step the warm engine's cache is
// exported, imported into a freshly built engine (cloned inputs — the
// restart scenario), and re-checked; the restored engine must agree
// with a fresh cold check byte for byte, and the restored cache must
// actually replay verdicts.
func TestFuzzSnapshotEditSequences(t *testing.T) {
	cases, steps := 14, 3
	if testing.Short() {
		cases = 5
	}
	r := rand.New(rand.NewSource(19391103))
	var totalHits int64
	for iter := 0; iter < cases; iter++ {
		before, scope, nPref := fuzzNet(r, true)

		warmOpts := core.DefaultOptions()
		warmOpts.FindAllViolations = iter%2 == 0
		warmOpts.UseDifferential = iter%3 != 0
		coldOpts := warmOpts
		warmOpts.Verdicts = core.NewVerdictCache()

		warm := core.New(before, before.Clone(), scope, warmOpts)
		warm.Check()

		cur := before
		for step := 0; step < steps; step++ {
			next := cur.Clone()
			fuzzEdit(r, next, nPref, true)
			cur = next

			warm.UpdateAfter(cur)
			warm.Check()

			snap := warm.ExportVerdicts()
			if snap == nil {
				t.Fatalf("case %d step %d: nothing exportable from a checked engine", iter, step)
			}

			cold := core.New(before, cur, scope, coldOpts).Check()
			want := checkSignature(cold)

			resOpts := coldOpts
			resOpts.Verdicts = core.NewVerdictCache()
			restored := core.New(before.Clone(), cur.Clone(), scope, resOpts)
			if err := restored.ImportVerdicts(snap); err != nil {
				t.Fatalf("case %d step %d: import: %v", iter, step, err)
			}
			res := restored.Check()
			if got := checkSignature(res); got != want {
				t.Fatalf("case %d step %d: restored engine diverged\nrestored:\n%s\ncold:\n%s",
					iter, step, got, want)
			}
			if res.SolvedFECs != cold.SolvedFECs {
				t.Fatalf("case %d step %d: restored SolvedFECs=%d, cold=%d",
					iter, step, res.SolvedFECs, cold.SolvedFECs)
			}
			totalHits += res.Stats.FECCacheHits
		}
	}
	if totalHits == 0 {
		t.Fatal("no restored engine ever replayed a verdict; the snapshot is dead weight")
	}
	t.Logf("%d cases x %d steps: %d replayed verdicts after restore", cases, steps, totalHits)
}
