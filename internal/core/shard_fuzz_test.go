package core_test

import (
	"math/rand"
	"testing"

	"jinjing/internal/core"
	"jinjing/internal/netgen"
)

// TestFuzzShardAgreement is the shard-determinism lane: for every
// random case, the sharded pipeline must reproduce the unsharded
// engine's check signature — verdict, completeness, counterexample
// packets, violating classes and divergent paths, unknowns — along
// with SolvedFECs and the FEC count, across Shards ∈ {1, 2, 8} ×
// Workers ∈ {1, 4} and all three backend settings. A warm sharded
// engine (shared VerdictCache, UpdateAfter per edit) must additionally
// agree with a fresh unsharded cold engine at every step of an edit
// sequence, and must actually replay verdicts — sharding bounds
// memory, it must not silently disable incrementality.
func TestFuzzShardAgreement(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 10
	}
	r := rand.New(rand.NewSource(314159))
	inconsistent := 0
	var warmHits int64
	for iter := 0; iter < cases; iter++ {
		before, scope, nPref := fuzzNet(r, true)
		after := before.Clone()
		fuzzEdit(r, after, nPref, true)

		opts := core.DefaultOptions()
		opts.FindAllViolations = iter%2 == 0
		opts.UseDifferential = iter%3 != 0
		opts.UseTournament = iter%4 != 0
		switch iter % 3 {
		case 0:
			opts.Backend = core.BackendAuto
		case 1:
			opts.Backend = core.BackendSAT
		case 2:
			opts.Backend = core.BackendPset
		}

		// The unsharded engine is the reference (Shards=1 and Shards=0
		// both mean "off"; the golden CLI test pins Shards=1 too).
		base := core.New(before, after, scope, opts).Check()
		want := checkSignature(base)
		if !base.Consistent {
			inconsistent++
		}

		for _, shards := range []int{2, 8} {
			for _, workers := range []int{1, 4} {
				o := opts
				o.Shards = shards
				res := checkWorkers(core.New(before, after, scope, o), workers)
				if got := checkSignature(res); got != want {
					t.Fatalf("case %d: Shards=%d Workers=%d diverged\nsharded:\n%s\nunsharded:\n%s",
						iter, shards, workers, got, want)
				}
				if res.SolvedFECs != base.SolvedFECs {
					t.Fatalf("case %d: Shards=%d Workers=%d SolvedFECs=%d, unsharded=%d",
						iter, shards, workers, res.SolvedFECs, base.SolvedFECs)
				}
				if res.FECs != base.FECs {
					t.Fatalf("case %d: Shards=%d Workers=%d FECs=%d, unsharded=%d",
						iter, shards, workers, res.FECs, base.FECs)
				}
				// Re-check on the same engine: sharded sessions release
				// per-shard formulas, so the second call must rebuild and
				// still agree byte for byte.
				warm := core.New(before, after, scope, o)
				checkWorkers(warm, workers)
				if got := checkSignature(warm.Check()); got != want {
					t.Fatalf("case %d: Shards=%d warm re-check diverged\ngot:\n%s\nwant:\n%s",
						iter, shards, got, want)
				}
			}
		}
	}
	if inconsistent == 0 {
		t.Fatal("fuzz generator produced no inconsistent case; edits too weak to exercise violations")
	}

	// Warm/incremental leg: a sharded engine with a verdict cache walks
	// an edit sequence; at every step it must match a fresh unsharded
	// cold engine.
	steps := 4
	warmCases := 20
	if testing.Short() {
		warmCases = 5
	}
	for iter := 0; iter < warmCases; iter++ {
		before, scope, nPref := fuzzNet(r, true)
		coldOpts := core.DefaultOptions()
		coldOpts.FindAllViolations = iter%2 == 0
		warmOpts := coldOpts
		warmOpts.Shards = 2 + 6*(iter%2) // 2 or 8
		warmOpts.Verdicts = core.NewVerdictCache()

		warm := core.New(before, before.Clone(), scope, warmOpts)
		checkWorkers(warm, 1+3*(iter%2)) // 1 or 4

		cur := before
		for step := 0; step < steps; step++ {
			next := cur.Clone()
			fuzzEdit(r, next, nPref, true)
			cur = next

			cold := core.New(before, cur, scope, coldOpts).Check()
			want := checkSignature(cold)

			warm.UpdateAfter(cur)
			res := checkWorkers(warm, 1+3*(iter%2))
			if got := checkSignature(res); got != want {
				t.Fatalf("warm case %d step %d: sharded warm diverged\nwarm:\n%s\ncold:\n%s",
					iter, step, got, want)
			}
			if res.SolvedFECs != cold.SolvedFECs {
				t.Fatalf("warm case %d step %d: SolvedFECs=%d, cold=%d",
					iter, step, res.SolvedFECs, cold.SolvedFECs)
			}
			warmHits += res.Stats.FECCacheHits
		}
	}
	if warmHits == 0 {
		t.Fatal("no sharded warm step ever replayed a verdict; sharding disabled the cache")
	}
	t.Logf("%d cases (%d inconsistent), %d warm replays", cases, inconsistent, warmHits)
}

// TestShardCheckWAN pins the sharded pipeline against the unsharded one
// on a deterministic generated WAN — a fixed, non-fuzz instance with a
// real violation, including the memory telemetry fields.
func TestShardCheckWAN(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 5))
	after := w.Perturb(5, 10)

	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	base := core.New(w.Net, after, w.Scope, opts).Check()
	want := checkSignature(base)

	for _, shards := range []int{2, 4, 16} {
		o := opts
		o.Shards = shards
		res := checkWorkers(core.New(w.Net, after, w.Scope, o), 2)
		if got := checkSignature(res); got != want {
			t.Fatalf("Shards=%d diverged\nsharded:\n%s\nunsharded:\n%s", shards, got, want)
		}
		if res.SolvedFECs != base.SolvedFECs || res.FECs != base.FECs {
			t.Fatalf("Shards=%d counts (%d solved / %d FECs) != unsharded (%d / %d)",
				shards, res.SolvedFECs, res.FECs, base.SolvedFECs, base.FECs)
		}
		if res.PeakHeapBytes <= 0 {
			t.Fatalf("Shards=%d: PeakHeapBytes=%d, want a positive sample", shards, res.PeakHeapBytes)
		}
	}
	if base.PeakHeapBytes != 0 {
		t.Fatalf("unsharded plain check sampled the heap (%d); the hot path must not pay for ReadMemStats", base.PeakHeapBytes)
	}
}
