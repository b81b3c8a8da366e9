package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"jinjing/internal/netgen"
)

// TestBenchCheck is the `make bench-check` regression gate: it reruns
// the incremental, shard, and backend figures at the medium size and
// compares their machine-independent ratios against the committed
// BENCH_*.json baselines. A fresh run regressing more than 25% on a
// speedup (or sharding-overhead) ratio — or losing the
// identical-output invariant — fails.
//
// The gate is opt-in (JINJING_BENCH_CHECK=1): the figures take tens of
// seconds and ratios on loaded laptops are noisy, so it runs in the
// weekly CI lane, not on every push.
func TestBenchCheck(t *testing.T) {
	if os.Getenv("JINJING_BENCH_CHECK") != "1" {
		t.Skip("set JINJING_BENCH_CHECK=1 to run the bench regression gate")
	}
	const tolerance = 0.75 // fresh ratio must stay >= 75% of baseline

	root := repoRoot(t)
	sizes := []netgen.Size{netgen.Medium}

	t.Run("incremental", func(t *testing.T) {
		var baseline struct {
			Incremental []IncrementalRow `json:"incremental"`
		}
		readJSON(t, filepath.Join(root, "BENCH_incremental.json"), &baseline)
		if len(baseline.Incremental) == 0 {
			t.Fatal("baseline has no incremental rows")
		}
		fresh := FigIncrementalCheck(sizes)
		for _, base := range baseline.Incremental {
			if base.Size != netgen.Medium {
				continue
			}
			got := findIncremental(fresh, base.Size, base.EditSite)
			if got == nil {
				t.Errorf("fresh run missing row %s/%s", base.Size, base.EditSite)
				continue
			}
			if !got.Identical {
				t.Errorf("%s/%s: warm and cold outputs diverged", base.Size, base.EditSite)
			}
			if got.Speedup < base.Speedup*tolerance {
				t.Errorf("%s/%s: warm speedup regressed >25%%: baseline %.2fx, fresh %.2fx",
					base.Size, base.EditSite, base.Speedup, got.Speedup)
			}
			t.Logf("%s/%s: speedup baseline %.2fx, fresh %.2fx (hit rate %.2f)",
				base.Size, base.EditSite, base.Speedup, got.Speedup, got.HitRate)
		}
	})

	t.Run("shard", func(t *testing.T) {
		var baseline struct {
			Shard []ShardRow `json:"shard"`
		}
		readJSON(t, filepath.Join(root, "BENCH_shard.json"), &baseline)
		if len(baseline.Shard) == 0 {
			t.Fatal("baseline has no shard rows")
		}
		fresh := FigShardCheck(sizes, []int{1, 4, 16})
		if err := ValidateShardRows(fresh); err != nil {
			t.Error(err)
		}
		mono := findShard(fresh, netgen.Medium, 1)
		if mono == nil {
			t.Fatal("fresh run missing the medium monolithic row")
		}
		baseMono := findShard(baseline.Shard, netgen.Medium, 1)
		if baseMono == nil {
			t.Fatal("baseline missing the medium monolithic row")
		}
		for _, base := range baseline.Shard {
			if base.Size != netgen.Medium {
				continue
			}
			got := findShard(fresh, base.Size, base.Shards)
			if got == nil {
				t.Errorf("fresh run missing row %s/shards=%d", base.Size, base.Shards)
				continue
			}
			if got.FECs != base.FECs {
				t.Errorf("%s/shards=%d: FEC count changed: baseline %d, fresh %d",
					base.Size, base.Shards, base.FECs, got.FECs)
			}
			if base.Shards <= 1 {
				continue
			}
			// The machine-independent ratio is the sharding overhead:
			// sharded cold time over monolithic cold time on the same
			// host. Fail when it grows >1/tolerance over the baseline.
			baseOverhead := float64(base.ColdElapsed) / float64(baseMono.ColdElapsed)
			freshOverhead := float64(got.ColdElapsed) / float64(mono.ColdElapsed)
			if freshOverhead*tolerance > baseOverhead {
				t.Errorf("%s/shards=%d: sharding overhead regressed >%.0f%%: baseline %.2fx, fresh %.2fx",
					base.Size, base.Shards, (1/tolerance-1)*100, baseOverhead, freshOverhead)
			}
			t.Logf("%s/shards=%d: overhead baseline %.2fx, fresh %.2fx (peak heap %.1fM vs mono %.1fM)",
				base.Size, base.Shards, baseOverhead, freshOverhead,
				float64(got.PeakHeapBytes)/1e6, float64(mono.PeakHeapBytes)/1e6)
		}
	})

	t.Run("backend", func(t *testing.T) {
		var baseline struct {
			Backend []BackendRow `json:"backend"`
		}
		readJSON(t, filepath.Join(root, "BENCH_backend.json"), &baseline)
		if len(baseline.Backend) == 0 {
			t.Fatal("baseline has no backend rows")
		}
		fresh := FigBackendCheck(sizes)
		for _, base := range baseline.Backend {
			if base.Size != netgen.Medium {
				continue
			}
			got := findBackend(fresh, base.Size, base.Backend)
			if got == nil {
				t.Errorf("fresh run missing row %s/%s", base.Size, base.Backend)
				continue
			}
			if !got.Identical {
				t.Errorf("%s/%s: backend output diverged from the sat arm", base.Size, base.Backend)
			}
			if got.ColdSpeedupVsSat < base.ColdSpeedupVsSat*tolerance {
				t.Errorf("%s/%s: cold speedup vs sat regressed >25%%: baseline %.2fx, fresh %.2fx",
					base.Size, base.Backend, base.ColdSpeedupVsSat, got.ColdSpeedupVsSat)
			}
			t.Logf("%s/%s: cold speedup baseline %.2fx, fresh %.2fx",
				base.Size, base.Backend, base.ColdSpeedupVsSat, got.ColdSpeedupVsSat)
		}
	})
}

// TestValidateShardRows holds the committed shard baseline to the
// figure's invariants and checks that each violation is reported.
func TestValidateShardRows(t *testing.T) {
	var baseline struct {
		Shard []ShardRow `json:"shard"`
	}
	readJSON(t, filepath.Join(repoRoot(t), "BENCH_shard.json"), &baseline)
	if err := ValidateShardRows(baseline.Shard); err != nil {
		t.Fatalf("committed BENCH_shard.json: %v", err)
	}
	if ValidateShardRows(nil) == nil {
		t.Error("an empty figure validated")
	}
	for name, breakRow := range map[string]func(*ShardRow){
		"diverged output": func(r *ShardRow) { r.Identical = r.Shards <= 1 },
		"FEC count drift": func(r *ShardRow) {
			if r.Shards > 1 {
				r.SolvedFECs++
			}
		},
		// Every size over the envelope, monolithic and sharded alike (the
		// committed grid no longer has a size the monolithic check does
		// not fit, so the flag is set here, as FigShardCheck would).
		"nothing rescued": func(r *ShardRow) {
			r.PeakHeapBytes = MonolithicHeapEnvelope + 1
			r.MonolithicInfeasible = r.Shards <= 1
		},
	} {
		rows := append([]ShardRow(nil), baseline.Shard...)
		for i := range rows {
			breakRow(&rows[i])
		}
		if ValidateShardRows(rows) == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func findIncremental(rows []IncrementalRow, size netgen.Size, site string) *IncrementalRow {
	for i := range rows {
		if rows[i].Size == size && rows[i].EditSite == site {
			return &rows[i]
		}
	}
	return nil
}

func findShard(rows []ShardRow, size netgen.Size, shards int) *ShardRow {
	for i := range rows {
		if rows[i].Size == size && rows[i].Shards == shards {
			return &rows[i]
		}
	}
	return nil
}

func findBackend(rows []BackendRow, size netgen.Size, backend string) *BackendRow {
	for i := range rows {
		if rows[i].Size == size && rows[i].Backend == backend {
			return &rows[i]
		}
	}
	return nil
}

func readJSON(t *testing.T, path string, v interface{}) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("baseline missing: %v", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// repoRoot walks up from the package dir to the directory holding
// go.mod (the committed BENCH_*.json baselines live there).
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above " + mustGetwd())
		}
		dir = parent
	}
}

func mustGetwd() string {
	d, _ := os.Getwd()
	return fmt.Sprint(d)
}
