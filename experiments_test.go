// Experiment tables: running `go test -run TestExperiment -v` prints the
// paper-style rows for every figure and table of §8. These are full
// evaluation runs — skipped under -short.
package jinjing_test

import (
	"os"
	"testing"
	"time"

	"jinjing/internal/experiments"
	"jinjing/internal/netgen"
)

func experimentSizes(t *testing.T) []netgen.Size {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment tables skipped in -short mode")
	}
	// The large-WAN rows push the package past go test's default 10-minute
	// timeout on slow machines; they are opt-in via the environment (set by
	// `make test-full`) and always covered by the weekly CI run.
	if os.Getenv("JINJING_EXPERIMENTS_LARGE") != "" {
		return []netgen.Size{netgen.Small, netgen.Medium, netgen.Large}
	}
	return []netgen.Size{netgen.Small, netgen.Medium}
}

func TestExperimentFig4a(t *testing.T) {
	sizes := experimentSizes(t)
	rows := experiments.Fig4aCheck(sizes)
	experiments.PrintCheckRows(os.Stdout, rows)
	// Sanity: the 0%% control must pass, every perturbed plan must be
	// flagged.
	for _, r := range rows {
		if r.PerturbPct == 0 && !r.Consistent {
			t.Errorf("%s/%s: unchanged plan reported inconsistent", r.Size, r.Mode)
		}
		if r.PerturbPct > 0 && r.Consistent {
			t.Errorf("%s/%v%%/%s: perturbed plan reported consistent", r.Size, r.PerturbPct, r.Mode)
		}
	}
}

func TestExperimentFig4b(t *testing.T) {
	sizes := experimentSizes(t)
	modes := []bool{true, false}
	if !testing.Short() && len(sizes) == 3 {
		// Run the basic mode on small/medium only (see EXPERIMENTS.md);
		// large basic is reported as a one-off in documentation.
		rows := experiments.Fig4bFix(sizes[:2], modes)
		rows = append(rows, experiments.Fig4bFix(sizes[2:], []bool{true})...)
		experiments.PrintFixRows(os.Stdout, rows)
		for _, r := range rows {
			if !r.Verified {
				t.Errorf("%s/%v%%/%s: fix did not verify", r.Size, r.PerturbPct, r.Mode)
			}
		}
		return
	}
	rows := experiments.Fig4bFix(sizes, modes)
	experiments.PrintFixRows(os.Stdout, rows)
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("%s/%v%%/%s: fix did not verify", r.Size, r.PerturbPct, r.Mode)
		}
	}
}

func TestExperimentFig4bNoExpansionAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tables skipped in -short mode")
	}
	row := experiments.Fig4bNoExpansion(netgen.Small)
	experiments.PrintFixRows(os.Stdout,
		[]experiments.FixRow{row})
	if row.Verified {
		t.Error("per-packet fixing should not converge within the cap")
	}
	if row.Regions < experiments.NoExpansionCap {
		t.Errorf("expected the cap to bind, got %d regions", row.Regions)
	}
}

func TestExperimentFig4c(t *testing.T) {
	sizes := experimentSizes(t)
	rows := experiments.Fig4cGenerate(sizes[:2], []bool{true, false})
	rows = append(rows, experiments.Fig4cGenerate(sizes[2:], []bool{true})...)
	experiments.PrintGenerateRows(os.Stdout, "Figure 4c — generate migration plan", rows)
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("%s/%s: migration plan did not verify", r.Size, r.Mode)
		}
	}
	// Shape check: optimization shortens the generated ACLs.
	bySize := map[netgen.Size]map[string]int{}
	for _, r := range rows {
		if bySize[r.Size] == nil {
			bySize[r.Size] = map[string]int{}
		}
		bySize[r.Size][r.Mode] = r.RulesSimpl
	}
	for size, m := range bySize {
		opt, hasOpt := m["optimized"]
		unopt, hasUnopt := m["unoptimized"]
		if hasOpt && hasUnopt && opt > unopt {
			t.Errorf("%s: optimized output longer than unoptimized (%d > %d)", size, opt, unopt)
		}
	}
}

func TestExperimentFig4d(t *testing.T) {
	sizes := experimentSizes(t)
	rows := experiments.Fig4dOpen(sizes, []int{1, 2, 4})
	experiments.PrintGenerateRows(os.Stdout, "Figure 4d — reachability control (open) + generate", rows)
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("%s/%s: open plan did not verify", r.Size, r.Label)
		}
	}
}

// TestExperimentPhasesFromSpans pins the phase columns to the engine's
// phase spans: on the small WAN, every phase of an optimized fix and an
// optimized migration row is timed, and the phases fit in the row's
// turnaround. Unlike the tables above it runs under -short.
func TestExperimentPhasesFromSpans(t *testing.T) {
	small := []netgen.Size{netgen.Small}
	fix := experiments.Fig4bFix(small, []bool{true})[0]
	gen := experiments.Fig4cGenerate(small, []bool{true})[0]
	for _, c := range []struct {
		row     string
		elapsed time.Duration
		phases  map[string]time.Duration
	}{
		{"fix", fix.Elapsed, map[string]time.Duration{
			"preprocess": fix.Preprocess, "solve": fix.Solve, "simplify": fix.Simplify, "verify": fix.VerifyPhase}},
		{"generate", gen.Elapsed, map[string]time.Duration{
			"derive-aec": gen.DeriveAEC, "solve": gen.Solve, "synthesize": gen.Synthesize, "verify": gen.VerifyPhase}},
	} {
		var sum time.Duration
		for name, d := range c.phases {
			if d <= 0 {
				t.Errorf("%s row: phase %s = %v, want > 0", c.row, name, d)
			}
			sum += d
		}
		if sum > c.elapsed {
			t.Errorf("%s row: phases sum to %v, more than the %v turnaround", c.row, sum, c.elapsed)
		}
	}
}

func TestExperimentTable5(t *testing.T) {
	sizes := experimentSizes(t)
	rows := experiments.Table5Programs(sizes)
	experiments.PrintTable5(os.Stdout, rows)
	// Shape: programs stay small (tens of lines, not hundreds) except the
	// open-k programs, which grow with the number of control intents.
	for _, r := range rows {
		if r.Experiment == "migration" && r.Lines > 20 {
			t.Errorf("%s migration program unexpectedly long: %d lines", r.Size, r.Lines)
		}
		if r.Lines <= 0 {
			t.Errorf("%s %s: nonpositive line count", r.Size, r.Experiment)
		}
	}
}
