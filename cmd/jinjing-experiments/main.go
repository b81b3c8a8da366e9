// Command jinjing-experiments regenerates the paper's evaluation tables
// (Figures 4a-4d and Table 5 of §8) on the synthetic WAN substrate and
// prints them in the format recorded in EXPERIMENTS.md.
//
// Usage:
//
//	jinjing-experiments                 # all figures, small+medium
//	jinjing-experiments -large          # include the large network
//	jinjing-experiments -figures 4a,4d  # a subset
//	jinjing-experiments -json BENCH_experiments.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"jinjing/internal/experiments"
	"jinjing/internal/netgen"
	"jinjing/internal/obs"
)

// figureNames is the valid -figures set: the paper's Figures 4a–4d and
// Table 5.
var figureNames = []string{"4a", "4b", "4c", "4d", "t5"}

// parseFigures splits a -figures list, rejecting any name outside
// figureNames.
func parseFigures(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figureNames, f) {
			return nil, fmt.Errorf("unknown figure %q (valid: %s)", f, strings.Join(figureNames, ","))
		}
		want[f] = true
	}
	return want, nil
}

func main() {
	all := strings.Join(figureNames, ",")
	var (
		large      = flag.Bool("large", false, "include the large network (minutes of runtime)")
		figures    = flag.String("figures", all, "comma-separated subset of "+all)
		jsonPath   = flag.String("json", "", "also write the rows as JSON to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	want, err := parseFigures(*figures)
	if err != nil {
		fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// A shared metrics registry across every figure: -json embeds its
	// final snapshot, matching what `jinjing -metrics` prints for a run.
	var metrics *obs.Metrics
	if *jsonPath != "" {
		metrics = obs.NewMetrics()
		experiments.Observer = obs.NewObserver(nil, metrics, nil)
	}

	sizes := []netgen.Size{netgen.Small, netgen.Medium}
	if *large {
		sizes = append(sizes, netgen.Large)
	}

	var report experiments.BenchReport
	if want["4a"] {
		report.Checks = experiments.Fig4aCheck(sizes)
		experiments.PrintCheckRows(os.Stdout, report.Checks)
		fmt.Println()
	}
	if want["4b"] {
		report.Fixes = experiments.Fig4bFix(sizes, []bool{true, false})
		experiments.PrintFixRows(os.Stdout, report.Fixes)
		rows := []experiments.FixRow{experiments.Fig4bNoExpansion(netgen.Small)}
		experiments.PrintFixRows(os.Stdout, rows)
		report.Fixes = append(report.Fixes, rows...)
		fmt.Println()
	}
	if want["4c"] {
		// The unoptimized arm is bounded to small/medium: without §5.5
		// grouping and simplification the large network's synthesized
		// rule lists grow into the millions (see EXPERIMENTS.md).
		smallSizes := sizes
		if len(smallSizes) > 2 {
			smallSizes = smallSizes[:2]
		}
		rows := experiments.Fig4cGenerate(smallSizes, []bool{true, false})
		if len(sizes) > 2 {
			rows = append(rows, experiments.Fig4cGenerate(sizes[2:], []bool{true})...)
		}
		experiments.PrintGenerateRows(os.Stdout, "Figure 4c — generate migration plan", rows)
		report.Generates = append(report.Generates, rows...)
		fmt.Println()
	}
	if want["4d"] {
		rows := experiments.Fig4dOpen(sizes, []int{1, 2, 4})
		experiments.PrintGenerateRows(os.Stdout, "Figure 4d — reachability control (open) + generate", rows)
		report.Generates = append(report.Generates, rows...)
		fmt.Println()
	}
	if want["t5"] {
		report.Table5 = experiments.Table5Programs(sizes)
		experiments.PrintTable5(os.Stdout, report.Table5)
	}

	if *jsonPath != "" {
		if metrics != nil {
			snap := metrics.Snapshot()
			report.Metrics = &snap
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // materialize final heap state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jinjing-experiments:", err)
	os.Exit(2)
}
