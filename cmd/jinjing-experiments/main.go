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
	"strings"

	"jinjing/internal/experiments"
	"jinjing/internal/netgen"
	"jinjing/internal/obs"
)

func main() {
	var (
		large      = flag.Bool("large", false, "include the large network (minutes of runtime)")
		figures    = flag.String("figures", "4a,4b,4c,4d,t5", "comma-separated subset of 4a,4b,4c,4d,par,inc,backend,shard,snap,t5")
		jsonPath   = flag.String("json", "", "also write the rows as JSON to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

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
	want := map[string]bool{}
	for _, f := range strings.Split(*figures, ",") {
		want[strings.TrimSpace(f)] = true
	}

	var report experiments.BenchReport
	var shardErr error // a violated shard-figure invariant: exit 1 once the artifacts are written
	if want["4a"] {
		report.Checks = experiments.Fig4aCheck(sizes)
		experiments.PrintCheckRows(os.Stdout, report.Checks)
		fmt.Println()
	}
	if want["4b"] {
		report.Fixes = experiments.Fig4bFix(sizes, []bool{true, false})
		experiments.PrintFixRows(os.Stdout, report.Fixes)
		rows := []experiments.FixRow{experiments.Fig4bNoExpansion(netgen.Small, 2000)}
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
	if want["par"] {
		// The parallel-scaling figure skips the small network: its
		// turnaround is microsecond-scale and worker startup dominates.
		parSizes := make([]netgen.Size, 0, len(sizes))
		for _, s := range sizes {
			if s != netgen.Small {
				parSizes = append(parSizes, s)
			}
		}
		report.Parallel = experiments.FigParallelCheck(parSizes, []int{1, 2, 4, 8})
		experiments.PrintParallelRows(os.Stdout, report.Parallel)
		fmt.Println()
	}
	if want["inc"] {
		// Like "par", the incremental figure skips the small network:
		// both arms finish in microseconds there and timer granularity
		// dominates the ratio.
		incSizes := make([]netgen.Size, 0, len(sizes))
		for _, s := range sizes {
			if s != netgen.Small {
				incSizes = append(incSizes, s)
			}
		}
		report.Incremental = experiments.FigIncrementalCheck(incSizes)
		experiments.PrintIncrementalRows(os.Stdout, report.Incremental)
		fmt.Println()
	}
	if want["backend"] {
		// Like "par", the backend figure skips the small network: its
		// turnaround is microsecond-scale and fixed per-call costs
		// dominate either backend's decision time.
		beSizes := make([]netgen.Size, 0, len(sizes))
		for _, s := range sizes {
			if s != netgen.Small {
				beSizes = append(beSizes, s)
			}
		}
		report.Backend = experiments.FigBackendCheck(beSizes)
		experiments.PrintBackendRows(os.Stdout, report.Backend)
		fmt.Println()
	}
	if want["shard"] {
		// The shard figure includes the extrapolated xlarge tier only
		// when the weekly large lane opts in: its monolithic arm is the
		// multi-gigabyte run the figure exists to demonstrate against.
		shardSizes := sizes
		if os.Getenv("JINJING_EXPERIMENTS_LARGE") == "1" {
			shardSizes = append(append([]netgen.Size{}, sizes...), netgen.XLarge)
		}
		report.Shard = experiments.FigShardCheck(shardSizes, []int{1, 4, 16})
		experiments.PrintShardRows(os.Stdout, report.Shard)
		fmt.Println()
		shardErr = experiments.ValidateShardRows(report.Shard)
	}
	if want["snap"] {
		// Like "inc", the snapshot figure skips the small network: both
		// arms finish in microseconds there and timer granularity
		// dominates the restore-vs-cold ratio.
		snapSizes := make([]netgen.Size, 0, len(sizes))
		for _, s := range sizes {
			if s != netgen.Small {
				snapSizes = append(snapSizes, s)
			}
		}
		report.Snapshot = experiments.FigSnapshotRestore(snapSizes)
		experiments.PrintSnapshotRows(os.Stdout, report.Snapshot)
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
	if shardErr != nil {
		pprof.StopCPUProfile() // os.Exit skips the deferred stop
		fmt.Fprintln(os.Stderr, "jinjing-experiments: shard figure:", shardErr)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jinjing-experiments:", err)
	os.Exit(2)
}
