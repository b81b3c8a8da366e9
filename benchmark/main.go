// Command jjbench is the repository's operator-level benchmark: it
// drives the real jinjing and jinjingd binaries end to end on inputs
// made from a seed, checks every output with a reference evaluator that
// shares no code with the engine, and, in a separate traced run,
// attributes the time to the layers of the system.
//
//	jjbench -bin DIR -work DIR --workload NAME --seed N --seconds S --trace 0|1
//	jjbench manifest                  print BENCHMARK.json
//	jjbench compare a.jsonl b.jsonl   judge run set b against run set a
//
// benchmark/run.sh builds the three binaries from the working tree and
// calls the first form; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "manifest":
			g, err := loadGrid()
			if err == nil {
				var out []byte
				if out, err = g.manifest(); err == nil {
					os.Stdout.Write(out) //nolint:errcheck // stdout
					return
				}
			}
			fatal(err)
		case "compare":
			if len(os.Args) != 4 {
				fatal(fmt.Errorf("usage: jjbench compare a.jsonl b.jsonl"))
			}
			if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
				fatal(err)
			}
			return
		}
	}
	var (
		name    = flag.String("workload", "", "workload name from workloads.json (required)")
		seed    = flag.Int64("seed", 42, "seed of the inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long to measure")
		traced  = flag.Int("trace", 0, "0: end-to-end run, tracing off; 1: traced run for the per-layer metrics")
		bin     = flag.String("bin", "", "directory holding the jinjing and jinjingd binaries (required)")
		work    = flag.String("work", "", "scratch directory for this run's files (required; removed afterwards)")
		quick   = flag.Bool("quick", false, "smoke mode: the small WAN and a sub-second window, same names")
		outPath = flag.String("out", "", "append this run, with its environment stamp, to a JSON-lines file")
		traceTo = flag.String("trace-dir", "", "with -trace 1: write the spans to <dir>/<workload>-<seed>.jsonl")
	)
	flag.Parse()
	g, err := loadGrid()
	if err != nil {
		fatal(err)
	}
	wl := g.find(*name)
	if wl == nil || *bin == "" || *work == "" {
		fatal(fmt.Errorf("need -workload (one of %v), -bin and -work", g.names()))
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *quick {
		window = time.Duration(g.Quick.RunMS) * time.Millisecond
	}
	e := env{bin: *bin, work: filepath.Join(*work, fmt.Sprintf("%s-%d-%d", wl.Name, *seed, os.Getpid()))}
	started := time.Now()
	var out *outcome
	if *traced == 0 {
		out, err = g.endToEndRun(e, wl, *seed, window, *quick)
	} else {
		path := ""
		if *traceTo != "" {
			path = filepath.Join(*traceTo, fmt.Sprintf("%s-%d.jsonl", wl.Name, *seed))
		}
		out, err = g.tracedRun(e, wl, *seed, window, *quick, path)
	}
	e.cleanWork()
	if err != nil {
		fatal(err)
	}
	for _, defs := range [][]metricDef{endToEndDefs(), perLayer} {
		for _, d := range defs {
			if v, ok := out.Metrics[d.Name]; ok {
				fmt.Printf("%-34s %14.4f %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	if *outPath != "" {
		if err := appendRun(*outPath, wl.Name, *seed, *traced, *quick, time.Since(started), out); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jjbench:", err)
	os.Exit(2)
}

func (g *grid) names() []string {
	var out []string
	for _, w := range g.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// endToEndRun measures one workload with tracing off.
func (g *grid) endToEndRun(e env, wl *workload, seed int64, window time.Duration, quick bool) (*outcome, error) {
	var res *e2eResult
	var err error
	if wl.Kind == "cli" {
		res, err = g.runCLI(e, wl, seed, window, quick)
	} else {
		res, err = g.runDaemon(e, wl, seed, window, quick)
	}
	if err != nil {
		return nil, err
	}
	if len(res.ops) == 0 {
		return nil, fmt.Errorf("no operation succeeded: %s", res.firstFailure)
	}
	if res.firstFailure != "" {
		fmt.Fprintln(os.Stderr, "jjbench: first failed op:", res.firstFailure)
	}
	var wall, cpu, rss []float64
	for _, s := range res.ops {
		wall, cpu, rss = append(wall, s.wallMS), append(cpu, s.cpuMS), append(rss, s.rssMB)
	}
	fmt.Printf("ops %d (failed %d), setups %d, max rss %.1f MB, stdout sha256 %s\n",
		res.attempted, res.failed, len(res.setupS), maxOf(rss), res.stdoutSHA256)
	values := map[string]float64{
		"op_wall_p50_ms": median(wall),
		"op_cpu_p50_ms":  median(cpu),
		"peak_rss_mb":    median(rss),
		"setup_s":        median(res.setupS),
	}
	return newOutcome(res, endToEndDefs(), values), nil
}

// tracedRun makes the traced run of one workload.
func (g *grid) tracedRun(e env, wl *workload, seed int64, window time.Duration, quick bool, traceTo string) (*outcome, error) {
	rec := newRecorder()
	var values layerSample
	var res *e2eResult
	var err error
	if wl.Kind == "cli" {
		values, res, err = g.traceCLIWorkload(e, rec, wl, seed, window, quick)
	} else {
		values, res, err = g.traceDaemonWorkload(e, rec, wl, seed, window, quick)
	}
	if err != nil {
		return nil, err
	}
	if traceTo != "" {
		if err := rec.write(traceTo); err != nil {
			return nil, err
		}
	}
	if res.firstFailure != "" {
		fmt.Fprintln(os.Stderr, "jjbench: first failed op:", res.firstFailure)
	}
	fmt.Printf("traced ops %d (failed %d), spans %d\n", res.attempted, res.failed, len(rec.spans))
	return newOutcome(res, perLayer, values), nil
}

func newOutcome(res *e2eResult, defs []metricDef, values map[string]float64) *outcome {
	out := &outcome{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
