// Package experiments reproduces the paper's evaluation (§8): one
// function per figure or table, each returning structured rows and able
// to print them in the paper's format. The experiment tests and
// cmd/jinjing-experiments both call into this package, so every number
// in EXPERIMENTS.md is regenerable from one place.
//
// Workloads mirror §8's setup on the synthetic WANs of package netgen
// (the substitution for the 8%/30%/80% Alibaba sub-networks):
//
//	Fig. 4a  check turnaround vs size × perturbation, diff vs basic
//	Fig. 4b  fix turnaround vs size × perturbation, optimized vs basic
//	Fig. 4c  generate (migration) vs size, optimized vs unoptimized
//	Fig. 4d  control-open + generate vs prefixes opened per device
//	Table 5  LAI program line counts per experiment
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/lai"
	"jinjing/internal/netgen"
	"jinjing/internal/obs"
	"jinjing/internal/sat"
	"jinjing/internal/topo"
)

// Seed fixes all workloads; change it to resample.
const Seed = 42

// Observer, when set, instruments every experiment engine
// (cmd/jinjing-experiments sets it so -json can embed the run's
// aggregate metrics snapshot). The Fig. 4b–4d engines share only its
// metrics registry: their tracer feeds the row's phaseTimes.
var Observer *obs.Observer

// defaultOptions is core.DefaultOptions with the package Observer
// attached.
func defaultOptions() core.Options {
	o := core.DefaultOptions()
	o.Obs = Observer
	return o
}

// phaseTimes is the obs.Sink the Fig. 4b–4d rows read their phase
// columns from: it sums span durations by name for the spans at depth 1,
// the phases of a primitive called directly. The nested verification
// check's spans sit deeper and are not counted.
type phaseTimes struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

// timePhases traces e into a fresh phaseTimes, keeping the package
// Observer's metrics registry.
func timePhases(e *core.Engine) *phaseTimes {
	p := &phaseTimes{d: map[string]time.Duration{}}
	e.Opts.Obs = obs.NewObserver(obs.NewTracer(p), Observer.Metrics(), nil)
	return p
}

func (p *phaseTimes) Span(r obs.SpanRecord) {
	if r.Depth != 1 {
		return
	}
	p.mu.Lock()
	p.d[r.Name] += time.Duration(r.DurUS) * time.Microsecond
	p.mu.Unlock()
}

func (p *phaseTimes) Metrics(obs.Snapshot) {}

// get returns the summed duration of the named phase.
func (p *phaseTimes) get(name string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.d[name]
}

// wanCache shares built networks across experiments and benchmark
// iterations (building the large WAN takes a noticeable fraction of a
// second and would otherwise distort timing).
var (
	wanMu    sync.Mutex
	wanCache = map[netgen.Size]*netgen.WAN{}
)

// GetWAN returns the cached WAN for a size.
func GetWAN(size netgen.Size) *netgen.WAN {
	wanMu.Lock()
	defer wanMu.Unlock()
	if w, ok := wanCache[size]; ok {
		return w
	}
	w := netgen.Build(netgen.DefaultConfig(size, Seed))
	wanCache[size] = w
	return w
}

// allACLBindings returns every generated ACL binding of the WAN, resolved
// against the given snapshot.
func allACLBindings(w *netgen.WAN, n *topo.Network) []topo.ACLBinding {
	ids := append(append(append([]string{}, w.EdgeACLs...), w.AggACLs...), w.CoreACLs...)
	bs, err := netgen.Bindings(n, ids)
	if err != nil {
		panic(err)
	}
	return bs
}

// CheckRow is one Fig. 4a measurement.
type CheckRow struct {
	Size       netgen.Size   `json:"size"`
	PerturbPct float64       `json:"perturb_pct"`
	Mode       string        `json:"mode"` // "differential" or "basic"
	Consistent bool          `json:"consistent"`
	FECs       int           `json:"fecs"`
	SolvedFECs int           `json:"solved_fecs"`
	Stats      sat.Stats     `json:"stats"`
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// CheckEngine builds the Fig. 4a engine for one cell. Path and FEC
// enumeration is prewarmed: it is input preprocessing shared by both
// modes (the paper's pipeline obtains routing paths from its IP
// management system before verification starts), so the measured
// turnaround isolates Algorithm 1 itself.
func CheckEngine(size netgen.Size, pct float64, differential bool) *core.Engine {
	w := GetWAN(size)
	after := w.Perturb(Seed+int64(pct*10), pct)
	opts := defaultOptions()
	opts.UseDifferential = differential
	e := core.New(w.Net, after, w.Scope, opts)
	e.FECs()
	return e
}

// Fig4aCheck runs the checking experiment for the given sizes, in three
// modes: "differential" (Algorithm 1 + Theorem 4.1 filtering), "basic"
// (Algorithm 1 on full ACLs), and "monolithic" (the Minesweeper-style
// baseline of §1/§4.1: the entire configuration in one formula). The 0%
// row is the no-change control: the update is semantically identical, so
// check must certify every FEC — the case where the optimizations show
// their full effect.
func Fig4aCheck(sizes []netgen.Size) []CheckRow {
	var rows []CheckRow
	for _, size := range sizes {
		for _, pct := range []float64{0, 1, 3, 5} {
			for _, mode := range []string{"differential", "basic", "monolithic"} {
				e := CheckEngine(size, pct, mode == "differential")
				t0 := time.Now()
				var res *core.CheckResult
				if mode == "monolithic" {
					res = e.CheckMonolithic()
				} else {
					res = e.Check()
				}
				rows = append(rows, CheckRow{
					Size: size, PerturbPct: pct, Mode: mode,
					Consistent: res.Consistent, FECs: res.FECs,
					SolvedFECs: res.SolvedFECs,
					Stats:      res.SolverStats,
					Elapsed:    time.Since(t0),
				})
			}
		}
	}
	return rows
}

// FixRow is one Fig. 4b measurement.
type FixRow struct {
	Size          netgen.Size   `json:"size"`
	PerturbPct    float64       `json:"perturb_pct"`
	Mode          string        `json:"mode"`
	Neighborhoods int           `json:"neighborhoods"`
	Actions       int           `json:"actions"`
	Verified      bool          `json:"verified"`
	Stats         sat.Stats     `json:"stats"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	Preprocess    time.Duration `json:"preprocess_ns"`
	Solve         time.Duration `json:"solve_ns"`
	Simplify      time.Duration `json:"simplify_ns"`
	VerifyPhase   time.Duration `json:"verify_ns"`
}

// fixRow fills a FixRow from one Fix call's result and phase times.
func fixRow(size netgen.Size, pct float64, mode string, res *core.FixResult, ph *phaseTimes, elapsed time.Duration) FixRow {
	return FixRow{
		Size: size, PerturbPct: pct, Mode: mode,
		Neighborhoods: len(res.Neighborhoods),
		Actions:       len(res.Actions),
		Verified:      res.Verified,
		Stats:         res.SolverStats,
		Elapsed:       elapsed,
		Preprocess:    ph.get("preprocess"), Solve: ph.get("solve"),
		Simplify: ph.get("simplify"), VerifyPhase: ph.get("verify"),
	}
}

// FixEngine builds the Fig. 4b engine for one cell. The unoptimized mode
// disables the differential preprocessing and output simplification but
// keeps the tournament encoding (disabling everything at once makes the
// large basic run take tens of minutes; the paper's "without
// optimization" line similarly isolates the differential-rules effect).
func FixEngine(size netgen.Size, pct float64, optimized bool) *core.Engine {
	w := GetWAN(size)
	after := w.Perturb(Seed+int64(pct*10), pct)
	opts := defaultOptions()
	if !optimized {
		opts.UseDifferential = false
		opts.SimplifyOutput = false
	}
	e := core.New(w.Net, after, w.Scope, opts)
	e.Allow = allACLBindings(w, w.Net)
	return e
}

// Fig4bNoExpansion is the §4.2 strawman ablation: fix with neighborhood
// enlargement disabled degenerates to per-packet exclusion and cannot
// converge (the paper estimates over 10^31 iterations in the worst
// case); the run is capped and reported unverified, with the iteration
// count showing the non-convergence.
func Fig4bNoExpansion(size netgen.Size, cap int) FixRow {
	w := GetWAN(size)
	after := w.Perturb(Seed+10, 1)
	opts := defaultOptions()
	opts.DisableExpansion = true
	opts.MaxNeighborhoods = cap
	e := core.New(w.Net, after, w.Scope, opts)
	e.Allow = allACLBindings(w, w.Net)
	ph := timePhases(e)
	t0 := time.Now()
	res, err := e.Fix()
	if err != nil {
		panic(err)
	}
	return fixRow(size, 1, "no-expansion", res, ph, time.Since(t0))
}

// Fig4bFix runs the fixing experiment.
func Fig4bFix(sizes []netgen.Size, modes []bool) []FixRow {
	var rows []FixRow
	for _, size := range sizes {
		for _, pct := range []float64{1, 3, 5} {
			for _, optimized := range modes {
				e := FixEngine(size, pct, optimized)
				ph := timePhases(e)
				t0 := time.Now()
				res, err := e.Fix()
				if err != nil {
					panic(err)
				}
				mode := "basic"
				if optimized {
					mode = "optimized"
				}
				rows = append(rows, fixRow(size, pct, mode, res, ph, time.Since(t0)))
			}
		}
	}
	return rows
}

// GenerateRow is one Fig. 4c / Fig. 4d measurement.
type GenerateRow struct {
	Size        netgen.Size   `json:"size"`
	Label       string        `json:"label"` // "migration", "open-1", ...
	Mode        string        `json:"mode"`
	Classes     int           `json:"classes"`
	AECs        int           `json:"aecs"`
	DECSplits   int           `json:"dec_splits"`
	Rules       int           `json:"rules"` // before simplification
	RulesSimpl  int           `json:"rules_simplified"`
	Verified    bool          `json:"verified"`
	Stats       sat.Stats     `json:"stats"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	DeriveAEC   time.Duration `json:"derive_aec_ns"`
	Solve       time.Duration `json:"solve_ns"`
	Synthesize  time.Duration `json:"synthesize_ns"`
	VerifyPhase time.Duration `json:"verify_ns"`
}

// MigrationSetup returns the Fig. 4c engine and sources: move every
// middle-layer (aggregation) ACL down to the edge layer.
func MigrationSetup(size netgen.Size, optimized bool) (*core.Engine, []topo.ACLBinding) {
	w := GetWAN(size)
	after := w.Net.Clone()
	for _, id := range w.AggACLs {
		b, err := netgen.Bindings(after, []string{id})
		if err != nil {
			panic(err)
		}
		b[0].Iface.SetACL(b[0].Dir, nil)
	}
	sources, _ := netgen.Bindings(w.Net, w.AggACLs)
	targets, _ := netgen.Bindings(w.Net, w.EdgeACLs)
	opts := defaultOptions()
	if !optimized {
		opts.UseGrouping = false
		opts.SimplifyOutput = false
		opts.UseSearchTree = false
	}
	e := core.New(w.Net, after, w.Scope, opts)
	e.Allow = targets
	return e, sources
}

// Fig4cGenerate runs the migration experiment.
func Fig4cGenerate(sizes []netgen.Size, modes []bool) []GenerateRow {
	var rows []GenerateRow
	for _, size := range sizes {
		for _, optimized := range modes {
			e, sources := MigrationSetup(size, optimized)
			ph := timePhases(e)
			t0 := time.Now()
			res, err := e.Generate(sources)
			if err != nil {
				panic(err)
			}
			rows = append(rows, genRow(size, "migration", optimized, res, ph, time.Since(t0)))
		}
	}
	return rows
}

func genRow(size netgen.Size, label string, optimized bool, res *core.GenerateResult, ph *phaseTimes, elapsed time.Duration) GenerateRow {
	mode := "unoptimized"
	if optimized {
		mode = "optimized"
	}
	return GenerateRow{
		Size: size, Label: label, Mode: mode,
		Classes: res.Classes, AECs: res.AECs, DECSplits: res.DECSplitAECs,
		Rules: res.RulesGenerated, RulesSimpl: res.RulesAfterSimplify,
		Verified: res.Verified && len(res.Unsolvable) == 0,
		Stats:    res.SolverStats, Elapsed: elapsed,
		DeriveAEC: ph.get("derive-aec"), Solve: ph.get("solve"),
		Synthesize: ph.get("synthesize"), VerifyPhase: ph.get("verify"),
	}
}

// OpenSetup returns the Fig. 4d engine: open k prefixes per edge device
// from the backbone side (core uplinks) to the edge customer side,
// regenerating the core and aggregation ACLs.
func OpenSetup(size netgen.Size, perDevice int) (*core.Engine, []topo.ACLBinding) {
	w := GetWAN(size)
	sel := w.OpenSelections(Seed, perDevice)
	from := map[string]bool{}
	for _, cn := range w.CoreNames {
		from[cn+":up"] = true
	}
	to := map[string]bool{}
	for _, en := range w.EdgeNames {
		to[en+":ext"] = true
	}
	var ctrls []core.Control
	for _, p := range sel {
		ctrls = append(ctrls, core.Control{
			From: from, To: to, Mode: core.Open, Match: header.DstMatch(p),
		})
	}
	srcIDs := append(append([]string{}, w.CoreACLs...), w.AggACLs...)
	srcs, _ := netgen.Bindings(w.Net, srcIDs)
	e := core.New(w.Net, w.Net.Clone(), w.Scope, defaultOptions())
	e.Allow = srcs
	e.Controls = ctrls
	return e, srcs
}

// Fig4dOpen runs the reachability-control experiment. perDevice follows
// the paper's 1/10/100 series scaled to the synthetic WAN's per-edge
// announcements (see EXPERIMENTS.md).
func Fig4dOpen(sizes []netgen.Size, perDevice []int) []GenerateRow {
	var rows []GenerateRow
	for _, size := range sizes {
		for _, k := range perDevice {
			e, srcs := OpenSetup(size, k)
			ph := timePhases(e)
			t0 := time.Now()
			res, err := e.Generate(srcs)
			if err != nil {
				panic(err)
			}
			rows = append(rows, genRow(size, fmt.Sprintf("open-%d", k), true, res, ph, time.Since(t0)))
		}
	}
	return rows
}

// Table5Row is one LAI program-size measurement.
type Table5Row struct {
	Size       netgen.Size `json:"size"`
	Experiment string      `json:"experiment"`
	Lines      int         `json:"lines"`
}

// Table5Programs builds the LAI program for each experiment of §8 and
// counts its lines (Table 5).
func Table5Programs(sizes []netgen.Size) []Table5Row {
	var rows []Table5Row
	for _, size := range sizes {
		w := GetWAN(size)
		scopePats := make([]lai.IfPattern, 0)
		for _, names := range [][]string{w.CoreNames, w.AggNames, w.EdgeNames} {
			for _, n := range names {
				scopePats = append(scopePats, lai.IfPattern{Device: n, Iface: "*"})
			}
		}
		aclPat := func(ids []string) []lai.IfPattern {
			var out []lai.IfPattern
			for _, id := range ids {
				dev, ifc, _ := strings.Cut(strings.TrimSuffix(id, ":in"), ":")
				out = append(out, lai.IfPattern{Device: dev, Iface: ifc, Dir: lai.InOnly})
			}
			return out
		}

		checkFix := &lai.Program{
			Scope:    scopePats,
			Allow:    aclPat(append(append([]string{}, w.EdgeACLs...), append(w.AggACLs, w.CoreACLs...)...)),
			Modifies: []lai.Modify{{Targets: aclPat(w.AggACLs), Kind: lai.FromUpdated}},
			Commands: []lai.Command{lai.Check, lai.Fix},
		}
		rows = append(rows, Table5Row{size, "check & fix", checkFix.LineCount()})

		migration := &lai.Program{
			Scope:    scopePats,
			Allow:    aclPat(w.EdgeACLs),
			Modifies: []lai.Modify{{Targets: aclPat(w.AggACLs), Kind: lai.ToPermitAll}},
			Commands: []lai.Command{lai.Generate},
		}
		rows = append(rows, Table5Row{size, "migration", migration.LineCount()})

		for _, k := range []int{1, 2, 4} {
			sel := w.OpenSelections(Seed, k)
			open := &lai.Program{
				Scope:    scopePats,
				Allow:    aclPat(append(append([]string{}, w.CoreACLs...), w.AggACLs...)),
				Commands: []lai.Command{lai.Generate},
			}
			fromPats := make([]lai.IfPattern, 0, len(w.CoreNames))
			for _, cn := range w.CoreNames {
				fromPats = append(fromPats, lai.IfPattern{Device: cn, Iface: "up"})
			}
			toPats := make([]lai.IfPattern, 0, len(w.EdgeNames))
			for _, en := range w.EdgeNames {
				toPats = append(toPats, lai.IfPattern{Device: en, Iface: "ext"})
			}
			for _, p := range sel {
				open.Controls = append(open.Controls, lai.Control{
					From: fromPats, To: toPats, Mode: lai.Open,
					Match: header.DstMatch(p),
				})
			}
			rows = append(rows, Table5Row{size, fmt.Sprintf("open %d/device", k), open.LineCount()})
		}
	}
	return rows
}

// BenchReport collects every experiment row of one run for
// machine-readable output (the BENCH_experiments.json artifact written by
// cmd/jinjing-experiments -json).
type BenchReport struct {
	Checks    []CheckRow    `json:"checks,omitempty"`
	Fixes     []FixRow      `json:"fixes,omitempty"`
	Generates []GenerateRow `json:"generates,omitempty"`
	Table5    []Table5Row   `json:"table5,omitempty"`
	// Metrics is the final metrics snapshot of the run's shared Observer
	// (set by cmd/jinjing-experiments so -json output carries the same
	// registry dump `jinjing -metrics` prints).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Printing helpers ----------------------------------------------------

// PrintCheckRows formats Fig. 4a results.
func PrintCheckRows(w io.Writer, rows []CheckRow) {
	fmt.Fprintf(w, "Figure 4a — check turnaround (size × perturbation × mode)\n")
	fmt.Fprintf(w, "%-8s %5s %-13s %-11s %6s %7s %10s %12s\n",
		"size", "pct", "mode", "result", "FECs", "solved", "conflicts", "time")
	for _, r := range rows {
		result := "consistent"
		if !r.Consistent {
			result = "violation"
		}
		fmt.Fprintf(w, "%-8s %4.0f%% %-13s %-11s %6d %7d %10d %12v\n",
			r.Size, r.PerturbPct, r.Mode, result, r.FECs, r.SolvedFECs, r.Stats.Conflicts,
			r.Elapsed.Round(time.Millisecond))
	}
}

// PrintFixRows formats Fig. 4b results.
func PrintFixRows(w io.Writer, rows []FixRow) {
	fmt.Fprintf(w, "Figure 4b — fix turnaround (size × perturbation × mode)\n")
	fmt.Fprintf(w, "%-8s %5s %-12s %6s %8s %9s %12s  (preprocess/solve/simplify/verify)\n",
		"size", "pct", "mode", "nbhds", "actions", "verified", "time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %4.0f%% %-12s %6d %8d %9v %12v  (%v/%v/%v/%v)\n",
			r.Size, r.PerturbPct, r.Mode, r.Neighborhoods, r.Actions, r.Verified,
			r.Elapsed.Round(time.Millisecond),
			r.Preprocess.Round(time.Millisecond), r.Solve.Round(time.Millisecond),
			r.Simplify.Round(time.Millisecond), r.VerifyPhase.Round(time.Millisecond))
	}
}

// PrintGenerateRows formats Fig. 4c / 4d results.
func PrintGenerateRows(w io.Writer, title string, rows []GenerateRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-8s %-10s %-12s %8s %6s %5s %9s %8s %9s %12s  (derive/solve/synth/verify)\n",
		"size", "workload", "mode", "classes", "AECs", "DECs", "rules", "simpl", "verified", "time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-10s %-12s %8d %6d %5d %9d %8d %9v %12v  (%v/%v/%v/%v)\n",
			r.Size, r.Label, r.Mode, r.Classes, r.AECs, r.DECSplits, r.Rules, r.RulesSimpl,
			r.Verified, r.Elapsed.Round(time.Millisecond),
			r.DeriveAEC.Round(time.Millisecond), r.Solve.Round(time.Millisecond),
			r.Synthesize.Round(time.Millisecond), r.VerifyPhase.Round(time.Millisecond))
	}
}

// PrintTable5 formats Table 5.
func PrintTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintf(w, "Table 5 — LAI program line count per experiment\n")
	fmt.Fprintf(w, "%-8s %-16s %6s\n", "size", "experiment", "lines")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-16s %6d\n", r.Size, r.Experiment, r.Lines)
	}
}
