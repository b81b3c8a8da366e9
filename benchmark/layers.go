package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"jinjing/internal/acl"
	"jinjing/internal/ciscoconf"
	"jinjing/internal/core"
	"jinjing/internal/lai"
	"jinjing/internal/obs"
	"jinjing/internal/pset"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// layerSample is the per-layer view of one traced operation.
type layerSample map[string]float64

// tracedOp is what one in-process replay of a jinjing invocation
// leaves behind for the probes that follow it.
type tracedOp struct {
	resolved *lai.Resolved
	engine   *core.Engine
	report   string
}

// engineOptions mirrors cmd/jinjing's flag handling for the flags the
// grid uses. The traced run always uses one worker: the sat.* counters
// are exact only then.
func engineOptions(flags []string) core.Options {
	o := core.DefaultOptions()
	for _, f := range flags {
		switch f {
		case "-no-differential":
			o.UseDifferential = false
		case "-all-violations":
			o.FindAllViolations = true
		}
	}
	o.Workers = 1
	return o
}

// traceCLI replays, in this process, what `jinjing <in.args>` does —
// the same exported functions in the same order over the same files —
// with a span around every stage and the engine's own spans nested
// under them. It fills s with each layer's self time and counts.
func traceCLI(rec *recorder, in *inputs, opts core.Options, s layerSample) (*tracedOp, error) {
	rec.op++
	m := obs.NewMetrics()
	opts.Obs = rec.observer(m)
	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	peak := ms0.HeapAlloc
	sampleHeap := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		peak = max(peak, m.HeapAlloc)
	}

	op := rec.begin("op")
	var before, updated *topo.Network
	var err error
	if in.wl.Source == "configs" {
		var cfgs []*ciscoconf.DeviceConfig
		var links []ciscoconf.Link
		rec.stage("ciscoconf.parse", func() {
			var paths []string
			paths, err = filepath.Glob(filepath.Join(in.dir, "cfg", "*.cfg"))
			sort.Strings(paths)
			for _, p := range paths {
				var data []byte
				var cfg *ciscoconf.DeviceConfig
				if data, err = os.ReadFile(p); err != nil {
					return
				}
				s["ciscoconf.bytes"] += float64(len(data))
				if cfg, err = ciscoconf.Parse(string(data)); err != nil {
					return
				}
				cfgs = append(cfgs, cfg)
			}
			var data []byte
			if data, err = os.ReadFile(filepath.Join(in.dir, "links.json")); err != nil {
				return
			}
			var raw []struct{ From, To string }
			if err = json.Unmarshal(data, &raw); err != nil {
				return
			}
			for _, l := range raw {
				fd, fi, _ := strings.Cut(l.From, ":")
				td, ti, _ := strings.Cut(l.To, ":")
				links = append(links, ciscoconf.Link{FromDevice: fd, FromIface: fi, ToDevice: td, ToIface: ti})
			}
		})
		if err != nil {
			return nil, err
		}
		rec.stage("ciscoconf.build", func() { before, err = ciscoconf.BuildNetwork(cfgs, links) })
		if err != nil {
			return nil, err
		}
	}
	load := func(name string) (*topo.Network, error) {
		data, err := os.ReadFile(filepath.Join(in.dir, name))
		if err != nil {
			return nil, err
		}
		s["topo.load_bytes"] += float64(len(data))
		n := topo.NewNetwork()
		return n, json.Unmarshal(data, n)
	}
	var src []byte
	var prog *lai.Program
	rec.stage("topo.load", func() {
		if before == nil {
			if before, err = load("net.json"); err != nil {
				return
			}
		}
		if in.after != nil {
			updated, err = load("after.json")
		}
	})
	if err != nil {
		return nil, err
	}
	rec.stage("lai.parse", func() {
		if src, err = os.ReadFile(filepath.Join(in.dir, "program.lai")); err == nil {
			prog, err = lai.Parse(string(src))
		}
	})
	if err != nil {
		return nil, err
	}
	var resolved *lai.Resolved
	rec.stage("lai.resolve", func() { resolved, err = lai.Resolve(prog, before, lai.ResolveOptions{Updated: updated}) })
	if err != nil {
		return nil, err
	}
	sampleHeap()

	// core.Run with the topology stages pulled out in front, so that
	// they are timed as themselves and not inside check's "fec" phase.
	if opts.Verdicts == nil {
		opts.Verdicts = core.NewVerdictCache()
	}
	e := core.FromResolved(resolved, opts)
	rec.stage("topo.paths", func() { s["topo.paths"] = float64(len(e.Paths())) })
	rec.stage("topo.classes", func() { e.Classes() })
	rec.stage("topo.fecs", func() { s["topo.fecs"] = float64(len(e.FECs())) })
	sampleHeap()
	report := &core.Report{Final: resolved.After}
	ctx := context.Background()
	for _, cmd := range resolved.Commands {
		switch cmd {
		case lai.Check:
			report.Checks = append(report.Checks, e.CheckContext(ctx))
		case lai.Fix:
			fr, err := e.FixContext(ctx)
			if err != nil {
				return nil, err
			}
			report.Fixes = append(report.Fixes, fr)
		case lai.Generate:
			gr, err := e.GenerateContext(ctx, resolved.Cleared)
			if err != nil {
				return nil, err
			}
			report.Generates = append(report.Generates, gr)
		}
		sampleHeap()
	}
	var out bytes.Buffer
	rec.stage("core.report", func() { report.Print(&out) })
	total := rec.end(op)
	rec.adopt()

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	s["core.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	s["core.heap_peak_mb"] = float64(max(peak, ms1.HeapAlloc)) / (1 << 20)
	s["core.report_bytes"] = float64(out.Len())
	s["bench.traced_op_ms"] = ms(total)

	// Self times, by layer. fec.solve spans are detail inside check's
	// solve phase (their sums are core.decide_*_ms), not a layer.
	detail := func(sp *span) bool { return sp.Name == "fec.solve" }
	byID := map[int]*span{}
	for _, sp := range rec.spans {
		byID[sp.ID] = sp
	}
	for sp, self := range selfTimes(rec.spans, rec.op, detail) {
		s[spanMetric(sp, byID)] += ms(self)
	}

	snap := m.Snapshot()
	c := snap.Counters
	s["sat.conflicts"] = float64(c["sat.conflicts"])
	s["sat.propagations"] = float64(c["sat.propagations"])
	s["sat.decisions"] = float64(c["sat.decisions"])
	s["sat.learned"] = float64(c["sat.learned"])
	s["pset.selected"] = float64(c["backend.pset.selected"])
	s["pset.bailout"] = float64(c["backend.bailout"])
	s["core.fecs_solved"] = float64(c["check.fecs.solved"])
	s["core.violations"] = float64(c["check.violations"])
	s["core.fix.neighborhoods"] = float64(c["fix.neighborhoods"])
	s["core.fix.actions"] = float64(c["fix.actions"])
	s["core.generate.aecs"] = float64(c["generate.aecs"])
	s["core.generate.rules"] = float64(c["generate.rules"])
	s["core.generate.rules_simplified"] = float64(c["generate.rules.simplified"])
	s["core.encoder_cache_hit_ratio"] = ratio(c["encoder.cache.hits"], c["encoder.cache.misses"])
	s["core.fec_cache_hit_ratio"] = ratio(c["fec.cache.hits"], c["fec.cache.misses"])
	s["core.decide_sat_ms"] = float64(snap.Histograms["fec.solve.ns{backend=sat}"].Sum) / 1e6
	s["core.decide_pset_ms"] = float64(snap.Histograms["fec.solve.ns{backend=pset}"].Sum) / 1e6
	return &tracedOp{resolved: resolved, engine: e, report: out.String()}, nil
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// spanMetric names the per-layer metric a span's self time belongs to.
// Benchmark stage spans are already named <module>.<stage>; the engine's
// root spans check/fix/generate become core.<name>_ms and their phase
// spans core.<root>.<phase>_ms.
func spanMetric(sp *span, byID map[int]*span) string {
	if sp.engineID == 0 {
		if sp.Name == "op" {
			return "bench.op_glue_ms" // time between stages: file globbing, option plumbing
		}
		return sp.Name + "_ms"
	}
	name := strings.ReplaceAll(sp.Name, "-", "_")
	if p := byID[sp.Parent]; p != nil && p.engineID != 0 {
		return "core." + p.Name + "." + name + "_ms"
	}
	return "core." + name + "_ms"
}

// probeLayers times the layers that the op exercises only deep inside
// the engine, by calling their exported entry points directly on the
// op's own ACLs: the cost of the encoding and of each equivalence
// backend, seen from outside.
func probeLayers(rec *recorder, t *tracedOp, s layerSample) {
	r := t.resolved
	type pair struct{ before, after *acl.ACL }
	var changed []pair
	var scope []*acl.ACL
	for _, b := range r.Before.ACLGroup(r.Scope) {
		a := b.Iface.ACL(b.Dir)
		scope = append(scope, a)
		ai, err := r.After.LookupInterface(b.Iface.ID())
		if err != nil {
			continue
		}
		if aa := ai.ACL(b.Dir); aa != nil && !a.Equal(aa) {
			changed = append(changed, pair{a, aa})
		}
	}
	rec.op++
	s["acl.diff_ms"] = ms(rec.stage("acl.diff", func() {
		for _, p := range changed {
			acl.Differential(p.before, p.after)
		}
	}))
	bld := smt.NewBuilder()
	pv := bld.NewPacketVars()
	var roots []smt.F
	s["acl.encode_ms"] = ms(rec.stage("acl.encode", func() {
		for _, a := range scope {
			roots = append(roots, a.EncodeTournament(bld, pv))
		}
	}))
	var solver *smt.Solver
	s["smt.clausify_ms"] = ms(rec.stage("smt.clausify", func() {
		solver = smt.SolverOn(bld)
		for _, f := range roots {
			solver.EnsureClausified(f)
		}
	}))
	s["smt.nodes"] = float64(bld.NumNodes())
	s["smt.clauses"] = float64(solver.NumClauses())
	s["sat.equiv_probe_ms"] = ms(rec.stage("sat.equiv_probe", func() {
		for _, p := range changed {
			acl.Equivalent(p.before, p.after)
		}
	}))
	s["pset.equiv_probe_ms"] = ms(rec.stage("pset.equiv_probe", func() {
		for _, p := range changed {
			pset.EquivalentACLs(p.before, p.after)
		}
	}))
}

// probeObsOverhead re-runs the op's check on its engine — topology kept,
// solver session and verdict cache dropped each time — alternately with
// observability off and with an in-memory span sink, and returns
// traced/untraced.
func probeObsOverhead(t *tracedOp) float64 {
	e := t.engine
	saved := e.Opts
	defer func() { e.Opts = saved; e.ReleaseSession() }()
	e.Opts.Verdicts = nil
	on := newRecorder().observer(obs.NewMetrics())
	var with, without []float64
	for k := 0; k < 6; k++ {
		e.ReleaseSession()
		e.Opts.Obs = nil
		if k%2 == 1 {
			e.Opts.Obs = on
		}
		t0 := time.Now()
		e.Check()
		if d := ms(time.Since(t0)); k%2 == 1 {
			with = append(with, d)
		} else {
			without = append(without, d)
		}
	}
	if median(without) == 0 {
		return 0
	}
	return median(with) / median(without)
}

// traceCLIWorkload is the traced run of a cli workload: a couple of real
// CLI ops for reference, then in-process traced ops until the window is
// used, then the probes. Each metric is the median over traced ops.
func (g *grid) traceCLIWorkload(e env, rec *recorder, wl *workload, seed int64, window time.Duration, quick bool) (layerSample, *e2eResult, error) {
	res := &e2eResult{}
	t0 := time.Now()
	in, _, err := g.setupCLI(e, wl, seed, quick, "traced")
	if err != nil {
		return nil, nil, err
	}
	ref, refOut, _, err := cliOp(e, in.args, time.Duration(g.Limits.CLIOpS)*time.Second)
	if err != nil {
		return nil, nil, err
	}
	x := in.expectation(g.ValidationSamples, seed)
	if err := x.judge(string(refOut), in.pool); err != nil {
		return nil, nil, err
	}

	opts := engineOptions(wl.Flags)
	var samples []layerSample
	var last *tracedOp
	for len(samples) == 0 || time.Since(t0) < window {
		s := layerSample{}
		res.attempted++
		op, err := traceCLI(rec, in, opts, s)
		if err != nil {
			return nil, nil, err
		}
		if op.report != string(refOut) {
			res.fail("traced op %d: in-process report differs from the CLI's stdout", res.attempted)
		}
		samples, last = append(samples, s), op
	}
	out := medians(samples)
	out["netgen.build_ms"] = in.netgenMS
	probe := layerSample{}
	probeLayers(rec, last, probe)
	for k, v := range probe {
		out[k] = v
	}
	out["obs.span_overhead_ratio"] = probeObsOverhead(last)
	out["bench.trace_overhead_ratio"] = out["bench.traced_op_ms"] / ref.wallMS
	return out, res, nil
}

// medians folds per-op samples into one value per metric.
func medians(samples []layerSample) layerSample {
	keys := map[string]bool{}
	for _, s := range samples {
		for k := range s {
			keys[k] = true
		}
	}
	out := layerSample{}
	for k := range keys {
		var xs []float64
		for _, s := range samples {
			xs = append(xs, s[k])
		}
		out[k] = median(xs)
	}
	return out
}
