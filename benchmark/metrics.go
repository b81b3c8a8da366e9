package main

import (
	"encoding/json"
	"strings"
)

// metricDef is one named metric. The two tables below are the single
// list of what the benchmark prints; `jjbench manifest` renders
// BENCHMARK.json from them and a test holds the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// boundedMetric is an end-to-end metric: Bound is the share of the
// parent's median by which it may worsen before a change is rejected.
type boundedMetric struct {
	metricDef
	Bound float64
}

// endToEnd is what an operator of the system sees. Every workload
// reports every one of them, from the run with tracing off. The bounds
// are wide because the machines this runs on are: on the box the
// benchmark was written on, a fixed CPU loop drifts by 15-20% for tens of
// seconds at a time (README, "Baseline and spread"), and a bound inside
// that drift would reject changes for the weather.
var endToEnd = []boundedMetric{
	// One operation: process start to exit for the cli workloads, request
	// write to response read for the daemon's re-checks.
	{metricDef{"op_wall_p50_ms", "ms", "lower"}, 0.25},
	// user+sys CPU of the measured process per op: separates "faster"
	// from "more cores", which check-all-large (-workers 2) needs.
	{metricDef{"op_cpu_p50_ms", "ms", "lower"}, 0.25},
	// The measured process's resident-set high-water mark.
	{metricDef{"peak_rss_mb", "MB", "lower"}, 0.20},
	// Everything before the first timed op: inputs from the seed written
	// to disk (and checked), and for the daemon workload process start,
	// session PUT and the cold check. Median of several set-ups.
	{metricDef{"setup_s", "s", "lower"}, 0.25},
}

// perLayer is the traced run's view, <module>.<metric>. A _ms value
// that comes from a span is self time: the span's duration minus what
// its child spans cover, so the layers of one op add up to the op. A
// layer that does no work on a workload reports 0 there.
var perLayer = []metricDef{
	{"ciscoconf.parse_ms", "ms", "lower"},
	{"ciscoconf.build_ms", "ms", "lower"},
	{"ciscoconf.bytes", "B", "lower"},
	{"topo.load_ms", "ms", "lower"},
	{"topo.load_bytes", "B", "lower"},
	{"topo.paths_ms", "ms", "lower"},
	{"topo.paths", "count", "lower"},
	{"topo.classes_ms", "ms", "lower"},
	{"topo.fecs_ms", "ms", "lower"},
	{"topo.fecs", "count", "lower"},
	{"lai.parse_ms", "ms", "lower"},
	{"lai.resolve_ms", "ms", "lower"},
	{"acl.diff_ms", "ms", "lower"},
	{"acl.encode_ms", "ms", "lower"},
	{"smt.clausify_ms", "ms", "lower"},
	{"smt.nodes", "count", "lower"},
	{"smt.clauses", "count", "lower"},
	{"sat.conflicts", "count", "lower"},
	{"sat.propagations", "count", "lower"},
	{"sat.decisions", "count", "lower"},
	{"sat.learned", "count", "lower"},
	{"sat.equiv_probe_ms", "ms", "lower"},
	{"pset.equiv_probe_ms", "ms", "lower"},
	{"pset.selected", "count", "higher"},
	{"pset.bailout", "count", "lower"},
	{"core.check_ms", "ms", "lower"},
	{"core.check.preprocess_ms", "ms", "lower"},
	{"core.check.fec_ms", "ms", "lower"},
	{"core.check.solve_ms", "ms", "lower"},
	{"core.check.witness_ms", "ms", "lower"},
	{"core.fix_ms", "ms", "lower"},
	{"core.fix.preprocess_ms", "ms", "lower"},
	{"core.fix.solve_ms", "ms", "lower"},
	{"core.fix.simplify_ms", "ms", "lower"},
	{"core.fix.verify_ms", "ms", "lower"},
	{"core.generate_ms", "ms", "lower"},
	{"core.generate.derive_aec_ms", "ms", "lower"},
	{"core.generate.solve_ms", "ms", "lower"},
	{"core.generate.synthesize_ms", "ms", "lower"},
	{"core.generate.verify_ms", "ms", "lower"},
	{"core.report_ms", "ms", "lower"},
	{"core.report_bytes", "B", "lower"},
	{"core.decide_sat_ms", "ms", "lower"},
	{"core.decide_pset_ms", "ms", "lower"},
	{"core.fecs_solved", "count", "lower"},
	{"core.violations", "count", "lower"},
	{"core.fix.neighborhoods", "count", "lower"},
	{"core.fix.actions", "count", "lower"},
	{"core.generate.aecs", "count", "lower"},
	{"core.generate.rules", "count", "lower"},
	{"core.generate.rules_simplified", "count", "lower"},
	{"core.encoder_cache_hit_ratio", "ratio", "higher"},
	{"core.fec_cache_hit_ratio", "ratio", "higher"},
	{"core.alloc_mb", "MB", "lower"},
	{"core.heap_peak_mb", "MB", "lower"},
	{"serve.request_ms", "ms", "lower"},
	{"serve.request_p90_ms", "ms", "lower"},
	{"serve.run_ms", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.decode_ms", "ms", "lower"},
	{"serve.encode_ms", "ms", "lower"},
	{"serve.put_ms", "ms", "lower"},
	{"serve.cold_check_ms", "ms", "lower"},
	{"serve.drain_ms", "ms", "lower"},
	{"serve.start_ms", "ms", "lower"},
	{"serve.restored_recheck_ms", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.affected_fecs_mean", "count", "lower"},
	{"serve.jobs_done", "count", "higher"},
	{"store.export_ms", "ms", "lower"},
	{"store.encode_ms", "ms", "lower"},
	{"store.write_ms", "ms", "lower"},
	{"store.read_decode_ms", "ms", "lower"},
	{"store.import_ms", "ms", "lower"},
	{"store.snapshot_bytes", "B", "lower"},
	{"netgen.build_ms", "ms", "lower"},
	{"obs.span_overhead_ratio", "ratio", "lower"},
	{"bench.op_glue_ms", "ms", "lower"},
	{"bench.traced_op_ms", "ms", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

// endToEndDefs lists the end-to-end metrics without their bounds.
func endToEndDefs() []metricDef {
	out := make([]metricDef, len(endToEnd))
	for i, d := range endToEnd {
		out[i] = d.metricDef
	}
	return out
}

// isOpLayer reports whether a per-layer metric is a span self time of the
// traced op itself — the ones that add up to bench.traced_op_ms — rather
// than a count, a probe made beside the op, or the daemon seen from
// outside.
func isOpLayer(name string) bool {
	if !strings.HasSuffix(name, "_ms") || strings.HasPrefix(name, "core.decide_") {
		return false
	}
	for _, p := range []string{"ciscoconf.", "topo.", "lai.", "core.", "bench.op_glue"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// runSeconds is how long one run measures: time for a hundred re-checks
// or three generate ops, and 4+22x6 such runs with their set-up fit the
// driver's hour twice over.
const runSeconds = 10

// manifest renders BENCHMARK.json.
func (g *grid) manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range g.Workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	return append(out, '\n'), err
}
