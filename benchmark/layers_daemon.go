package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"jinjing/internal/core"
	"jinjing/internal/serve"
	"jinjing/internal/store"
	"jinjing/internal/topo"
)

// traceDaemonWorkload is the traced run of a daemon workload. The
// daemon stays a real subprocess, measured from outside: a span around
// every request, the response's own wall_ns and stats, /metrics, and
// the decode/encode work replayed in-process on the same bytes. The
// store layer is timed on the snapshot file the drain left behind, and
// the engine layers on an in-process run of the session's cold check.
func (g *grid) traceDaemonWorkload(e env, rec *recorder, wl *workload, seed int64, window time.Duration, quick bool) (layerSample, *e2eResult, error) {
	res := &e2eResult{}
	limit := time.Duration(g.Limits.HTTPOpS) * time.Second
	t0 := time.Now()
	d, s, _, err := g.setupDaemon(e, wl, seed, quick, "traced")
	if err != nil {
		return nil, nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop() //nolint:errcheck // best effort on the way out
		}
	}()
	out := layerSample{"netgen.build_ms": s.in.netgenMS,
		"serve.put_ms": s.putMS, "serve.cold_check_ms": s.coldMS, "serve.start_ms": d.startMS}

	// Warm re-checks for half the window.
	var request, run, decode, encode, affected []float64
	var hits, misses int64
	for len(request) < g.MinOps || time.Since(t0) < window/2 {
		body, err := s.nextBody()
		if err != nil {
			return nil, nil, err
		}
		rec.op++
		res.attempted++
		sp := rec.begin("serve.request")
		_, cr, err := d.check(s, body)
		wall := rec.end(sp)
		if err != nil {
			res.fail("traced re-check %d: %v", res.attempted, err)
			continue
		}
		sp.Attrs = map[string]any{"run_ns": cr.WallNS, "cache_hits": cr.Stats.FECCacheHits,
			"cache_misses": cr.Stats.FECCacheMisses, "affected_fecs": cr.Stats.AffectedFECs}
		request = append(request, ms(wall))
		run = append(run, float64(cr.WallNS)/1e6)
		affected = append(affected, float64(cr.Stats.AffectedFECs))
		hits += cr.Stats.FECCacheHits
		misses += cr.Stats.FECCacheMisses
		var derr error
		decode = append(decode, ms(rec.stage("serve.decode", func() {
			var req *serve.JobRequest
			if req, derr = serve.DecodeJobRequest(body); derr == nil {
				derr = json.Unmarshal(req.Updated, topo.NewNetwork())
			}
		})))
		if derr != nil {
			return nil, nil, derr
		}
		encode = append(encode, ms(rec.stage("serve.encode", func() { _, derr = json.Marshal(cr) })))
		if derr != nil {
			return nil, nil, derr
		}
	}
	out["serve.request_ms"] = median(request)
	out["serve.request_p90_ms"] = percentile(request, 0.9)
	out["serve.run_ms"] = median(run)
	out["serve.overhead_ms"] = median(request) - median(run)
	out["serve.decode_ms"] = median(decode)
	out["serve.encode_ms"] = median(encode)
	out["serve.cache_hit_ratio"] = ratio(hits, misses)
	out["serve.affected_fecs_mean"] = mean(affected)

	if out["serve.jobs_done"], err = d.counter("daemon_jobs_done"); err != nil {
		return nil, nil, err
	}

	// Restart cycles for the rest of the window.
	snapPath := filepath.Join(d.stateDir, "sessions", sessionName+".snap")
	var drain, start, restored []float64
	for len(drain) < 2 || time.Since(t0) < window {
		body, err := s.nextBody()
		if err != nil {
			return nil, nil, err
		}
		rec.op++
		res.attempted++
		var dms float64
		var serr error
		rec.stage("serve.drain", func() { dms, serr = d.stop() })
		stopped = true
		if serr != nil {
			return nil, nil, serr
		}
		if _, err := os.Stat(snapPath); err != nil {
			return nil, nil, fmt.Errorf("drain left no snapshot: %v", err)
		}
		sp := rec.begin("serve.start")
		nd, err := startDaemon(e, d.stateDir, limit)
		rec.end(sp)
		if err != nil {
			return nil, nil, err
		}
		d, stopped = nd, false
		sp = rec.begin("serve.restored_recheck")
		_, cr, err := d.check(s, body)
		wall := rec.end(sp)
		if err != nil {
			res.fail("traced restart %d: %v", res.attempted, err)
			continue
		}
		// The answer must have come from the restored session, not from a
		// cold one: the daemon says which it built.
		if n, err := d.counter("daemon_sessions_restored"); err != nil || n != 1 {
			res.fail("traced restart %d: daemon_sessions_restored = %v (%v)", res.attempted, n, err)
			continue
		}
		sp.Attrs = map[string]any{"cache_hits": cr.Stats.FECCacheHits, "cache_misses": cr.Stats.FECCacheMisses}
		drain, start, restored = append(drain, dms), append(start, d.startMS), append(restored, ms(wall))
	}
	out["serve.drain_ms"] = median(drain)
	out["serve.start_ms"] = median(append(start, out["serve.start_ms"]))
	out["serve.restored_recheck_ms"] = median(restored)
	_, err = d.stop()
	stopped = true
	if err != nil {
		return nil, nil, err
	}

	// The store layer, on the snapshot the last drain wrote.
	fi, err := os.Stat(snapPath)
	if err != nil {
		return nil, nil, fmt.Errorf("drain left no snapshot: %v", err)
	}
	out["store.snapshot_bytes"] = float64(fi.Size())
	rec.op++
	var snap *core.VerdictSnapshot
	out["store.read_decode_ms"] = ms(rec.stage("store.read_decode", func() { snap, err = store.Read(snapPath) }))
	if err != nil {
		return nil, nil, err
	}
	var data []byte
	out["store.encode_ms"] = ms(rec.stage("store.encode", func() { data = store.Encode(snap) }))
	out["store.write_ms"] = ms(rec.stage("store.write", func() {
		err = store.WriteFileAtomic(filepath.Join(e.work, "probe.snap"), data)
	}))
	if err != nil {
		return nil, nil, err
	}

	// The engine layers, on the session's cold check run in this process.
	cold := &inputs{wl: &workload{Source: "topo"}, before: s.in.before, after: s.in.after, prog: s.in.prog}
	if err := cold.write(filepath.Join(e.work, "cold")); err != nil {
		return nil, nil, err
	}
	opts := engineOptions([]string{"-all-violations"})
	opts.Verdicts = core.NewVerdictCache()
	eng := layerSample{}
	op, err := traceCLI(rec, cold, opts, eng)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range eng {
		out[k] = v
	}
	probeLayers(rec, op, out)
	out["obs.span_overhead_ratio"] = probeObsOverhead(op)
	out["bench.trace_overhead_ratio"] = 0 // the daemon is traced from outside: the same requests, nothing added

	rec.op++
	var exported *core.VerdictSnapshot
	out["store.export_ms"] = ms(rec.stage("store.export", func() { exported = op.engine.ExportVerdicts() }))
	if exported == nil {
		return nil, nil, fmt.Errorf("in-process engine exported no verdicts")
	}
	opts.Verdicts = core.NewVerdictCache()
	opts.Obs = nil
	fresh := core.FromResolved(op.resolved, opts)
	fresh.FECs()
	out["store.import_ms"] = ms(rec.stage("store.import", func() { err = fresh.ImportVerdicts(exported) }))
	if err != nil {
		return nil, nil, err
	}
	return out, res, nil
}
