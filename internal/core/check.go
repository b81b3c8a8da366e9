package core

import (
	"context"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/sat"
	"jinjing/internal/topo"
)

// Violation is one reachability inconsistency found by Check: a concrete
// counterexample packet, the FEC it belongs to, and the paths whose
// decision on it changed.
type Violation struct {
	Packet  header.Packet
	Classes []header.Prefix // the FEC's traffic classes
	Paths   []topo.Path     // paths that decide differently after the update
}

// CheckResult reports the outcome of the check primitive.
type CheckResult struct {
	Consistent bool
	Violations []Violation

	// Complete reports whether every FEC the scan needed reached a
	// verdict. When false, Consistent means only "no violation found
	// among the decided FECs": the FECs in Unknown ran out of budget or
	// were cancelled, and a consistent-but-incomplete result must not be
	// treated as a proof. Unknown lists them ascending by FEC index — the
	// canonical order partial results are reported in.
	Complete bool
	Unknown  []UnknownFEC

	// FECs is the number of forwarding equivalence classes examined;
	// SolvedFECs counts those in the scanned range that the Theorem 4.1
	// fast path did not settle — each needed a complete decision
	// procedure's verdict, decided now or replayed from the verdict cache
	// (FECs left Unknown are not counted).
	FECs       int
	SolvedFECs int
	// Stats reports the incremental-verification activity of this call:
	// verdict-cache hits/misses, the deciding backends, and the
	// change-impact analysis of the current edit.
	Stats CacheStats
	// Forensics lists per-FEC solve forensics (verdict, route, deciding
	// backend's solve time, unknown reason) for every FEC the scan
	// examined, ascending. Populated only when Options.Forensics is set
	// or a decision ledger is attached; nil otherwise.
	Forensics []FECForensics
	// SolverStats holds the full SAT counters (decisions, propagations,
	// conflicts, restarts, learned, deleted) of CheckMonolithic's one
	// query, whose Conflicts total is the stand-in for the paper's "DPLL
	// recursive calls" (§9). Check decides every FEC in the set algebra
	// and runs no solver, so its counters are zero.
	SolverStats sat.Stats
	// PeakHeapBytes is the call's highest sampled live-heap size
	// (runtime HeapAlloc). Sampled only when the sample is already paid
	// for — forensics, or an attached decision ledger — and 0 otherwise;
	// the stop-the-world cost of a MemStats read never taxes the plain
	// hot path.
	PeakHeapBytes int64
}

// Check verifies packet (or desired, when controls are present)
// reachability consistency between the engine's Before and After
// snapshots, per Algorithm 1: one loop over the FECs (see solve) on the
// calling goroutine, whatever Options.Workers says — the worker count
// applies to fix and generate only. Counterexamples come from a
// deterministic witness pass over the violating FECs in FEC order.
// Repeated calls on one generation (no UpdateAfter between them) keep
// its verdicts and re-decide only FECs left Unknown.
func (e *Engine) Check() *CheckResult {
	return e.CheckContext(context.Background())
}

// CheckContext is Check under a cancellation scope: ctx's cancellation
// (and Options.Deadline, whichever fires first) stops the scan, and a
// FEC being split stops before its next piece. FECs left without a
// verdict are reported in CheckResult.Unknown with Complete=false, in
// canonical FEC order, and are never cached — a later unrestricted call
// decides them.
func (e *Engine) CheckContext(callCtx context.Context) *CheckResult {
	o := e.obsv()
	ls := e.ledgerBegin()
	cn, endCall := e.beginCall(callCtx)
	defer endCall()
	root := e.startSpan("check")
	res := &CheckResult{Consistent: true, Complete: true}

	pre := root.Child("preprocess")
	ctx := e.checkContext()
	if ctx.fastPath {
		// No rule changed anywhere: trivially consistent.
		pre.End(obs.KV("diff_rules", 0))
		root.SetAttr("fast_path", true)
		root.End()
		e.logCheckDecision(ls, res)
		return res
	}
	pre.End(obs.KV("diff_rules", ctx.diffRules), obs.KV("acl_pairs", ctx.aclPairs))

	fp := root.Child("fec")
	e.prepareIncremental(ctx)
	res.FECs = ctx.nfec
	fp.End(obs.KV("fecs", ctx.nfec))
	statsBase := ctx.stats
	ctx.peakHeap, ctx.pathShapes = 0, 0

	// Detection: resolve each FEC (differential skip, cached-verdict
	// replay, the set algebra). hits is ascending
	// violating FEC indices; in first-violation mode it has at most one
	// entry — the lowest violating FEC. last is the highest FEC index the
	// scan semantically examined (early stops leave the tail unexamined).
	sp := root.Child("solve")
	hits, last := e.decide(cn, ctx, sp, e.Opts.FindAllViolations)
	res.Stats = ctx.stats.since(statsBase)
	sp.End(obs.KV("decided", res.Stats.PsetDecided+res.Stats.PsetBailout), obs.KV("violations", len(hits)))
	res.SolvedFECs = solvedFECs(ctx, last)
	res.Unknown = unknownFECs(ctx, last)
	res.Complete = len(res.Unknown) == 0
	if !res.Complete {
		o.Counter("fec.unknown").Add(int64(len(res.Unknown)))
	}

	// Witness extraction: each violating FEC's counterexample is the
	// canonical one — the packet the set algebra's verdict names
	// (witnessFor), a pure function of the FEC and the encoded ACL
	// contents — so reported violations are byte-identical across warm
	// and cold runs and across cache replays (which memoize exactly these
	// witnesses).
	if len(hits) > 0 {
		res.Consistent = false
		wp := root.Child("witness")
		cached := 0
		for _, i := range hits {
			v, memo := e.witnessFor(ctx, i)
			if memo {
				cached++
			}
			res.Violations = append(res.Violations, v)
		}
		wp.End(obs.KV("violations", len(res.Violations)), obs.KV("cached", cached))
	}

	ctx.commitGeneration()
	recordCacheStats(o, res.Stats)
	o.Gauge("impact.changed_bindings").Set(int64(res.Stats.ChangedBindings))
	o.Gauge("impact.affected_fecs").Set(int64(res.Stats.AffectedFECs))

	o.Gauge("check.path_shapes").Set(ctx.pathShapes)
	// The check runs no solver: its sat.* counters read 0 in the metrics
	// rather than vanish from them.
	recordSolverStats(o, &res.SolverStats, sat.Stats{})
	if e.Opts.Forensics || e.Opts.DecisionLog != nil {
		ctx.sampleHeap()
		res.PeakHeapBytes = ctx.peakHeap
		o.Gauge("mem.heap_peak_bytes").Set(ctx.peakHeap)
	}
	o.Counter("check.fecs").Add(int64(res.FECs))
	o.Counter("check.fecs.solved").Add(int64(res.SolvedFECs))
	o.Counter("check.violations").Add(int64(len(res.Violations)))
	if e.Opts.Forensics || e.Opts.DecisionLog != nil {
		res.Forensics = ctx.forensicsList(last)
		if slow := slowestForensics(res.Forensics); slow != nil {
			root.SetAttr("slowest_fec", slow.FEC)
			root.SetAttr("slowest_fec_route", slow.Route)
			root.SetAttr("slowest_fec_ns", slow.SolveNS)
		}
	}
	root.SetAttr("consistent", res.Consistent)
	root.End()
	e.logCheckDecision(ls, res)
	return res
}

// fecTouchesDiff reports whether any differential rule can match traffic
// in the FEC (the Theorem 4.1 skip test).
func (e *Engine) fecTouchesDiff(fec topo.FEC, diff []acl.Rule) bool {
	for _, c := range fec.Classes {
		cm := header.DstMatch(c)
		for _, d := range diff {
			if cm.Overlaps(d.Match) {
				return true
			}
		}
	}
	return false
}
