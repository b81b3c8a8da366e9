package core

import (
	"context"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/sat"
	"jinjing/internal/smt"
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
	// SolverStats aggregates the full SAT counters (decisions,
	// propagations, conflicts, restarts, learned, deleted) across every
	// solver the check ran: the detection solver and the witness pass's.
	// Its Conflicts total is the stand-in for the paper's "DPLL
	// recursive calls" (§9).
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
// its verdicts and re-decide only FECs left Unknown, on the
// generation's SAT builder and solver.
func (e *Engine) Check() *CheckResult {
	return e.CheckContext(context.Background())
}

// CheckContext is Check under a cancellation scope: ctx's cancellation
// (and Options.Deadline, whichever fires first) interrupts every solver
// the call has in flight. FECs left without a verdict are reported in
// CheckResult.Unknown with Complete=false, in canonical FEC order, and
// are never cached — a later unrestricted call re-solves them.
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
	ctx.maxNodes, ctx.peakHeap, ctx.pathShapes = 0, 0, 0

	// Detection: resolve each FEC (differential skip, cached-verdict
	// replay, pset) and decide the remaining queries. hits is ascending
	// violating FEC indices; in first-violation mode it has at most one
	// entry — the lowest violating FEC. last is the highest FEC index the
	// scan semantically examined (early stops leave the tail unexamined).
	sp := root.Child("solve")
	hits, last, decided := e.decide(cn, ctx, sp, e.Opts.FindAllViolations, &res.SolverStats)
	sp.End(obs.KV("decided", decided), obs.KV("violations", len(hits)))
	res.SolvedFECs = solvedFECs(ctx, last)
	res.Unknown = unknownFECs(ctx, last)
	res.Complete = len(res.Unknown) == 0
	if !res.Complete {
		o.Counter("fec.unknown").Add(int64(len(res.Unknown)))
	}

	// Witness extraction: each violating FEC's counterexample is the
	// canonical one — derived in the set algebra, or re-solved on a fresh
	// builder and solver under controls or after an overflow (witnessFor),
	// a pure function of the FEC and the encoded ACL contents either way —
	// so reported violations are byte-identical across decision routes,
	// across warm and cold runs, and across cache replays (which memoize
	// exactly these witnesses).
	if len(hits) > 0 {
		res.Consistent = false
		wp := root.Child("witness")
		cached := 0
		for _, i := range hits {
			v, memo := e.witnessFor(ctx, i, res, o)
			if memo {
				cached++
			}
			res.Violations = append(res.Violations, v)
		}
		wp.End(obs.KV("violations", len(res.Violations)), obs.KV("cached", cached))
	}

	ctx.commitGeneration()
	res.Stats = ctx.stats.since(statsBase)
	recordCacheStats(o, res.Stats)
	o.Gauge("impact.changed_bindings").Set(int64(res.Stats.ChangedBindings))
	o.Gauge("impact.affected_fecs").Set(int64(res.Stats.AffectedFECs))

	// The generation's formula builder after the scan (a proxy for
	// encoding work): 0 when no FEC has taken the SAT route.
	o.Gauge("smt.nodes").Set(ctx.maxNodes)
	o.Gauge("check.path_shapes").Set(ctx.pathShapes)
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

// fecViolationFormula builds ⋁_{p∈𝒴} ¬(desired_p ⇔ c'_p) for the FEC's
// forwarding paths (Equation 3, with desired_p per §6 when controls are
// present), one disjunct per path in path order: the form whose models
// are read — the witness pass and fix's seek loop — and so must not move.
func (e *Engine) fecViolationFormula(enc *encoder, fec topo.FEC, ids map[string][2]int32) smt.F {
	out := smt.False
	for _, p := range fec.Paths {
		desired, after := e.pathFormulas(enc, p, ids)
		out = enc.b.Or(out, enc.b.Iff(desired, after).Not())
	}
	return out
}

// shapesViolationFormula is the same disjunction with one disjunct per
// distinct path shape — an equivalent, smaller query for the check's
// solver jobs, of which only the verdict is read.
func (e *Engine) shapesViolationFormula(enc *encoder, ctx *checkCtx, shapes []checkShape) smt.F {
	out := smt.False
	for _, sh := range shapes {
		before, after := smt.True, smt.True
		for _, pi := range sh.pairs {
			pair := ctx.encPairs[pi].ids
			before = enc.b.And(before, enc.encodeACL(pair[0]))
			after = enc.b.And(after, enc.encodeACL(pair[1]))
		}
		desired := e.desiredFormula(enc, sh.ctrls, before)
		out = enc.b.Or(out, enc.b.Iff(desired, after).Not())
	}
	return out
}

// pathFormulas returns (desired_p, c'_p): the desired decision model of
// path p (the original c_p adjusted by control intents) and the
// post-update decision model, over the bindings' encoded ID pairs.
func (e *Engine) pathFormulas(enc *encoder, p topo.Path, ids map[string][2]int32) (desired, after smt.F) {
	before := smt.True
	after = smt.True
	for _, bind := range p.Bindings() {
		pair, ok := ids[bind.ID()]
		if !ok {
			continue // no ACL in either snapshot
		}
		before = enc.b.And(before, enc.encodeACL(pair[0]))
		after = enc.b.And(after, enc.encodeACL(pair[1]))
	}
	desired = e.desiredFormula(enc, e.ctrlsOn(p), before)
	return desired, after
}

// ctrlsOn lists the controls governing p, in precedence order.
func (e *Engine) ctrlsOn(p topo.Path) []int32 {
	var cs []int32
	for i, c := range e.Controls {
		if c.AppliesTo(p) {
			cs = append(cs, int32(i))
		}
	}
	return cs
}

// desiredFormula composes the §6 reachability-update model r_p over the
// original path decision: of the controls governing the path (ctrls, in
// precedence order), the first whose match covers the packet dictates
// the outcome; otherwise the original decision is maintained.
func (e *Engine) desiredFormula(enc *encoder, ctrls []int32, orig smt.F) smt.F {
	out := orig
	// Later controls have lower priority, so fold in reverse: the first
	// control ends up outermost.
	for k := len(ctrls) - 1; k >= 0; k-- {
		c := e.Controls[ctrls[k]]
		var val smt.F
		switch c.Mode {
		case Isolate:
			val = smt.False
		case Open:
			val = smt.True
		case Maintain:
			val = orig
		}
		out = enc.b.Ite(enc.b.MatchPred(enc.pv, c.Match), val, out)
	}
	return out
}
