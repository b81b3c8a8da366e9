package core

import (
	"runtime"

	"jinjing/internal/acl"
	"jinjing/internal/obs"
	"jinjing/internal/pset"
	"jinjing/internal/sat"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// checkCtx is one generation of the check pipeline — the derived state
// for the engine's current Before/After pair: differential rules, each
// in-scope binding's related-filtered encoding pair as ACL-table IDs, and
// the per-FEC incremental resolution state (see resolveFEC). It is cached
// on the engine and dropped by UpdateAfter and ReleaseSession, and
// everything it holds dies with it — the SAT route's formula builder and
// solver included.
type checkCtx struct {
	// tab is the ACL table the generation's IDs were drawn from.
	tab *aclTable

	pairs []aclPair
	diff  []acl.Rule
	// ids resolves each in-scope binding to its encoded (before, after)
	// ACL IDs, and acls the IDs to their contents.
	ids  map[string][2]int32
	acls []*acl.ACL
	// binds aliases the engine's per-FEC distinct binding lists (see
	// bindingIndex), and bindWord resolves a dense binding index to its key
	// word for this generation (see pairWord; 0 = unbound). Built by
	// prepareIncremental, read-only after.
	binds     [][]int32
	bindWord  []uint64
	fastPath  bool
	diffRules int
	aclPairs  int

	// src is the engine's forwarding index, fecs its materialization
	// (e.FECs()) and nfec their count.
	src  *topo.FECSource
	fecs []topo.FEC
	nfec int
	// maxNodes is the size of the formula builder the current call's scan
	// closed on; peakHeap is the call's sampled heap (see sampleHeap).
	maxNodes int64
	peakHeap int64

	// Incremental resolution state (sized by prepareIncremental).
	incReady bool
	states   []fecState
	entries  []*fecVerdict
	// unknownReason says why states[i] == fecUnknown (cancelled, budget
	// exhausted, ...).
	unknownReason []string
	// Solve forensics (see forensics.go): routes[i] records how FEC i's
	// verdict was established, solveNS[i] its complete-backend decision
	// time.
	routes  []fecRoute
	solveNS []int64
	// pathShapes sums the distinct path shapes of the FECs the current
	// call compiled (the check.path_shapes gauge).
	pathShapes int64

	// enc and seq are the SAT route: the content-addressed encoder over
	// one formula builder and the detection solver on it, built by the
	// first FEC whose pset attempt bails out on the cube budget. An
	// Unknown FEC re-resolved by a later call on this generation
	// hash-conses onto the same nodes, so the solver resumes with its
	// learned clauses.
	enc *encoder
	seq *smt.Solver

	// wit memoizes canonical witnesses per FEC for this generation.
	wit map[int]*Violation

	// walk interns what the generation's paths cross for the complete
	// procedures, and encPairs is the table of distinct encoded pairs its
	// indices point into (see pathWalk). aclIx indexes each ACL-table
	// ID's rules by destination and diffIx each changed pair's
	// differential rules (see permittedWithin and diffWithin); folded
	// counts the rules their folds visit. All grow as FECs reach a
	// procedure; none is shared across goroutines.
	walk     *pathInterner
	encPairs []encPair
	aclIx    []*pset.Index
	diffIx   map[[2]int32]*pset.Index
	folded   int64

	// vc is the bound verdict cache (nil when none is installed).
	vc *VerdictCache

	stats CacheStats
}

// fec returns FEC i.
func (ctx *checkCtx) fec(i int) topo.FEC { return ctx.fecs[i] }

// checkContext returns the engine's cached per-generation check state,
// deriving it on first use: Theorem 4.1 preprocessing (differential
// rules and related-rule filtering) and each binding's encoded pair as
// the ACL-table IDs every later stage and the verdict cache key on.
func (e *Engine) checkContext() *checkCtx {
	if e.ckctx != nil {
		return e.ckctx
	}
	tab := e.aclTable()
	ctx := &checkCtx{tab: tab}
	pairs := e.scopeACLPairs()
	ctx.pairs = pairs
	ctx.aclPairs = len(pairs)
	if e.Opts.UseDifferential {
		for _, p := range pairs {
			ctx.diff = append(ctx.diff, acl.Differential(orPermitAll(p.before), orPermitAll(p.after))...)
		}
		// §6: control-related prefixes join the differential set so their
		// related rules survive filtering — an `all` control like any
		// other, which leaves nothing filtered and no FEC skipped.
		for _, c := range e.Controls {
			ctx.diff = append(ctx.diff, acl.Rule{Action: acl.Permit, Match: c.Match})
		}
		if len(ctx.diff) == 0 && len(e.Controls) == 0 {
			ctx.fastPath = true
			e.ckctx = ctx
			return ctx
		}
	}
	ctx.ids = make(map[string][2]int32, len(pairs))
	diff := acl.NewDstIndex(ctx.diff)
	for _, p := range pairs {
		before, after := orPermitAll(p.before), orPermitAll(p.after)
		if e.Opts.UseDifferential {
			before, after = acl.Related(before, diff), acl.Related(after, diff)
		}
		ctx.ids[p.binding.ID()] = [2]int32{tab.intern(before), tab.intern(after)}
	}
	ctx.acls = tab.view()
	ctx.aclIx, ctx.diffIx = make([]*pset.Index, len(ctx.acls)), map[[2]int32]*pset.Index{}
	ctx.diffRules = len(ctx.diff)
	e.ckctx = ctx
	return ctx
}

// solveCall is what one call's solve phase shares across the pipeline's
// stages (decide → scan → resolveFEC → decideSAT): the call's scope,
// whether it finds every violation, the solver counters it reports into,
// and the observability hooks — the phase span parenting the per-FEC
// "fec.solve" spans, the all-backends and SAT-only decision-latency
// histograms, the progress task, and the count of SAT queries that
// reached a verdict.
type solveCall struct {
	cn      *canceller
	ctx     *checkCtx
	o       *obs.Observer
	findAll bool
	stats   *sat.Stats

	span    *obs.Span
	hist    *obs.Histogram // check.fec_solve_ns
	satHist *obs.Histogram // fec.solve.ns{backend=sat}
	task    *obs.Task      // "check: FECs": FECs settled, of the scope's FEC count
	decided int
}

// decide is the detection pipeline of Algorithm 1 and the one place a
// FEC's verdict is established, for check and fix alike: resolve →
// decide → merge over the FEC index space [0, nfec) under the caller's
// solve-phase span, stopping at the first violation unless findAll.
// Verdicts land in the per-FEC states, so the merge — and with it hits,
// Unknown, SolvedFECs, the witnesses and the FECs fix seeks in — is a
// pure function of the states. Solver counters accumulate into stats.
// Returns the ascending violating FEC indices (one at most in
// first-violation mode), the last FEC index the scan semantically
// examined, and the count of SAT queries that reached a verdict.
func (e *Engine) decide(cn *canceller, ctx *checkCtx, span *obs.Span, findAll bool, stats *sat.Stats) (hits []int, last, decided int) {
	o := e.obsv()
	c := &solveCall{
		cn: cn, ctx: ctx, o: o, findAll: findAll, stats: stats,
		span:    span,
		hist:    o.Histogram("check.fec_solve_ns"),
		satHist: o.Histogram("fec.solve.ns{backend=sat}"),
		task:    o.StartTask("check: FECs", int64(ctx.nfec)),
	}
	last = ctx.nfec - 1
	if !cn.cancelled() {
		if first := e.scan(c); first >= 0 {
			last = first
		}
	}
	c.task.Done()

	if cn.cancelled() {
		// The call is dead: whatever FEC the scan never resolved is
		// Unknown; this call can no longer establish it.
		for i := 0; i <= last; i++ {
			if ctx.states[i] == fecUnresolved {
				ctx.markUnknown(i, reasonCancelled)
			}
		}
	}
	for i := 0; i <= last; i++ {
		if ctx.states[i] == fecViolating {
			hits = append(hits, i)
		}
	}
	return hits, last, c.decided
}

// scan runs every FEC through resolveFEC, in order, on the calling
// goroutine. A FEC that takes the SAT route is decided where it is
// resolved, so a first-violation stop builds no formula past the hit.
//
// Returns the FEC index of the violation the scan stops at, or -1 (always
// -1 in find-all mode).
func (e *Engine) scan(c *solveCall) int {
	ctx := c.ctx
	// A solver from an earlier call on this generation may carry that
	// call's interrupt; registering clears it (decideSAT registers one it
	// builds).
	var base sat.Stats
	if ctx.seq != nil {
		c.cn.register(ctx.seq)
		base = ctx.seq.Stats()
	}
	// Differential skip, cached-verdict replay, pset and the solver each
	// settle a FEC on the spot. A budget-exhausted query is Unknown and
	// the scan continues (one pathological query must not starve the
	// rest); a cancellation stops it, and decide marks what is left.
	hit := -1
	for i := 0; i < ctx.nfec && !c.cn.cancelled(); i++ {
		st := e.resolveFEC(c, i)
		c.task.Add(1)
		if st == fecViolating && !c.findAll {
			// Replayed or just decided: the scan stops here either way.
			hit = i
			break
		}
	}
	var st sat.Stats
	if ctx.seq != nil {
		st = statsSince(ctx.seq.Stats(), base)
		ctx.maxNodes = int64(ctx.enc.b.NumNodes())
	}
	recordSolverStats(c.o, c.stats, st)
	return hit
}

// sampleHeap folds the current live-heap size into the call's peak.
// ReadMemStats stops the world (~hundreds of microseconds), so callers
// sample only where the cost is already bought: once per call, when
// forensics or a decision ledger is attached.
func (ctx *checkCtx) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if h := int64(ms.HeapAlloc); h > ctx.peakHeap {
		ctx.peakHeap = h
	}
}

// statsSince subtracts a baseline snapshot from cumulative solver
// counters, so a generation's solver reports per-call deltas.
func statsSince(cur, base sat.Stats) sat.Stats {
	return sat.Stats{
		Decisions:    cur.Decisions - base.Decisions,
		Propagations: cur.Propagations - base.Propagations,
		Conflicts:    cur.Conflicts - base.Conflicts,
		Restarts:     cur.Restarts - base.Restarts,
		Learned:      cur.Learned - base.Learned,
		Deleted:      cur.Deleted - base.Deleted,
	}
}
