package core

import (
	"runtime"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/sat"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// checkJob is one encoded Equation-3 query: a single FEC's violation
// formula conjoined with its class predicate, plus the content key its
// verdict is cached under. Counterexample attribution happens in the
// canonical witness pass (see witnessFEC), so jobs carry no path
// equivalences.
type checkJob struct {
	fecIdx int
	query  smt.F
	key    []uint64
	// paths and shapes size the FEC the query was built from, for its
	// fec.solve span.
	paths, shapes int
}

// checkSession is the solver state the FECs of a check are encoded and
// decided on: the content-addressed encoder and the detection solver.
// The engine's session outlives a single After snapshot — its builder
// grows monotonically, hash-consing unchanged cones across edits, and
// UpdateAfter keeps it, so a warm re-check re-encodes only what the edit
// changed. Its formulas are indexed by IDs of tab, the table the session
// was built against.
type checkSession struct {
	tab *aclTable
	enc *encoder
	seq *smt.Solver
}

// checkCtx is one generation of the check pipeline — the derived state
// for the engine's current Before/After pair: differential rules, each
// in-scope binding's related-filtered encoding pair as ACL-table IDs, and
// the per-FEC incremental resolution state (see resolveFEC). It is cached
// on the engine and invalidated by UpdateAfter; the checkSession it
// points at survives across generations.
type checkCtx struct {
	sess *checkSession

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
	jobOf         []int32 // fecIdx -> index into jobs, -1 when none
	jobs          []checkJob
	// Solve forensics (see forensics.go): routes[i] records how FEC i's
	// verdict was established, solveNS[i] its complete-backend decision
	// time.
	routes  []fecRoute
	solveNS []int64
	// pathShapes sums the distinct path shapes of the FECs the current
	// call compiled (the check.path_shapes gauge).
	pathShapes int64
	// resolveSpan parents the per-FEC spans resolveFEC emits for
	// pset-backend decisions: the solve phase's span, set for its duration.
	resolveSpan *obs.Span

	// wit memoizes canonical witnesses per FEC for this generation.
	wit map[int]*Violation

	// walk interns what the generation's paths cross for the complete
	// procedures, and encPairs is the table of distinct encoded pairs its
	// indices point into (see pathWalk); diffMs memoizes each pair's
	// differential-rule matches (see diffMatches). All three grow as FECs
	// reach a procedure; none is shared across goroutines.
	walk     *pathInterner
	encPairs []encPair
	diffMs   map[[2]int32][]header.Match

	// vc is the bound verdict cache (nil when none is installed).
	vc *VerdictCache

	stats CacheStats
}

// fec returns FEC i.
func (ctx *checkCtx) fec(i int) topo.FEC { return ctx.fecs[i] }

// checkContext returns the engine's cached per-generation check state,
// deriving it on first use: Theorem 4.1 preprocessing (differential
// rules and related-rule filtering), each binding's encoded pair as the
// ACL-table IDs every later stage and the verdict cache key on, and the
// session (shared encoder + persistent solver), which is reused across
// generations.
func (e *Engine) checkContext(o *obs.Observer) *checkCtx {
	if e.ckctx != nil {
		return e.ckctx
	}
	tab := e.aclTable()
	if e.sess == nil || e.sess.tab != tab {
		e.sess = &checkSession{tab: tab, enc: newEncoder(e.Opts.UseTournament, nil, o)}
	}
	ctx := &checkCtx{sess: e.sess}
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
	for _, p := range pairs {
		before, after := orPermitAll(p.before), orPermitAll(p.after)
		if e.Opts.UseDifferential {
			before, after = acl.Related(before, ctx.diff), acl.Related(after, ctx.diff)
		}
		ctx.ids[p.binding.ID()] = [2]int32{tab.intern(before), tab.intern(after)}
	}
	ctx.acls = tab.view()
	ctx.diffRules = len(ctx.diff)
	e.ckctx = ctx
	return ctx
}

// solveCall is what one call's solve phase shares across the pipeline's
// stages (decide → scan → decideJob): the call's scope, whether it finds
// every violation, the solver counters it reports into, and the
// observability hooks — the phase span parenting the per-FEC "fec.solve"
// spans, the all-backends and SAT-only decision-latency histograms, the
// progress task, and the count of jobs that reached a verdict.
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
// examined, and the count of jobs that reached a verdict.
func (e *Engine) decide(cn *canceller, ctx *checkCtx, span *obs.Span, findAll bool, stats *sat.Stats) (hits []int, last, decided int) {
	o := e.obsv()
	c := &solveCall{
		cn: cn, ctx: ctx, o: o, findAll: findAll, stats: stats,
		span:    span,
		hist:    o.Histogram("check.fec_solve_ns"),
		satHist: o.Histogram("fec.solve.ns{backend=sat}"),
		task:    o.StartTask("check: FECs", int64(ctx.nfec)),
	}
	ctx.resolveSpan = span
	last = ctx.nfec - 1
	if !cn.cancelled() {
		if first := e.scan(c); first >= 0 {
			last = first
		}
	}
	ctx.resolveSpan = nil
	c.task.Done()

	if cn.cancelled() {
		// The call is dead: whatever the scan still holds without a verdict
		// — FECs never resolved, jobs never decided — is Unknown; this call
		// can no longer establish it.
		for i := 0; i <= last; i++ {
			if st := ctx.states[i]; st == fecUnresolved || st == fecPending {
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

// scan runs every FEC through resolve and decide, in order, on the
// engine's session — the content-addressed encoder and the sequential
// solver that persist across calls and edits. A pending query is decided
// where it is resolved, on the calling goroutine, so a first-violation
// stop builds no formula past the hit.
//
// Returns the FEC index of the violation the scan stops at, or -1 (always
// -1 in find-all mode).
func (e *Engine) scan(c *solveCall) int {
	ctx, sess := c.ctx, c.ctx.sess
	if sess.seq == nil {
		sess.seq = smt.SolverOn(sess.enc.b)
	}
	seq := sess.seq
	// Views of one append-only table agree on every ID they share, so the
	// generation's own view resolves every formula it asks for.
	sess.enc.acls = ctx.acls
	c.cn.register(seq)
	base := seq.Stats()
	// Differential skip, cached-verdict replay and pset settle a FEC on
	// the spot; the rest become solver jobs, decided right away.
	// A budget-exhausted job is Unknown and the scan continues (one
	// pathological query must not starve the rest); a cancellation stops
	// it, and decide marks what is left.
	hit := -1
	for i := 0; i < ctx.nfec && !c.cn.cancelled(); i++ {
		st := e.resolveFEC(ctx, i)
		if st == fecPending {
			st = e.decideJob(c, seq, ctx.jobs[ctx.jobOf[i]])
		}
		c.task.Add(1)
		if st == fecViolating && !c.findAll {
			// Replayed or just decided: the scan stops here either way.
			hit = i
			break
		}
	}
	recordSolverStats(c.o, c.stats, statsSince(seq.Stats(), base))
	ctx.maxNodes = int64(sess.enc.b.NumNodes())
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
// counters, so the persistent solver reports per-call deltas.
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
