package core

import (
	"runtime"
	"sync"
	"sync/atomic"

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
// decided on: the content-addressed encoder, the sequential detection
// solver, the fully clausified prototype pool workers fork from, and the
// idle forks. The engine's session outlives a single After snapshot —
// its builder grows monotonically, hash-consing unchanged cones across
// edits, and UpdateAfter keeps it, so a warm re-check re-encodes only
// what the edit changed.
type checkSession struct {
	enc   *encoder
	seq   *smt.Solver
	proto *smt.Solver
	free  []*smt.Solver
}

// checkCtx is one generation of the check pipeline — the derived state
// for the engine's current Before/After pair: differential rules,
// related-filtered encoding pairs and their fingerprints, and the
// per-FEC incremental resolution state (see resolveFEC). It is cached
// on the engine and invalidated by UpdateAfter; the checkSession it
// points at survives across generations.
type checkCtx struct {
	sess *checkSession

	pairs      []aclPair
	diff       []acl.Rule
	encodeACLs map[string][2]*acl.ACL // binding ID -> {before, after}
	pairFPs    map[string][2]uint64   // binding ID -> encoded pair fingerprints
	// slots aliases the engine's per-FEC key slot lists (see slotIndex).
	// Built by prepareIncremental, read-only after.
	slots [][]int32
	// fpRef resolves a dense slot index to its binding's stable cache
	// pair reference for this generation (0 = unbound).
	fpRef []uint64
	// keyOff/keyArena back fecKey with one shared buffer:
	// FEC i's key occupies keyArena[keyOff[i]:keyOff[i+1]], written only
	// by the goroutine resolving FEC i.
	keyOff    []int
	keyArena  []uint64
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
	// exhausted, ...). Workers write distinct indices concurrently.
	unknownReason []string
	jobOf         []int32 // fecIdx -> index into jobs, -1 when none
	jobs          []checkJob
	// Solve forensics (see forensics.go): routes[i] records how FEC i's
	// verdict was established, solveNS[i] its complete-backend decision
	// time. Workers write distinct indices concurrently.
	routes  []fecRoute
	solveNS []int64
	// pathShapes sums the distinct path shapes of the FECs the current
	// call compiled (the check.path_shapes gauge).
	pathShapes int64
	// resolveSpan parents the per-FEC spans resolveFEC emits for
	// pset-backend decisions: the solve phase's span, set for its duration.
	resolveSpan *obs.Span
	// protoJobs counts the jobs already clausified into the prototype
	// this generation (unchanged cones hash-cons to already-clausified
	// nodes, so re-clausification across generations is cheap).
	protoJobs int

	// wit memoizes canonical witnesses per FEC for this generation.
	wit map[int]*Violation

	// trivMu guards pairTriv and pairSyn, the pre-filter's per-binding
	// memos (fix workers probe it concurrently): the full verdict and its
	// syntactic legs alone (see pairSynUnchanged).
	trivMu   sync.Mutex
	pairTriv map[string]bool
	pairSyn  map[string]bool

	// psetMu guards the differential-match and exact-equivalence memos
	// shared by the pre-filter's exact leg and the pset backend.
	psetMu sync.Mutex
	diffMs map[[2]*acl.ACL][]header.Match
	pairEq map[[2]*acl.ACL]bool

	// walk interns what the generation's paths cross for the complete
	// procedures, and encPairs is the table of distinct encoded pairs its
	// indices point into (see pathWalk). Both grow as FECs reach a
	// procedure; neither is shared across goroutines.
	walk     *pathInterner
	encPairs []encPair

	// Verdict-cache view for this generation: the bound cache, the
	// change-impact bitmap (nil on the first generation), and the
	// previous generation's entries.
	vc       *VerdictCache
	affected []bool
	lastGen  []*fecVerdict

	stats CacheStats
}

// fec returns FEC i.
func (ctx *checkCtx) fec(i int) topo.FEC { return ctx.fecs[i] }

// checkContext returns the engine's cached per-generation check state,
// deriving it on first use: Theorem 4.1 preprocessing (differential
// rules and related-rule filtering), the encoded-pair fingerprints the
// verdict cache keys on, and the session (shared encoder + persistent
// solvers), which is reused across generations.
func (e *Engine) checkContext(o *obs.Observer) *checkCtx {
	if e.ckctx != nil {
		return e.ckctx
	}
	if e.sess == nil {
		e.sess = &checkSession{enc: newEncoder(e.Opts.UseTournament, o)}
	}
	ctx := &checkCtx{sess: e.sess, pairTriv: map[string]bool{}, pairSyn: map[string]bool{}}
	pairs := e.scopeACLPairs()
	ctx.pairs = pairs
	ctx.aclPairs = len(pairs)
	ctx.encodeACLs = make(map[string][2]*acl.ACL, len(pairs))
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
		for _, p := range pairs {
			ctx.encodeACLs[p.binding.ID()] = [2]*acl.ACL{
				acl.Related(orPermitAll(p.before), ctx.diff),
				acl.Related(orPermitAll(p.after), ctx.diff),
			}
		}
	} else {
		for _, p := range pairs {
			ctx.encodeACLs[p.binding.ID()] = [2]*acl.ACL{orPermitAll(p.before), orPermitAll(p.after)}
		}
	}
	ctx.diffRules = len(ctx.diff)
	ctx.pairFPs = make(map[string][2]uint64, len(ctx.encodeACLs))
	for id, pr := range ctx.encodeACLs {
		ctx.pairFPs[id] = [2]uint64{pr[0].Fingerprint(), pr[1].Fingerprint()}
	}
	e.ckctx = ctx
	return ctx
}

// solveCall is what one check call's solve phase shares across the
// pipeline's stages (solve → scan → decidePool → decideJob): the
// call's scope and result, its two parameters, and the observability
// hooks — the phase span parenting the per-FEC "fec.solve" spans, the
// all-backends and SAT-only decision-latency histograms, the progress
// task, and the count of jobs that reached a verdict.
type solveCall struct {
	cn      *canceller
	ctx     *checkCtx
	res     *CheckResult
	o       *obs.Observer
	workers int
	findAll bool

	span    *obs.Span
	hist    *obs.Histogram // check.fec_solve_ns
	satHist *obs.Histogram // fec.solve.ns{backend=sat}
	task    *obs.Task      // "check: FECs": FECs settled, of the scope's FEC count
	decided atomic.Int64
}

// solve is the detection pipeline of Algorithm 1: resolve → decide →
// merge over the FEC index space [0, nfec), stopping at the first
// violation unless FindAllViolations is set. Verdicts land in the per-FEC
// states, so the merge — and with it hits, Unknown, SolvedFECs and the
// witnesses — is a pure function of the states: identical at every worker
// count, whatever the scheduling. Returns the ascending violating FEC
// indices (one at most in first-violation mode) and the last FEC index
// the scan semantically examined.
func (e *Engine) solve(cn *canceller, ctx *checkCtx, res *CheckResult, root *obs.Span, o *obs.Observer) ([]int, int) {
	sp := startPhase(root, res.Timings, "solve")
	c := &solveCall{
		cn: cn, ctx: ctx, res: res, o: o, workers: max(e.Opts.Workers, 1), findAll: e.Opts.FindAllViolations,
		span:    sp.sp,
		hist:    o.Histogram("check.fec_solve_ns"),
		satHist: o.Histogram("fec.solve.ns{backend=sat}"),
		task:    o.StartTask("check: FECs", int64(ctx.nfec)),
	}
	ctx.resolveSpan = sp.sp
	last := ctx.nfec - 1
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
	var hits []int
	for i := 0; i <= last; i++ {
		if ctx.states[i] == fecViolating {
			hits = append(hits, i)
		}
	}
	sp.end(obs.KV("decided", c.decided.Load()), obs.KV("violations", len(hits)))
	return hits, last
}

// scan runs every FEC through resolve and decide on the engine's session
// — the content-addressed encoder and the warmed solvers that persist
// across calls and edits. Workers picks who decides. With one, each
// pending query is decided where it is resolved — on the calling
// goroutine and the session's sequential solver — so a first-violation
// stop builds no formula past the hit. With more, every FEC is resolved
// first and the pending queries fan out across decidePool.
//
// Returns the FEC index of the violation the scan stops at, or -1 (always
// -1 under FindAllViolations).
func (e *Engine) scan(c *solveCall) int {
	ctx, sess := c.ctx, c.ctx.sess
	var seq *smt.Solver
	var seqBase sat.Stats
	if c.workers == 1 {
		if sess.seq == nil {
			sess.seq = smt.SolverOn(sess.enc.b)
		}
		seq = sess.seq
		c.cn.register(seq)
		seqBase = seq.Stats()
	}
	// Resolve in order: differential skip, cached-verdict replay,
	// pre-filter and pset settle a FEC on the spot; the rest become
	// pending solver jobs. A budget-exhausted job is Unknown and the scan
	// continues (one pathological query must not starve the rest); a
	// cancellation stops it, and solve marks what is left.
	hit := -1
	var pend []checkJob
	for i := 0; i < ctx.nfec && !c.cn.cancelled(); i++ {
		st := e.resolveFEC(ctx, i)
		if st == fecPending {
			j := ctx.jobs[ctx.jobOf[i]]
			if seq == nil {
				pend = append(pend, j)
				continue
			}
			st = e.decideJob(c, seq, j)
		}
		c.task.Add(1)
		if st == fecViolating && !c.findAll {
			// Replayed or just decided: the scan stops here either way.
			hit = i
			break
		}
	}
	if seq != nil {
		recordSolverStats(c.o, &c.res.SolverStats, statsSince(seq.Stats(), seqBase))
	}
	if len(pend) > 0 {
		// Every pending job lies below a replayed hit, so a violation the
		// pool finds supersedes it.
		if first := e.decidePool(c, sess, pend); first >= 0 {
			hit = first
		}
	}
	ctx.maxNodes = int64(sess.enc.b.NumNodes())
	return hit
}

// poolWorker is one worker slot of decidePool: its solver (nil until the
// slot's first job, and again once a panic retires it), the stats
// baseline taken when the solver was acquired, and the slot's tallies
// for this call. runParallel hands a slot to one goroutine at a time, so
// the fields need no lock.
type poolWorker struct {
	solver *smt.Solver
	base   sat.Stats
	stats  sat.Stats
	jobs   int64
}

func (w *poolWorker) acquire(cn *canceller, s *smt.Solver) {
	w.solver = s
	cn.register(s)
	w.base = s.Stats()
}

// release folds the solver's work since acquire into the slot's stats
// and detaches it.
func (w *poolWorker) release() *smt.Solver {
	s := w.solver
	w.stats.Add(statsSince(s.Stats(), w.base))
	w.solver = nil
	return s
}

// decidePool fans the scan's pending jobs out across worker solvers. The
// jobs' cones are Tseitin-clausified once into the session's prototype
// and each worker deep-copies the resulting clause database (smt.Fork)
// inside its own goroutine, so clausification is paid once per distinct
// ACL rather than once per worker and the copies — the dominant fixed
// cost of fanning out — run concurrently. Forks return to the session
// when the pool drains and are reused, slot for slot, by later calls.
//
// Work is handed out in chunks of consecutive jobs (runParallel pulls
// chunks dynamically). A first-violation scan takes one job per chunk and
// skips anything past the lowest violating job found so far — it cannot
// be the answer. Under FindAllViolations every job must be decided
// anyway (minHit is never lowered, so nothing is skipped), and the list
// is cut into one contiguous chunk per slot instead: which solver decides
// which query — and with it the clauses it learns and the search it does —
// is then a function of the input rather than of goroutine timing, and
// adjacent FECs share cones, so a contiguous slice learns better than an
// interleaved one. Returns the FEC index of the lowest violation, or -1.
func (e *Engine) decidePool(c *solveCall, sess *checkSession, pend []checkJob) int {
	ctx := c.ctx
	if sess.proto == nil {
		sess.proto = smt.SolverOn(sess.enc.b)
	}
	for _, j := range ctx.jobs[ctx.protoJobs:] {
		sess.proto.EnsureClausified(j.query)
	}
	ctx.protoJobs = len(ctx.jobs)
	c.o.Gauge("smt.proto.clauses").Set(int64(sess.proto.NumClauses()))

	ws := make([]poolWorker, min(c.workers, len(pend)))
	take := min(len(ws), len(sess.free))
	for w, s := range sess.free[:take] {
		ws[w].acquire(c.cn, s)
	}
	idle := sess.free[take:]
	sess.free = nil
	chunks := len(pend)
	if c.findAll {
		chunks = len(ws)
	}
	var minHit atomic.Int64
	minHit.Store(int64(len(pend)))
	runParallel(c.o, len(ws), chunks, func(w, ch int) {
		if c.findAll {
			w = ch // slot ch owns chunk ch, on this call and the next
		}
		wk := &ws[w]
		done := false
		defer func() {
			if !done && wk.solver != nil {
				// A panic mid-search leaves the solver in an unspecified
				// state: retire it, so it never rejoins the pool and the
				// chunk's retry starts from a fresh fork.
				wk.release()
			}
		}()
		for k := ch * len(pend) / chunks; k < (ch+1)*len(pend)/chunks; k++ {
			// A retried chunk (see runParallel) holds jobs settled before
			// the panic.
			if int64(k) > minHit.Load() || ctx.states[pend[k].fecIdx] != fecPending {
				continue
			}
			if wk.solver == nil {
				wk.acquire(c.cn, sess.proto.Fork())
			}
			wk.jobs++
			c.task.Add(1)
			if e.decideJob(c, wk.solver, pend[k]) == fecViolating && !c.findAll {
				for {
					cur := minHit.Load()
					if int64(k) >= cur || minHit.CompareAndSwap(cur, int64(k)) {
						break
					}
				}
			}
		}
		done = true
	})
	jobsHist := c.o.Histogram("check.worker_jobs")
	var agg sat.Stats
	for w := range ws {
		if ws[w].solver != nil {
			sess.free = append(sess.free, ws[w].release())
		}
		agg.Add(ws[w].stats)
		jobsHist.Observe(ws[w].jobs)
	}
	sess.free = append(sess.free, idle...)
	recordSolverStats(c.o, &c.res.SolverStats, agg)
	if h := minHit.Load(); h < int64(len(pend)) {
		return pend[h].fecIdx
	}
	return -1
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
// counters, so persistent solvers report per-call deltas.
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
