package core

import (
	"runtime"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/pset"
	"jinjing/internal/topo"
)

// checkCtx is one generation of the check pipeline — the derived state
// for the engine's current Before/After pair: differential rules, each
// in-scope binding's related-filtered encoding pair as ACL-table IDs, and
// the per-FEC incremental resolution state (see resolveFEC). It is cached
// on the engine and dropped by UpdateAfter and ReleaseSession, and
// everything it holds dies with it — the set algebra's lazy indexes
// included.
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
	// peakHeap is the call's sampled heap (see sampleHeap).
	peakHeap int64

	// Incremental resolution state (sized by prepareIncremental).
	incReady bool
	states   []fecState
	entries  []*fecVerdict
	// unknownReason says why states[i] == fecUnknown (cancelled, budget
	// exhausted, ...).
	unknownReason []string
	// Solve forensics (see forensics.go): routes[i] records how FEC i's
	// verdict was established, solveNS[i] its set-algebra decision time.
	routes  []fecRoute
	solveNS []int64
	// pathShapes sums the distinct path shapes of the FECs the current
	// call compiled (the check.path_shapes gauge).
	pathShapes int64

	// wit memoizes canonical witnesses per FEC for this generation, and
	// witPkt holds the witness packet of each FEC this generation's set
	// algebra decided violating (see violations).
	wit    map[int]*Violation
	witPkt map[int]header.Packet

	// walk interns what the generation's paths cross for the set
	// algebra, and encPairs is the table of distinct encoded pairs its
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

// solveCall is what one call's solve phase shares between decide and
// resolveFEC: the call's scope and the observability hooks — the phase
// span parenting the per-FEC "fec.solve" spans, the decision-latency
// histogram, and the progress task.
type solveCall struct {
	cn  *canceller
	ctx *checkCtx
	o   *obs.Observer

	span *obs.Span
	hist *obs.Histogram // check.fec_solve_ns
	task *obs.Task      // "check: FECs": FECs settled, of the scope's FEC count
}

// decide is the detection pipeline of Algorithm 1 and the one place a
// FEC's verdict is established, for check and fix alike: it resolves the
// FECs over the index space [0, nfec) in order, on the calling
// goroutine, under the caller's solve-phase span, and stops at the first
// violation unless findAll, so a first-violation stop decides nothing
// past the hit. Differential skip, cached-verdict replay and the set
// algebra each settle a FEC on the spot; an interrupted decision is
// Unknown and the scan goes on, and a cancellation stops it. Verdicts
// land in the per-FEC states, so the merge — and with it hits, Unknown,
// SolvedFECs, the witnesses and the FECs fix seeks in — is a pure
// function of the states. Returns the ascending violating FEC indices
// (one at most in first-violation mode) and the last FEC index the scan
// semantically examined.
func (e *Engine) decide(cn *canceller, ctx *checkCtx, span *obs.Span, findAll bool) (hits []int, last int) {
	o := e.obsv()
	c := &solveCall{
		cn: cn, ctx: ctx, o: o,
		span: span,
		hist: o.Histogram("check.fec_solve_ns"),
		task: o.StartTask("check: FECs", int64(ctx.nfec)),
	}
	last = ctx.nfec - 1
	for i := 0; i < ctx.nfec && !cn.cancelled(); i++ {
		st := e.resolveFEC(c, i)
		c.task.Add(1)
		if st == fecViolating && !findAll {
			last = i // replayed or just decided: the scan stops here either way
			break
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
	return hits, last
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
