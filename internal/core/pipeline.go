package core

import (
	"context"
	"runtime"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/pset"
	"jinjing/internal/topo"
)

// checkCtx is one generation of the check pipeline — the derived state
// for the engine's current Before/After pair: differential rules, each
// in-scope binding's (before, after) ACLs as written, as ACL-table IDs,
// and the per-FEC incremental resolution state (see resolveFEC). It is
// cached on the engine and dropped by UpdateAfter and ReleaseSession, and
// everything it holds dies with it; the ACL table, and the destination
// indexes it owns, outlive it.
type checkCtx struct {
	// tab is the ACL table the generation's IDs were drawn from.
	tab *aclTable

	pairs []aclPair
	diff  []acl.Rule              // the Theorem 4.1 skip's rules: each changed ID pair's differential once, and the controls' matches
	diffs map[[2]int32][]acl.Rule // per changed ID pair: its differential rules (see differential)
	// words holds each Before binding's key word for this generation: its
	// encoded (before, after) ACL IDs (see pairWord), 0 where neither
	// snapshot binds an ACL. acls resolves the IDs to their contents.
	words    bindingTable[uint64]
	acls     []*acl.ACL
	fastPath bool

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
	// unknownReason says why states[i] == fecUnknown (cancelled, or an
	// injected fault).
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
	// algebra, encPairs is the table of distinct encoded pairs its
	// indices point into (see pathWalk), and ctrlsOf holds each border
	// pair's controls (see ctrlsOn). diffIx indexes each changed pair's
	// differential rules by destination (see diffWithin); folded counts
	// the rules the region folds visit. All grow as FECs reach a
	// procedure; none is shared across goroutines.
	walk     *pathInterner
	encPairs []encPair
	ctrlsOf  map[uint64][]int32
	diffIx   map[[2]int32]*pset.Index
	folded   int64

	// vc is the bound verdict cache (nil when none is installed).
	vc *VerdictCache

	stats CacheStats
}

// fec returns FEC i.
func (ctx *checkCtx) fec(i int) topo.FEC { return ctx.fecs[i] }

// checkContext returns the engine's cached per-generation check state,
// deriving it on first use: each binding's full before and after ACLs as
// the ACL-table IDs every later stage and the verdict cache key on, then,
// with UseDifferential, the differential rules the Theorem 4.1 FEC skip
// reads (fecTouchesDiff) and the fast path of an update that changes
// nothing. No ACL is rewritten: the set algebra confines each FEC's
// decision to its flip region (flipRegion), so an ID names a binding's
// content as written, whatever else the update changed.
func (e *Engine) checkContext() *checkCtx {
	if e.ckctx != nil {
		return e.ckctx
	}
	tab := e.aclTable()
	ctx := &checkCtx{tab: tab, pairs: e.scopeACLPairs(), diffs: map[[2]int32][]acl.Rule{}}
	words := ctx.words.on(e.Before)
	for k := range ctx.pairs {
		p := &ctx.pairs[k]
		p.ids = [2]int32{tab.intern(p.before), tab.intern(p.after)}
		if b := p.binding; b.Iface.Device.Network() == e.Before {
			words[bindingOrd(b)] = pairWord(p.ids)
		}
	}
	ctx.acls = tab.view()
	e.ckctx = ctx
	if e.Opts.UseDifferential {
		for _, p := range ctx.pairs {
			if _, seen := ctx.diffs[p.ids]; !seen && p.ids[0] != p.ids[1] {
				ctx.diff = append(ctx.diff, ctx.differential(p.ids)...)
			}
		}
		// §6: a control's match joins the differential set, so no FEC
		// whose traffic it governs is skipped — an `all` control like any
		// other, which skips none.
		for _, c := range e.Controls {
			ctx.diff = append(ctx.diff, acl.Rule{Action: acl.Permit, Match: c.Match})
		}
		if len(ctx.diff) == 0 && len(e.Controls) == 0 {
			ctx.fastPath = true
			return ctx
		}
	}
	ctx.diffIx = map[[2]int32]*pset.Index{}
	ctx.ctrlsOf = map[uint64][]int32{}
	return ctx
}

// solveCall is what one call's solve phase shares between decide and
// resolveFEC: the call's scope and the observability hooks — the phase
// span parenting the per-FEC "fec.solve" spans, the decision-latency
// histogram, and the progress task.
type solveCall struct {
	call context.Context
	ctx  *checkCtx
	o    *obs.Observer

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
func (e *Engine) decide(call context.Context, ctx *checkCtx, span *obs.Span, findAll bool) (hits []int, last int) {
	o := e.obsv()
	c := &solveCall{
		call: call, ctx: ctx, o: o,
		span: span,
		hist: o.Histogram("check.fec_solve_ns"),
		task: o.StartTask("check: FECs", int64(ctx.nfec)),
	}
	last = ctx.nfec - 1
	for i := 0; i < ctx.nfec && call.Err() == nil; i++ {
		st := e.resolveFEC(c, i)
		c.task.Add(1)
		if st == fecViolating && !findAll {
			last = i // replayed or just decided: the scan stops here either way
			break
		}
	}
	c.task.Done()

	if call.Err() != nil {
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
