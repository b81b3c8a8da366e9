// Package core implements the Jinjing engine — the paper's contribution:
// the check primitive (§4.1, Algorithm 1 with the differential-rules
// optimization of Theorem 4.1), the fix primitive (§4.2, counterexamples
// split into placement regions, each placed in closed form), the
// generate primitive
// (§5, ACL/dataplane equivalence classes and ACL synthesis), and the
// control extension (§6, desired-reachability consistency).
package core

import (
	"slices"
	"time"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/lai"
	"jinjing/internal/obs"
	"jinjing/internal/obs/declog"
	"jinjing/internal/topo"
)

// ControlMode is a §6 reachability-update verb: LAI's.
type ControlMode = lai.ControlMode

// The control modes.
const (
	Isolate  = lai.Isolate
	Open     = lai.Open
	Maintain = lai.Maintain
)

// Control is a resolved reachability intent: traffic matching Match from
// any of the From border interfaces to any of the To border interfaces is
// isolated, opened, or maintained. From and To are sets over the
// engine's Before snapshot (see IfaceSet). Earlier controls take
// precedence over later ones (§6).
type Control struct {
	From  IfaceSet
	To    IfaceSet
	Mode  ControlMode
	Match header.Match
}

// AppliesTo reports whether the control governs paths from p's entry
// border interface to its exit border interface.
func (c Control) AppliesTo(p topo.Path) bool {
	return c.From.Has(p.Src()) && c.To.Has(p.Dst())
}

// IfaceSet is a set of one network's interfaces: a bit per ordinal.
type IfaceSet []uint64

// NewIfaceSet returns the set of the given interfaces, all of one network.
func NewIfaceSet(ifaces ...*topo.Interface) IfaceSet {
	var s IfaceSet
	for _, i := range ifaces {
		o := i.Ord()
		for len(s) <= o/64 {
			s = append(s, 0)
		}
		s[o/64] |= 1 << (o % 64)
	}
	return s
}

// Has reports whether i is in the set.
func (s IfaceSet) Has(i *topo.Interface) bool {
	o := i.Ord()
	return o/64 < len(s) && s[o/64]&(1<<(o%64)) != 0
}

// Options tune the engine. The zero value disables every optimization;
// use DefaultOptions for the paper's full configuration. UseDifferential
// and OptimizeSynthesis carry the paper's with/without-optimization
// comparisons (Figures 4a–4c).
type Options struct {
	// UseDifferential enables the Theorem 4.1 preprocessing: a FEC whose
	// traffic no differential rule (or control) matches is skipped, since
	// nothing there can flip, and an update that changes no rule is
	// consistent at once. ACLs are decided as written either way; the set
	// algebra confines every decision to the differential rules' matches.
	UseDifferential bool
	// FindAllViolations makes Check enumerate one violation per FEC
	// instead of returning at the first (fix needs them all).
	FindAllViolations bool
	// OptimizeSynthesis enables the §5.5 optimizations (rule grouping, the
	// destination search tree) and model-preserving simplification of the
	// ACLs fix and generate produce (§5.5 "generating fewer ACL rules",
	// §4.2 "simplifying the final ACL").
	OptimizeSynthesis bool
	// NoExpansion, when positive, makes fix cut each placement region
	// down to its least packet — the strawman §4.2 warns needs over 10^31
	// iterations in the worst case — and stop after that many regions.
	// Exists only for the ablation experiment.
	NoExpansion int
	// Workers > 1 fans fix's per-FEC region split and placement and
	// generate's per-AEC synthesis out across that many goroutines. Results merge in
	// deterministic FEC/AEC order, so fixing plans and generated ACLs are
	// byte-identical for every worker count (pinned by the differential
	// fuzz harness and the CLI golden test). Check ignores it: its one
	// loop over FECs runs on the calling goroutine.
	Workers int
	// Obs receives spans, metrics, and progress from every primitive.
	// nil (the default) disables observability at zero cost: the no-op
	// path adds no allocations to the solve hot loop (guarded by a
	// testing.AllocsPerRun test in internal/obs).
	Obs *obs.Observer
	// Deadline, when positive, bounds each primitive call's wall-clock
	// time: the call runs under a context with this timeout, and on
	// expiry the check stops before its next FEC, or its next piece of a
	// split one, fix before its next region or placement branch,
	// and generate before its next AEC. It is the only bound: none of
	// the three runs a solver. Check reports the
	// undecided FECs in CheckResult.Unknown (partial results stay in
	// canonical order and are never cached); fix and generate refuse to
	// emit a plan and return ErrUnknownVerdicts. Combines with any
	// deadline already on the caller's context (the earlier one wins).
	Deadline time.Duration
	// Forensics makes Check attach per-FEC solve forensics — the route
	// that established each verdict (skip, cache replay, pset, pset-split),
	// the decision time, and unknown reasons — to
	// CheckResult.Forensics. Off by default: the raw route
	// and timing words are always recorded (two words per FEC), but the
	// result slice is materialized only on demand. Implied by
	// DecisionLog.
	Forensics bool
	// DecisionLog, when set, appends one structured JSONL audit record
	// per top-level check/fix/generate call to the decision ledger:
	// config fingerprints, per-FEC verdicts with route/cache-hit/
	// solve-time/unknown-reason forensics, witnesses, and wall/CPU
	// time. Verification checks run inside fix/generate are
	// covered by the parent record (derived engines clear the logger).
	// Never changes verdicts or stdout.
	DecisionLog *declog.Logger
	// Verdicts, when set, is the cross-engine FEC verdict cache that
	// makes re-checks incremental: engines bound to the same Before/
	// Scope/controls/encoding configuration replay cached per-FEC
	// verdicts and memoized counterexamples for every FEC whose bindings
	// carry unchanged encoded ACLs, byte-identical to a cold run. The cache
	// resets itself when a differently-configured engine binds it. A
	// jinjingd session installs one; Run does not, and direct Engine
	// users opt in with NewVerdictCache. nil disables caching (every
	// check is cold).
	Verdicts *VerdictCache
}

// DefaultOptions returns the paper's full configuration.
func DefaultOptions() Options {
	return Options{
		UseDifferential:   true,
		OptimizeSynthesis: true,
	}
}

// Engine runs Jinjing primitives over a network pair (before/after the
// update) within a scope.
type Engine struct {
	Before   *topo.Network
	After    *topo.Network
	Scope    *topo.Scope
	Controls []Control
	// Allow lists the ACL attachment points fix may change and generate
	// may write (the LAI allow region).
	Allow []topo.ACLBinding
	Opts  Options

	// parentSpan, when set, nests the primitives' root spans under an
	// enclosing span (Run's "run" span); primitives called directly
	// emit root-level spans.
	parentSpan *obs.Span

	// fecSrc, computed lazily, is the forwarding index — one walk of
	// Before's routing DAG yielding paths, classes and the FEC grouping —
	// and fecs its full materialization. Shared with derived engines and
	// kept by UpdateAfter.
	fecSrc *topo.FECSource
	fecs   []topo.FEC

	// bindIdx is the lazily built binding index: a dense index per
	// on-path binding, each FEC's distinct bindings (its key layout and its
	// change-impact reach), and the structure word a snapshot digests.
	// Before-derived, so it is shared with derived verification engines
	// and survives UpdateAfter.
	bindIdx *bindingIndex

	// snapDigest memoizes verdictSnapshotDigest for snapDigestN FECs:
	// the digest fingerprints every scoped Before ACL, and a snapshotting
	// daemon recomputes it on every periodic Export. Engine-lifetime
	// state like paths/fecs (everything it digests is Before-derived
	// and fixed at construction).
	snapDigest  string
	snapDigestN int

	// ckctx caches the check pipeline's per-generation state (one
	// Before/After pair): differential rules, encoded pairs, per-FEC
	// resolution, the set algebra's lazy indexes. Dropped by
	// UpdateAfter and ReleaseSession; see checkCtx.
	ckctx *checkCtx
	// tab is the lineage's ACL table when no verdict cache is installed
	// (see aclTable); shared with derived engines.
	tab *aclTable
	// kept, set on a fix's verification engine, holds the verdicts it
	// keeps on every FEC the plan cannot flip (see keptVerdict).
	kept *fixVerdicts
}

// New builds an engine. after may equal before (for pure generate tasks).
func New(before, after *topo.Network, scope *topo.Scope, opts Options) *Engine {
	if after == nil {
		after = before
	}
	return &Engine{Before: before, After: after, Scope: scope, Opts: opts}
}

// UpdateAfter replaces the engine's After snapshot in place — the
// incremental edit entry point. Every Before-derived artifact (paths,
// classes, FECs, the binding index) and the bound verdict cache
// survive; the per-generation check state, SAT builder and solver
// included, is dropped, so the next Check re-solves just the FECs the
// edit can reach and replays cached verdicts for the rest.
func (e *Engine) UpdateAfter(after *topo.Network) {
	if after == nil {
		after = e.Before
	}
	e.After = after
	e.ckctx = nil
}

// ReleaseSession drops the current generation's check state, as
// UpdateAfter does, without changing the After snapshot: the next Check
// derives it again, cold on everything the verdict cache (which
// survives) does not replay.
func (e *Engine) ReleaseSession() {
	e.ckctx = nil
}

// derived builds a verification engine over a new After snapshot that
// shares the parent's Before-derived artifacts — paths, classes, FECs,
// binding index — its ACL table and its verdict cache, so the
// verification re-checks of fix and generate only re-solve the FECs
// their edits touched. It shares no check state: its generation is its
// own.
func (e *Engine) derived(after *topo.Network, parent *obs.Span) *Engine {
	opts := e.Opts
	// The parent primitive's ledger record covers its verification
	// checks; a derived engine logging them too would double-count.
	opts.DecisionLog = nil
	return &Engine{
		Before: e.Before, After: after, Scope: e.Scope,
		Controls: e.Controls, Opts: opts, parentSpan: parent,
		fecSrc: e.fecSrc, fecs: e.fecs, bindIdx: e.bindIdx,
		tab: e.aclTable(),
	}
}

// aclTable returns the table the engine's lineage interns ACL contents in:
// the verdict cache's when one is installed — the cache holds the
// cross-engine identity of a Before — and otherwise the engine's own,
// shared with the engines derived from it.
func (e *Engine) aclTable() *aclTable {
	if vc := e.Opts.Verdicts; vc != nil {
		return &vc.acls
	}
	if e.tab == nil {
		e.tab = &aclTable{}
	}
	return e.tab
}

// Paths returns the structural path set P_Ω, computed once.
func (e *Engine) Paths() []topo.Path { return e.fecSource().Paths() }

// controlPrefixes collects the prefixes named in control intents so
// traffic classes are atomized against them (§6: "isolate and open
// related prefixes need to be taken into account").
func (e *Engine) controlPrefixes() []header.Prefix {
	var out []header.Prefix
	for _, c := range e.Controls {
		if !c.Match.Dst.IsAny() {
			out = append(out, c.Match.Dst)
		}
	}
	return out
}

// Classes returns X_Ω, the entering-traffic destination classes.
func (e *Engine) Classes() []header.Prefix { return e.fecSource().Classes() }

// FECs returns the forwarding equivalence classes of the entering
// traffic: the forwarding index, fully materialized.
func (e *Engine) FECs() []topo.FEC {
	if e.fecs == nil {
		e.fecs = e.fecSource().All()
		if e.Opts.Verdicts != nil {
			// Derive the binding index alongside the FEC structure it
			// mirrors: both are fixed for the engine's lifetime, and doing
			// it here keeps the first cache-addressed check — notably the
			// first check after a snapshot restore — off the hook.
			e.bindingIndex()
		}
	}
	return e.fecs
}

// fecSource returns the forwarding index, built once by walking
// Before's routing DAG with the FIB atoms refined by the control
// prefixes. Paths, Classes and FECs are views of it.
func (e *Engine) fecSource() *topo.FECSource {
	if e.fecSrc == nil {
		classes := e.Before.EnteringTraffic(e.Scope, e.controlPrefixes()...)
		e.fecSrc = e.Before.ForwardingIndex(e.Scope, classes)
		e.obsv().Gauge("topo.paths.truncated").Set(int64(e.fecSrc.Truncated()))
	}
	return e.fecSrc
}

// NumFECs returns the number of forwarding equivalence classes.
func (e *Engine) NumFECs() int { return len(e.FECs()) }

// moveBinding returns the binding at b's position in network n, found by
// name: ordinals of two networks are unrelated (see bindingTable), so a
// binding crosses from one network to another only here.
func moveBinding(b topo.ACLBinding, n *topo.Network) (topo.ACLBinding, error) {
	if b.Iface.Device.Network() == n {
		return b, nil
	}
	i, err := n.LookupInterface(b.Iface.ID())
	if err != nil {
		return topo.ACLBinding{}, err
	}
	return topo.ACLBinding{Iface: i, Dir: b.Dir}, nil
}

// aclPair is the before/after ACLs at one binding, and their table IDs.
type aclPair struct {
	binding topo.ACLBinding // Before's, or After's where Before lacks the interface
	before  *acl.ACL        // nil = permit all
	after   *acl.ACL
	ids     [2]int32
}

// scopeACLPairs collects the before/after ACL pair at every binding that
// carries an ACL in either snapshot: Before's bindings, then those only
// After binds.
func (e *Engine) scopeACLPairs() []aclPair {
	var seen bindingTable[bool]
	var out []aclPair
	for _, a := range slices.Concat(e.Before.ACLGroup(e.Scope), e.After.ACLGroup(e.Scope)) {
		b, err := moveBinding(a, e.Before)
		switch {
		case err != nil: // on no path of Before: it only joins the differential set
			out = append(out, aclPair{binding: a, after: a.Iface.ACL(a.Dir)})
		case !*seen.at(b):
			*seen.at(b) = true
			p := aclPair{binding: b, before: b.Iface.ACL(b.Dir)}
			if a, err := moveBinding(b, e.After); err == nil {
				p.after = a.Iface.ACL(a.Dir)
			}
			out = append(out, p)
		}
	}
	return out
}
