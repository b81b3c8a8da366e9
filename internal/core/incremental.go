package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"jinjing/internal/faultinject"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/pset"
	"jinjing/internal/topo"
)

// This file is the incremental-verification subsystem: a cross-engine
// FEC verdict cache, the change-impact analysis that reports which FECs
// an edit can reach, and the glue that lets check replay cached
// verdicts (and memoized counterexamples) byte-identically to a cold
// run. The design is content-addressed: a FEC's verdict is a pure
// function of the encoded before/after ACL contents at the bindings its
// paths cross (plus the engine's controls, which bind the cache), so
// "invalidation" is simply a changed key — operator edits miss only on
// the FECs they actually touch. Every replay compares the full key; the
// change-impact analysis only reports the scope of an edit.

// fecState classifies one FEC within a check generation (one After
// snapshot). States are resolved lazily in FEC order and memoized on
// the generation's context.
type fecState uint8

const (
	// fecUnresolved: not yet examined this generation.
	fecUnresolved fecState = iota
	// fecSkipped: the Theorem 4.1 differential fast path — no diff rule
	// overlaps the FEC. Depends on the global diff, so it is never
	// cached across generations.
	fecSkipped
	// fecOK: the query has no counterexample — decided now, in an
	// earlier call, or replayed from the verdict cache.
	fecOK
	// fecViolating: the query has a counterexample.
	fecViolating
	// fecUnknown: the query reached no verdict this call — the call was
	// cancelled, or an injected fault interrupted the decision. Never
	// cached (see markUnknown) and resolved again by the next call on
	// this generation.
	fecUnknown
)

// CacheStats reports the incremental-verification activity of one
// primitive call: verdict-cache traffic, the deciding backends, and the
// change-impact analysis of the generation (bindings whose encoded ACL
// pair changed since the cache's previous generation, and the FECs whose
// paths cross one of them). Counts are per-call deltas except
// ChangedBindings and AffectedFECs, which describe the generation itself.
type CacheStats struct {
	FECCacheHits    int64
	FECCacheMisses  int64
	ChangedBindings int
	AffectedFECs    int

	// Decision activity: FECs the packet-set algebra decided on their
	// flip region whole, and FECs whose flip region overflowed the cube
	// budget and were decided by splitting it. Together they are the FECs
	// the call decided.
	PsetDecided int64
	PsetBailout int64
}

// add folds another primitive's stats in (fix aggregates its own scan
// plus its verification check's).
func (s *CacheStats) add(t CacheStats) {
	s.FECCacheHits += t.FECCacheHits
	s.FECCacheMisses += t.FECCacheMisses
	s.ChangedBindings += t.ChangedBindings
	s.AffectedFECs += t.AffectedFECs
	s.PsetDecided += t.PsetDecided
	s.PsetBailout += t.PsetBailout
}

// since returns the per-call delta against a baseline snapshot,
// carrying the generation-scoped impact numbers through unchanged.
func (s CacheStats) since(base CacheStats) CacheStats {
	return CacheStats{
		FECCacheHits:    s.FECCacheHits - base.FECCacheHits,
		FECCacheMisses:  s.FECCacheMisses - base.FECCacheMisses,
		ChangedBindings: s.ChangedBindings,
		AffectedFECs:    s.AffectedFECs,
		PsetDecided:     s.PsetDecided - base.PsetDecided,
		PsetBailout:     s.PsetBailout - base.PsetBailout,
	}
}

// recordCacheStats mirrors one call's deltas into the metrics registry.
func recordCacheStats(o *obs.Observer, s CacheStats) {
	o.Counter("fec.cache.hits").Add(s.FECCacheHits)
	o.Counter("fec.cache.misses").Add(s.FECCacheMisses)
	o.Counter("backend.pset.selected").Add(s.PsetDecided)
	o.Counter("backend.bailout").Add(s.PsetBailout)
}

// fecVerdict is one cached verdict: the FEC's content key and how its
// Equation-3 query came out (violating), plus the lazily memoized
// canonical counterexample for violating entries. Entries are immutable
// except wit, which is set under the cache mutex.
type fecVerdict struct {
	key       []uint64
	violating bool
	wit       *Violation
}

// VerdictCache caches per-FEC check verdicts across engines and After
// snapshots. It binds to a configuration — the Before network, the
// scope, and the controls — on first use and resets itself whenever a
// differently-configured engine touches it, so a stale cache can never
// leak verdicts across incompatible configurations. Within one
// configuration, entries are keyed by the encoded before/after ACL
// contents at each distinct binding the FEC's paths cross (see fecKey),
// as IDs of the cache's ACL table: any edit (an operator's update, a
// fix's repair rules) changes the keys of exactly the FECs it can
// affect, and every other FEC replays its cached verdict. A jinjingd
// session holds one; a one-shot Run installs none. Safe for concurrent
// use.
type VerdictCache struct {
	mu     sync.Mutex
	bound  bool
	before *topo.Network
	scope  *topo.Scope
	cfg    string

	// byFEC indexes entries per FEC by key hash, with a full-key
	// comparison resolving hash collisions.
	byFEC []map[uint64][]*fecVerdict

	// lastWords is each binding's key word in the last committed check,
	// by bindingOrd over the bound Before: the baseline the change-impact
	// analysis measures an edit against.
	lastWords []uint64

	// acls is the ACL table of every engine bound to the cache; key words
	// name its IDs (see pairWord). It has its own lock and survives bind
	// resets — it drops nothing, so an ID means one content for the
	// cache's lifetime and equal keys mean equal encoded contents.
	acls aclTable
}

// NewVerdictCache returns an empty cache. Share one across the engines
// of an interactive session to make re-checks after edits incremental;
// Run, which checks each update once, installs none.
func NewVerdictCache() *VerdictCache { return &VerdictCache{} }

// cacheConfig digests the engine state a cached verdict depends on
// beyond the FEC content key: the control intents. (UseDifferential is
// deliberately absent — it only skips FECs, which are never cached, and
// the key names the ACLs as written either way. Whether a verdict was
// decided whole or split is absent too: both decide the same query
// exactly. Workers and FindAllViolations cannot change any verdict.)
func (e *Engine) cacheConfig() string {
	var b strings.Builder
	for _, c := range e.Controls {
		fmt.Fprintf(&b, ";%v %v from=%s to=%s", c.Mode, c.Match, c.From.names(e.Before), c.To.names(e.Before))
	}
	return b.String()
}

// names lists the set's interfaces of n by name, sorted, comma-separated.
func (s IfaceSet) names(n *topo.Network) string {
	var ids []string
	for _, d := range n.Devices {
		for _, i := range d.Interfaces {
			if s.Has(i) {
				ids = append(ids, i.ID())
			}
		}
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// bind points the cache at the engine's configuration, dropping all
// entries when it differs from the bound one (a new Before snapshot, a
// changed scope or control set).
func (vc *VerdictCache) bind(e *Engine, nfec int) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	cfg := e.cacheConfig()
	if vc.bound && vc.before == e.Before && vc.scope == e.Scope && vc.cfg == cfg && len(vc.byFEC) == nfec {
		return
	}
	vc.bound = true
	vc.before, vc.scope, vc.cfg = e.Before, e.Scope, cfg
	vc.byFEC = make([]map[uint64][]*fecVerdict, nfec)
	vc.lastWords = nil
}

// pairWord is a bound binding's key word: its encoded (before, after)
// ACL IDs in one word, never 0 (0 is an unbound binding).
func pairWord(ids [2]int32) uint64 {
	return (uint64(ids[0])<<32 | uint64(ids[1])) + 1
}

// wordPair inverts pairWord.
func wordPair(w uint64) [2]int32 {
	w--
	return [2]int32{int32(w >> 32), int32(uint32(w))}
}

// FNV-1a parameters: hashKey, the binding index's structure word and the
// fingerprints fold words with them.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// hashKey is FNV-1a over the key words.
func hashKey(key []uint64) uint64 {
	h := uint64(offset64)
	for _, w := range key {
		h ^= w
		h *= prime64
	}
	return h
}

// lookup returns the entry for FEC i under the given key, or nil.
func (vc *VerdictCache) lookup(i int, key []uint64) *fecVerdict {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if i >= len(vc.byFEC) || vc.byFEC[i] == nil {
		return nil
	}
	for _, ent := range vc.byFEC[i][hashKey(key)] {
		if slices.Equal(ent.key, key) {
			return ent
		}
	}
	return nil
}

// insert stores an entry for FEC i (no-op on a duplicate key: the first
// stored verdict for a content key is as good as any later one).
func (vc *VerdictCache) insert(i int, ent *fecVerdict) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.insertLocked(i, ent)
}

// insertLocked is insert with vc.mu already held (Import shares it).
func (vc *VerdictCache) insertLocked(i int, ent *fecVerdict) {
	if i >= len(vc.byFEC) {
		return
	}
	m := vc.byFEC[i]
	if m == nil {
		m = make(map[uint64][]*fecVerdict)
		vc.byFEC[i] = m
	}
	h := hashKey(ent.key)
	for _, old := range m[h] {
		if slices.Equal(old.key, ent.key) {
			return
		}
	}
	m[h] = append(m[h], ent)
}

// Size reports how many per-FEC verdicts the cache currently holds
// across all content keys — the warm-state figure a session host (the
// jinjingd daemon) surfaces in its status endpoints. 0 for an unbound
// or freshly reset cache.
func (vc *VerdictCache) Size() int {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	n := 0
	for _, m := range vc.byFEC {
		for _, ents := range m {
			n += len(ents)
		}
	}
	return n
}

// witness returns the entry's memoized counterexample (nil when not yet
// computed).
func (vc *VerdictCache) witness(ent *fecVerdict) *Violation {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return ent.wit
}

// memoWitness backfills the entry's counterexample, keeping the first.
func (vc *VerdictCache) memoWitness(ent *fecVerdict, v *Violation) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if ent.wit == nil {
		ent.wit = v
	}
}

// prepareIncremental sizes the generation's per-FEC resolution state,
// binds the verdict cache, and runs the change-impact analysis against
// the cache's previous generation — a scope report (ChangedBindings,
// AffectedFECs); every replay still goes through fecKey. Idempotent per
// context.
func (e *Engine) prepareIncremental(ctx *checkCtx) {
	if ctx.incReady {
		return
	}
	ctx.incReady = true
	ctx.src = e.fecSource()
	ctx.fecs = e.FECs()
	ctx.nfec = len(ctx.fecs)
	n := ctx.nfec
	ctx.states = make([]fecState, n)
	ctx.entries = make([]*fecVerdict, n)
	ctx.unknownReason = make([]string, n)
	ctx.routes = make([]fecRoute, n)
	ctx.solveNS = make([]int64, n)
	ctx.wit = make(map[int]*Violation)
	ctx.witPkt = make(map[int]header.Packet)
	vc := e.Opts.Verdicts
	if vc == nil || ctx.fastPath || &vc.acls != ctx.tab {
		// fastPath generations (an empty differential) never consult or
		// commit the cache — fix reaches here only to size the states. A
		// cache installed after the generation's IDs were drawn from
		// another table cannot read them.
		return
	}
	vc.bind(e, n)
	ctx.vc = vc

	vc.mu.Lock()
	last := vc.lastWords
	vc.mu.Unlock()
	if last == nil {
		return
	}
	// Change-impact analysis: a binding changed when its key word differs
	// from the previous generation's (including a binding bound in only
	// one of the two); the affected FECs are those whose binding list
	// holds a changed binding. (Before only grows, so the last
	// generation's table is no longer.)
	words := ctx.words.vals
	changed := make([]bool, len(words))
	for o, w := range words {
		if changed[o] = o >= len(last) && w != 0 || o < len(last) && w != last[o]; changed[o] {
			ctx.stats.ChangedBindings++
		}
	}
	for _, binds := range e.bindingIndex().binds {
		if slices.ContainsFunc(binds, func(o int32) bool { return changed[o] }) {
			ctx.stats.AffectedFECs++
		}
	}
}

// bindingIndex is the Before-derived index of the bindings the FECs'
// paths cross: binds[i] lists FEC i's distinct bindings in first-crossing
// order, by bindingOrd over Before, and structure digests what a key's
// meaning rests on — every path's binding sequence and every FEC's
// classes. Built once per engine and shared across generations and with
// derived verification engines.
type bindingIndex struct {
	binds     [][]int32
	structure uint64
}

// bindingIndex builds (once) the engine's binding index in one walk of
// the FECs' paths. Called from FECs when a cache is installed and from
// the single-goroutine resolve path (prepareIncremental, fecKey).
func (e *Engine) bindingIndex() *bindingIndex {
	if e.bindIdx != nil {
		return e.bindIdx
	}
	fecs := e.FECs()
	bi := &bindingIndex{binds: make([][]int32, len(fecs))}
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	// The structure word numbers the bindings densely in first-crossing
	// order and digests each one's name once, when first crossed: a
	// snapshot's digest must not depend on interface numbering.
	var dense bindingTable[int32] // 1 + the binding's dense index; 0: not yet seen
	// stamp[j] is 1 + the last FEC that listed binding j: the per-FEC
	// deduplication, without sorting.
	var stamp []int32
	for i, fec := range fecs {
		mix(uint64(len(fec.Classes)))
		for _, c := range fec.Classes {
			mix(uint64(c.Addr)<<8 | uint64(c.Len))
		}
		mix(uint64(len(fec.Paths)))
		var binds []int32
		for _, p := range fec.Paths {
			mix(uint64(len(p.Hops)))
			at := dense.of(p)
			for _, hop := range p.Hops {
				for _, b := range [2]topo.ACLBinding{{Iface: hop.In, Dir: topo.In}, {Iface: hop.Out, Dir: topo.Out}} {
					o := bindingOrd(b)
					j := at[o] - 1
					if j < 0 {
						j = int32(len(stamp))
						at[o] = j + 1
						stamp = append(stamp, 0)
						id := b.ID()
						for k := 0; k < len(id); k++ {
							mix(uint64(id[k]))
						}
						mix(0x1f) // ID separator: "ab"+"c" != "a"+"bc"
					}
					mix(uint64(j))
					if stamp[j] != int32(i+1) {
						stamp[j] = int32(i + 1)
						binds = append(binds, int32(o))
					}
				}
			}
		}
		bi.binds[i] = binds
	}
	bi.structure = h
	e.bindIdx = bi
	return bi
}

// fecKey is the FEC's content address: one word per distinct binding its
// paths cross, in the index's first-crossing order — 0 for an unbound
// binding, or its encoded (before, after) ACL IDs (see pairWord). Equation
// 3 reads the FEC only through the ACLs at those bindings, and the path
// structure that places them is fixed by the Before-derived index, so
// equal keys mean the check pipeline encodes identical formulas for this
// FEC — same verdict, same canonical counterexample. Each call allocates
// the key afresh; a cache entry stores it as is.
func (e *Engine) fecKey(ctx *checkCtx, i int) []uint64 {
	binds := e.bindingIndex().binds[i]
	key := make([]uint64, len(binds))
	for k, o := range binds {
		key[k] = ctx.words.vals[o]
	}
	return key
}

// resolveFEC classifies FEC i for this generation: a fix verification's
// kept verdict, the differential skip (never cached — it depends on the
// global diff), the verdict cache under the full content key, then the
// set algebra (violations). Must be called from one goroutine at a time;
// the state is memoized, except that an Unknown left by a cancelled or
// interrupted earlier call is resolved again.
func (e *Engine) resolveFEC(c *solveCall, i int) fecState {
	ctx := c.ctx
	if st := ctx.states[i]; st != fecUnresolved && st != fecUnknown {
		return st
	}
	fec := ctx.fec(i)
	if e.kept != nil && e.Opts.UseDifferential && e.keptVerdict(ctx, fec, i) {
		return ctx.states[i]
	}
	if e.Opts.UseDifferential && !e.fecTouchesDiff(fec, ctx.diff) {
		ctx.states[i] = fecSkipped
		ctx.routes[i] = routeSkip
		return fecSkipped
	}
	var key []uint64
	if ctx.vc != nil {
		key = e.fecKey(ctx, i)
		if ent := ctx.vc.lookup(i, key); ent != nil {
			return ctx.adopt(i, ent)
		}
		ctx.stats.FECCacheMisses++
	}
	// Every FEC past the skip and the replay is decided in the set
	// algebra, over the FEC's distinct path shapes, compiled here and
	// nowhere earlier. The CheckSolve fault site guards the decision.
	shapes := e.compileShapes(ctx, fec)
	ctx.pathShapes += int64(len(shapes))
	fsp := c.span.Child("fec.solve", obs.KV("fec", i), obs.KV("backend", "pset"),
		obs.KV("paths", len(fec.Paths)), obs.KV("shapes", len(shapes)))
	defer fsp.End()
	start, folded := time.Now(), ctx.folded
	var (
		viol   pset.Set
		ds     decideStats
		reason string
	)
	if reason = faultReason(faultinject.CheckSolve); reason == "" {
		var ok bool
		if viol, ds, ok = e.violations(c.call, ctx, fec, shapes, false); !ok {
			reason = reasonCancelled
		}
	}
	ns := time.Since(start).Nanoseconds()
	ctx.solveNS[i] += ns
	folded = ctx.folded - folded // rules the region folds visited
	c.o.Counter("check.pset.rules_folded").Add(folded)
	fsp.SetAttr("region_cubes", ds.regionCubes)
	fsp.SetAttr("rules_folded", folded)
	if reason != "" {
		ctx.markUnknown(i, reason)
		fsp.SetAttr("verdict", "unknown")
		return fecUnknown
	}
	// The per-FEC decision-latency histogram: its count stays equal to a
	// cold run's SolvedFECs. The backend-labelled one holds the same
	// latencies under the name they have always had.
	c.hist.Observe(ns)
	c.o.Histogram("fec.solve.ns{backend=pset}").Observe(ns)
	if ds.split {
		ctx.stats.PsetBailout++
		ctx.routes[i] = routeSplit
		fsp.SetAttr("leaves", ds.leaves)
	} else {
		ctx.stats.PsetDecided++
		ctx.routes[i] = routePset
	}
	witness, violating := viol.MinPacket()
	if violating {
		ctx.witPkt[i] = witness
	}
	ctx.finishVerdict(i, key, violating)
	fsp.SetAttr("verdict", verdictString(ctx.states[i]))
	return ctx.states[i]
}

// adopt replays a cached entry as FEC i's state for this generation.
func (ctx *checkCtx) adopt(i int, ent *fecVerdict) fecState {
	ctx.stats.FECCacheHits++
	ctx.entries[i] = ent
	ctx.routes[i] = routeCache
	ctx.states[i] = fecOK
	if ent.violating {
		ctx.states[i] = fecViolating
	}
	return ctx.states[i]
}

// markUnknown records that FEC i's query reached no verdict this call,
// and why. Unlike finishVerdict it writes no cache entry, so an Unknown is
// never replayed as a verdict and the next unrestricted call re-solves
// the FEC.
func (ctx *checkCtx) markUnknown(i int, reason string) {
	ctx.states[i] = fecUnknown
	ctx.unknownReason[i] = reason
}

// finishVerdict records the set algebra's verdict for FEC i, caching it
// under its content key. It is the only place a verdict decided in this
// process enters the cache (Import restores snapshotted ones). Cached
// entries do not record whether the FEC's region was split: either way
// the verdict is exact.
func (ctx *checkCtx) finishVerdict(i int, key []uint64, violating bool) {
	if violating {
		ctx.states[i] = fecViolating
	} else {
		ctx.states[i] = fecOK
	}
	if ctx.vc != nil {
		ent := &fecVerdict{key: key, violating: violating}
		ctx.entries[i] = ent
		ctx.vc.insert(i, ent)
	}
}

// solvedFECs counts the FECs in [0, last] that the Theorem 4.1 skip did
// not settle and that hold a verdict — decided in this or an earlier
// call, or replayed from the verdict cache. A pure function of the
// resolved states, so warm and cold runs report the same number.
func solvedFECs(ctx *checkCtx, last int) int {
	n := 0
	for i := 0; i <= last && i < len(ctx.states); i++ {
		switch ctx.states[i] {
		case fecOK, fecViolating:
			n++
		}
	}
	return n
}

// witnessFor returns FEC i's counterexample, replaying the generation
// memo or the cache entry's memoized witness when present (a
// snapshot-restored entry carries none). Otherwise it completes the
// packet this generation's set algebra named when it decided the FEC,
// and re-runs violations for one after a cache replay. The procedure is
// pure, so the packet is the one a fresh decision names. The re-run is
// not cancellable: the verdict is already established. The bool reports
// a replay.
func (e *Engine) witnessFor(ctx *checkCtx, i int) (Violation, bool) {
	if v, ok := ctx.wit[i]; ok {
		return *v, true
	}
	ent := ctx.entries[i]
	if ent != nil && ctx.vc != nil {
		if w := ctx.vc.witness(ent); w != nil {
			ctx.wit[i] = w
			return *w, true
		}
	}
	fec := ctx.fec(i)
	pkt, ok := ctx.witPkt[i]
	if !ok {
		viol, _, _ := e.violations(context.Background(), ctx, fec, e.compileShapes(ctx, fec), false)
		if pkt, ok = viol.MinPacket(); !ok {
			panic("core: set algebra disagrees with the violating verdict")
		}
	}
	v := e.psetWitnessFEC(ctx, i, pkt)
	ctx.wit[i] = &v
	if ent != nil && ctx.vc != nil {
		ctx.vc.memoWitness(ent, &v)
	}
	return v, false
}

// commitGeneration publishes this generation's key words as the
// baseline the next change-impact analysis measures against. Idempotent;
// the last committing engine (an operator check, a fix verification)
// wins, which is exactly the snapshot the next edit diffs against.
func (ctx *checkCtx) commitGeneration() {
	if ctx.vc == nil {
		return
	}
	ctx.vc.mu.Lock()
	ctx.vc.lastWords = ctx.words.vals
	ctx.vc.mu.Unlock()
}
