package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/pset"
	"jinjing/internal/topo"
)

// maxNeighborhoods caps the fix loop's neighborhoods as a safety valve.
const maxNeighborhoods = 10000

// FixAction is one fixing-plan entry: prepend Rule to the ACL at Binding.
type FixAction struct {
	BindingID string // "device:interface:dir"
	Rule      acl.Rule
}

// String renders the action.
func (a FixAction) String() string {
	return fmt.Sprintf("add to %s: %s", a.BindingID, a.Rule)
}

// FixResult reports the outcome of the fix primitive.
type FixResult struct {
	// Fixed is the After snapshot with the fixing plan applied.
	Fixed *topo.Network
	// Actions is the fixing plan: high-priority rules added on top of
	// existing ACLs (§4.2).
	Actions []FixAction
	// Neighborhoods are the counterexample regions that required fixing.
	Neighborhoods []header.Match
	// Unfixable lists neighborhoods with no solution under the allow
	// constraints.
	Unfixable []header.Match
	// Verified reports whether re-running Check on the fixed snapshot
	// confirmed consistency.
	Verified bool
	// Stats aggregates the incremental-verification activity: the fix's
	// own check loop (verdict-cache traffic, deciding backends) plus the
	// verification check's, whose change-impact numbers reflect the FECs
	// the fixing plan touched.
	Stats CacheStats
}

// Fix runs the fix primitive (§4.2): it decides every FEC on the check
// pipeline's loop, enumerates counterexample neighborhoods inside the
// violating ones and synthesizes a minimal fixing plan restricted to the
// engine's Allow bindings, then verifies the result.
func (e *Engine) Fix() (*FixResult, error) {
	return e.FixContext(context.Background())
}

// FixContext is Fix under a cancellation scope: ctx's cancellation (and
// Options.Deadline, whichever fires first) stops the check loop, the
// seek and the placement search in flight. A fixing plan is
// all-or-nothing — if any FEC is left Unknown, no plan is emitted and the
// returned error is an *ErrUnknownVerdicts naming the blocking FECs in
// canonical order: a plan built on unknown verdicts could silently skip
// real violations.
// The internal verification check runs under the same ctx with its own
// Deadline allowance.
func (e *Engine) FixContext(callCtx context.Context) (*FixResult, error) {
	o := e.obsv()
	ls := e.ledgerBegin()
	call, endCall := e.beginCall(callCtx)
	defer endCall()
	root := e.startSpan("fix")
	defer root.End() // idempotent; covers the error returns
	res := &FixResult{}
	pre := root.Child("preprocess")

	// Fix shares the check pipeline's generation — differential rules,
	// each binding's ACL pair as ACL-table IDs, and the incremental
	// per-FEC state — so a check earlier on this engine has
	// already settled what it decided, and what fix decides warms the
	// verdict cache exactly as a check would.
	ctx := e.checkContext()
	e.prepareIncremental(ctx)

	ix := e.compileFix(ctx)
	pre.End(obs.KV("diff_rules", len(ctx.diff)), obs.KV("acl_pairs", len(ctx.pairs)))

	fixed := e.After.Clone()

	maxN := maxNeighborhoods
	if e.Opts.NoExpansion > 0 {
		maxN = e.Opts.NoExpansion
	}

	// Every failure after this point is recorded in the decision ledger.
	fail := func(err error) (*FixResult, error) {
		e.logFixDecision(ls, nil, err)
		return nil, err
	}

	// The check pipeline's loop establishes every FEC's verdict, in
	// find-all mode, exactly as a check does: §4.2 seeks neighborhoods
	// only inside the FECs it finds violating. A FEC it leaves Unknown
	// blocks the plan.
	sp := root.Child("solve")
	statsBase := ctx.stats
	hits, _ := e.decide(call, ctx, sp, true)
	res.Stats = ctx.stats.since(statsBase)
	// The change-impact numbers are the verification check's to report.
	res.Stats.ChangedBindings, res.Stats.AffectedFECs = 0, 0
	blocked := unknownFECs(ctx, ctx.nfec-1)
	// Each violating FEC's counterexamples, as the set the algebra
	// decides it on — split, with no cube cap, where it overflows —
	// computed here: the check context's lazy indexes are
	// single-goroutine. A cancellation can leave a set incomplete, but
	// fixFEC then refuses to seek in it.
	seeds := make([]pset.Set, len(hits))
	for k, i := range hits {
		fec := ctx.fec(i)
		seeds[k], _, _ = e.violations(call, ctx, fec, e.compileShapes(ctx, fec), true)
	}
	task := o.StartTask("fix: FECs", int64(len(hits)))

	var probes, placements int64
	var planBinds []topo.ACLBinding // per action: its binding on Before
	apply := func(out fecFixOutcome) {
		// Merge one FEC's entries in discovery order, honoring the
		// global neighborhood budget.
		probes += out.probes
		for _, nb := range out.entries {
			if len(res.Neighborhoods)+len(res.Unfixable) >= maxN {
				break
			}
			if nb.solved {
				placements++
			}
			if !nb.ok {
				res.Unfixable = append(res.Unfixable, nb.nb)
				continue
			}
			res.Neighborhoods = append(res.Neighborhoods, nb.nb)
			res.Actions = append(res.Actions, nb.actions...)
			planBinds = append(planBinds, nb.binds...)
		}
	}

	// Each per-FEC sub-problem is independent (FEC destination classes
	// are disjoint atoms, so cross-FEC neighborhoods never overlap) and
	// solved from its own seed with its own placement memo, making every
	// outcome a pure function of the FEC alone. Both execution modes use the same
	// function and merge in FEC order, so the fixing plan is byte-for-byte
	// identical for every worker count — the property the CLI golden test
	// pins. (A budget-b prefix of a budget-maxN run equals the budget-b
	// run: the seek loop's iterations don't depend on the budget.)
	workers := e.Opts.Workers
	seek := func(k, budget int) fecFixOutcome {
		out := e.fixFEC(call, ctx, ix, hits[k], seeds[k], budget)
		task.Add(1)
		return out
	}
	outcomes := make([]fecFixOutcome, len(hits))
	if workers > 1 {
		runParallel(o, workers, len(hits), func(k int) { outcomes[k] = seek(k, maxN) })
	}
	for k, i := range hits {
		out := outcomes[k]
		if workers <= 1 {
			out = seek(k, maxN-len(res.Neighborhoods)-len(res.Unfixable))
		}
		if out.err != nil {
			return fail(out.err)
		}
		if out.unknown != "" {
			blocked = append(blocked, UnknownFEC{FEC: i, Classes: ctx.fec(i).Classes, Reason: out.unknown})
			continue
		}
		apply(out)
	}
	task.Done()
	o.Gauge("fix.path_shapes").Set(int64(len(ix.shapes)))
	o.Counter("fix.expand.probes").Add(probes)
	o.Counter("fix.placements").Add(placements)
	sp.End(obs.KV("neighborhoods", len(res.Neighborhoods)), obs.KV("unfixable", len(res.Unfixable)),
		obs.KV("placements", placements), obs.KV("path_shapes", len(ix.shapes)), obs.KV("distinct_acls", len(ix.acls)))
	if len(blocked) > 0 {
		sortUnknown(blocked)
		o.Counter("fec.unknown").Add(int64(len(blocked)))
		return fail(&ErrUnknownVerdicts{Stage: "fix", FECs: blocked})
	}
	// Placement reads only the Before/After snapshots, never the fixed
	// one, so the whole plan is applied at once.
	touched, err := applyFixActions(fixed, planBinds, res.Actions)
	if err != nil {
		return fail(err)
	}

	// Simplify the ACLs the plan touched (§4.2 extension).
	if e.Opts.OptimizeSynthesis {
		sim := root.Child("simplify")
		var st pset.SimplifyStats
		for _, b := range touched {
			a, bst := simplifyBounded(b.Iface.ACL(b.Dir))
			b.Iface.SetACL(b.Dir, a)
			st.Cube += bst.Cube
			st.OverBudget += bst.OverBudget
		}
		sim.End(obs.KV("touched", len(touched)), obs.KV("exact_cube", st.Cube), obs.KV("over_budget", st.OverBudget))
	}

	res.Fixed = fixed

	// Verify: the fixed snapshot must pass check, on an engine derived
	// from this one (same binding index, ACL table and verdict cache)
	// that keeps this loop's verdict on every FEC the plan cannot flip.
	recordCacheStats(o, res.Stats) // fix's own scan; the check records its own
	vp := root.Child("verify")
	ver := e.derived(fixed, vp)
	ver.kept = &fixVerdicts{ctx: ctx, ix: ix}
	cr := ver.CheckContext(callCtx)
	res.Verified = cr.Consistent && cr.Complete
	res.Stats.add(cr.Stats)
	vp.End(obs.KV("verified", res.Verified), obs.KV("kept", ver.kept.kept),
		obs.KV("decided", cr.Stats.PsetDecided+cr.Stats.PsetBailout))

	o.Counter("fix.neighborhoods").Add(int64(len(res.Neighborhoods)))
	o.Counter("fix.actions").Add(int64(len(res.Actions)))
	o.Counter("fix.unfixable").Add(int64(len(res.Unfixable)))
	root.SetAttr("verified", res.Verified)
	root.End()
	e.logFixDecision(ls, res, nil)
	return res, nil
}

// fixVerdicts is what a fix hands its verification engine: the loop's
// generation, which decided every FEC on Before→After, and its index,
// whose shapes list each path's bindings that carry an ACL or are
// allowed: every binding the plan can change. changed marks the changed
// ones at the verification's first FEC; kept counts the FECs kept.
type fixVerdicts struct {
	ctx     *checkCtx
	ix      *fixIndex
	changed []bool
	kept    int
}

// simplifyBounded applies exact simplification to small ACLs and the fast
// syntactic pass to large ones (exact simplification decides one
// equivalence question per rule per pass), and reports how the exact
// decisions were made.
func simplifyBounded(a *acl.ACL) (*acl.ACL, pset.SimplifyStats) {
	const exactLimit = 64
	fast := acl.SimplifyFast(a)
	if len(fast.Rules) <= exactLimit {
		return pset.Simplify(fast)
	}
	return fast, pset.SimplifyStats{}
}

// nbOutcome is the solved placement for one neighborhood: the fixing
// actions (empty when the after decisions already suffice) and their
// bindings, or ok=false when no placement exists under the allow
// constraints.
// unknown != "" means the call was cancelled during the placement
// search — the FEC blocks the plan. solved says the placement was
// decided here rather than read from the FEC's memo.
type nbOutcome struct {
	nb      header.Match
	ok      bool
	actions []FixAction
	binds   []topo.ACLBinding // per action
	solved  bool
	unknown string
}

// placed is a solved placement as the FEC's memo keeps it: ok, and the
// bindings whose decision the plan changes with their new action.
type placed struct {
	ok      bool
	changes []placedRule
}

type placedRule struct {
	bi  int32
	act acl.Action
}

// fecFixOutcome is one FEC's complete fix sub-result: neighborhood
// outcomes in discovery order and the validity queries expansion asked.
// unknown != "" means the call was cancelled, and says so; the FEC
// blocks the whole plan (see FixContext). err fails the call.
type fecFixOutcome struct {
	entries []nbOutcome
	probes  int64
	err     error
	unknown string
}

// fixFEC runs the §4.2 loop for one FEC the check loop found violating:
// take the least packet of the FEC's remaining counterexamples (viol, the
// set the algebra decided the FEC on), enlarge it, solve its placement
// over the FEC's path shapes, exclude the neighborhood, and repeat until
// none is left or budget outcomes have accumulated. It reads the check
// context and the fix index only, and its placement memo is its own, so
// the outcome, its placement count included, is a pure function of the
// FEC — independent of the other FECs, of scheduling, and of worker
// count — which is what makes the sequential and parallel fix plans
// identical. The verdict that sent the FEC here is the check
// loop's, so a seek never consults or writes the verdict cache.
func (e *Engine) fixFEC(call context.Context, ctx *checkCtx, ix *fixIndex, i int, viol pset.Set, budget int) fecFixOutcome {
	var out fecFixOutcome
	if budget <= 0 {
		return out
	}
	if call.Err() != nil {
		// The call is dead, and viol may be incomplete: don't seek in it.
		out.unknown = reasonCancelled
		return out
	}
	fec := ctx.fec(i)
	shapes := ix.shapesOn(ctx.src.PathIndices(i))
	cons := ix.constancyOn(fec)
	memo := map[string]placed{}
	var pl placement
	for len(out.entries) < budget {
		h, found := viol.MinPacket()
		if !found {
			break
		}
		nb := exactMatch(h)
		if e.Opts.NoExpansion == 0 {
			nb = expandNeighborhood(h, fec, cons)
		}
		no, err := e.solveNeighborhood(call, ix, &pl, shapes, nb, memo)
		if err != nil {
			out.err = err
			break
		}
		if no.unknown != "" {
			out.unknown = no.unknown
			break
		}
		out.entries = append(out.entries, no)
		// Later neighborhoods must stay disjoint from this one, or
		// their fixing rules would shadow each other.
		cons.priors = append(cons.priors, nb)
		viol = viol.Subtract(pset.FromMatch(nb))
	}
	out.probes = cons.probes
	return out
}

// placementKey decides a neighborhood's placement problem on the FEC's
// shapes once, packed one bit per decision: per shape in order, each
// crossed binding's after decision, then the shape's desired decision.
// The width is fixed for the FEC, and place reads nothing else.
func (ix *fixIndex) placementKey(shapes []int32, nb header.Match) ([]byte, error) {
	dec := ix.decisionsOn(nb)
	var key []byte
	k := 0
	put := func(v bool) {
		if k%8 == 0 {
			key = append(key, 0)
		}
		if v {
			key[k/8] |= 1 << (k % 8)
		}
		k++
	}
	for _, si := range shapes {
		sh := &ix.shapes[si]
		for _, bi := range sh.bindings {
			after, err := dec.decide(ix.bindings[bi].after)
			if err != nil {
				return nil, err
			}
			put(bool(after))
		}
		desired, err := dec.desired(sh)
		if err != nil {
			return nil, err
		}
		put(desired)
	}
	return key, nil
}

// place decides a placement problem (Equation 7) in closed form from its
// key, on pl (see placement): the allowed bindings are the changeable
// ones, each with its after decision, and the plan changes the fewest of
// them. The forced changes are the same in every placement, so the least
// cost denies a minimum set hitting every clause, the first in crossing
// order (minHittingSet). The error is the call's when it was cancelled.
func (ix *fixIndex) place(call context.Context, pl *placement, shapes []int32, key []byte) (placed, error) {
	denies := slices.Grow(pl.denies[:0], len(ix.bindings))[:len(ix.bindings)] // per binding crossed: the update denies
	pl.denies, pl.shapes = denies, slices.Grow(pl.shapes[:0], len(shapes))
	pl.members = slices.Grow(pl.members[:0], len(ix.bindings))
	k := 0
	bit := func() bool {
		v := key[k/8]&(1<<(k%8)) != 0
		k++
		return v
	}
	for _, si := range shapes {
		sh := &ix.shapes[si]
		closedDeny, lo := false, len(pl.members)
		for _, bi := range sh.bindings {
			denies[bi] = !bit()
			switch fb := &ix.bindings[bi]; {
			case fb.allowed && fb.err != nil:
				return placed{}, fb.err
			case fb.allowed:
				pl.members = append(pl.members, bi)
			case denies[bi]:
				closedDeny = true
			}
		}
		pl.shapes = append(pl.shapes, placeShape{desired: bit(), closedDeny: closedDeny, free: pl.members[lo:]})
	}
	if !pl.reduce() {
		return placed{}, nil
	}
	deny, ok := minHittingSet(call, pl.clauses)
	if !ok {
		return placed{}, call.Err()
	}

	p := placed{ok: true}
	for bi, f := range pl.forced {
		if f && denies[bi] {
			p.changes = append(p.changes, placedRule{int32(bi), acl.Permit})
		}
	}
	for _, bi := range deny {
		p.changes = append(p.changes, placedRule{bi, acl.Deny})
	}
	return p, nil
}

// solveNeighborhood solves the placement problem for one neighborhood
// (Equations 3 and 7) and returns the plan instead of applying it, so
// sequential and parallel fix share it. Many neighborhoods of a FEC pose
// the same problem, so a placement is kept in the FEC's memo under its
// placement key, which is all place reads, and reused with the new
// neighborhood's match. The memo and pl, the scratch place reuses, are
// the FEC's own, so what they save is a function of the FEC.
func (e *Engine) solveNeighborhood(call context.Context, ix *fixIndex, pl *placement, shapes []int32, nb header.Match, memo map[string]placed) (nbOutcome, error) {
	out := nbOutcome{nb: nb}
	key, err := ix.placementKey(shapes, nb)
	if err != nil {
		return out, err
	}
	p, hit := memo[string(key)]
	if !hit {
		if p, err = ix.place(call, pl, shapes, key); err != nil {
			if errors.Is(err, call.Err()) {
				out.unknown = reasonCancelled
				return out, nil
			}
			return out, err
		}
		// A plan names its bindings, in name order.
		slices.SortFunc(p.changes, func(x, y placedRule) int {
			return strings.Compare(ix.bindings[x.bi].b.ID(), ix.bindings[y.bi].b.ID())
		})
		out.solved = true
		memo[string(key)] = p
	}
	out.ok = p.ok
	for _, c := range p.changes {
		b := ix.bindings[c.bi].b
		out.actions = append(out.actions, FixAction{BindingID: b.ID(), Rule: acl.Rule{Action: c.act, Match: nb}})
		out.binds = append(out.binds, b)
	}
	return out, nil
}

// applyFixActions prepends the plan's rules to their bindings' ACLs on
// the fixed snapshot, one prepend per binding: a later action lands above
// an earlier one, as if each had been prepended in turn. binds[k] is
// action k's binding, on Before. It returns the bindings touched, on the
// fixed snapshot, in first-action order.
func applyFixActions(fixed *topo.Network, binds []topo.ACLBinding, actions []FixAction) ([]topo.ACLBinding, error) {
	var touched []topo.ACLBinding
	var rules bindingTable[[]acl.Rule] // per binding: its rules, in plan order
	for k, a := range actions {
		r := rules.at(binds[k])
		if *r == nil {
			touched = append(touched, binds[k])
		}
		*r = append(*r, a.Rule)
	}
	for k, b := range touched {
		add := *rules.at(b)
		fb, err := moveBinding(b, fixed)
		if err != nil {
			return nil, err
		}
		cur := fb.Iface.ACL(fb.Dir)
		if cur == nil {
			cur = acl.PermitAll()
		}
		slices.Reverse(add)
		cur.Rules = append(add, cur.Rules...)
		fb.Iface.SetACL(fb.Dir, cur)
		touched[k] = fb
	}
	return touched, nil
}

// exactMatch is the singleton region containing only h.
func exactMatch(h header.Packet) header.Match {
	return header.Match{
		Src:     header.Prefix{Addr: h.SrcIP, Len: 32},
		Dst:     header.Prefix{Addr: h.DstIP, Len: 32},
		SrcPort: header.PortRange{Lo: h.SrcPort, Hi: h.SrcPort},
		DstPort: header.PortRange{Lo: h.DstPort, Hi: h.DstPort},
		Proto:   header.Proto(h.Proto),
	}
}

// expandNeighborhood enlarges the counterexample packet h into a maximal
// 5-tuple region [h]_N on which every decision model in F_Ω ∪ F'_Ω is
// constant and which stays inside h's FEC (Equation 6), field by field:
// destination, source, ports, protocol. Validity is downward closed along
// a prefix chain — first-match atomicity holds on subsets, and a control
// that straddles a region or a prior that overlaps it does the same to
// every superset — so the shortest valid destination length (no shorter
// than h's FEC class, the ψ bound) and then source length are each found
// by bisection: the paper's binary search over field masks.
func expandNeighborhood(h header.Packet, fec topo.FEC, cons *constancy) header.Match {
	m := exactMatch(h)
	valid := cons.valid
	var class header.Prefix
	for _, c := range fec.Classes {
		if c.Matches(h.DstIP) {
			class = c
			break
		}
	}
	m = shortestPrefix(m, false, class.Len, valid)
	m = shortestPrefix(m, true, 0, valid)
	m.DstPort = expandPort(m, h.DstPort, false, valid, cons.ix.dstLos, cons.ix.dstHis)
	m.SrcPort = expandPort(m, h.SrcPort, true, valid, cons.ix.srcLos, cons.ix.srcHis)
	cand := m
	cand.Proto = header.AnyProto // protocol: all-or-exact
	if valid(cand) {
		m = cand
	}
	return m
}

// shortestPrefix widens m's destination (or, with src, source) /32 to
// the shortest prefix of length floor or more on which m stays valid, by
// bisection over a validity that holds at /32 and is downward closed.
func shortestPrefix(m header.Match, src bool, floor int, valid func(header.Match) bool) header.Match {
	field := &m.Dst
	if src {
		field = &m.Src
	}
	addr := field.Addr
	at := func(n int) header.Match {
		*field = header.Prefix{Addr: addr, Len: n}.Canonical()
		return m
	}
	return at(floor + sort.Search(32-floor, func(k int) bool { return valid(at(floor + k)) }))
}

// expandPort widens one port field around the packet's port to the
// largest range passing the validity criterion: try the full range
// first, then greedily pick the widest valid [lo, hi] whose endpoints
// come from the precomputed rule boundaries (los ascending, his
// descending).
func expandPort(m header.Match, port uint16, src bool, valid func(header.Match) bool, los, his []uint16) header.PortRange {
	field := &m.DstPort
	if src {
		field = &m.SrcPort
	}
	at := func(r header.PortRange) header.Match {
		*field = r
		return m
	}
	if valid(at(header.AnyPort)) {
		return header.AnyPort
	}
	bestLo := port
	for _, lo := range los {
		if lo <= port && valid(at(header.PortRange{Lo: lo, Hi: port})) {
			bestLo = lo
			break
		}
	}
	for _, hi := range his {
		if hi >= port && valid(at(header.PortRange{Lo: bestLo, Hi: hi})) {
			return header.PortRange{Lo: bestLo, Hi: hi}
		}
	}
	return header.PortRange{Lo: port, Hi: port}
}
