package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/pset"
	"jinjing/internal/topo"
)

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
	// existing ACLs (§4.2). Per binding, in name order, they are the
	// canonical cubes of the packets the binding must now deny, then of
	// those it must now permit.
	Actions []FixAction
	// Regions are the placement regions that required fixing, each as
	// its canonical cube list: within one violating FEC, the packets on
	// which every ACL and control its paths read decide alike.
	Regions [][]header.Match
	// Unfixable lists the regions with no placement under the allow
	// constraints.
	Unfixable [][]header.Match
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
// pipeline's loop, splits each violating FEC's counterexamples into
// placement regions, places each region in closed form restricted to the
// engine's Allow bindings, emits the plan as rules, and verifies the
// result.
func (e *Engine) Fix() (*FixResult, error) {
	return e.FixContext(context.Background())
}

// FixContext is Fix under a cancellation scope: ctx's cancellation (and
// Options.Deadline, whichever fires first) stops the check loop, the
// region split and the placement search in flight. A fixing plan is
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

	maxN := math.MaxInt // regions: only the ablation caps them
	if e.Opts.NoExpansion > 0 {
		maxN = e.Opts.NoExpansion
	}

	// Every failure after this point is recorded in the decision ledger.
	fail := func(err error) (*FixResult, error) {
		e.logFixDecision(ls, nil, err)
		return nil, err
	}

	// The check pipeline's loop establishes every FEC's verdict, in
	// find-all mode, exactly as a check does: §4.2 places rules only
	// inside the FECs it finds violating. A FEC it leaves Unknown blocks
	// the plan.
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
	// fixFEC then refuses to place in it.
	seeds := make([]pset.Set, len(hits))
	for k, i := range hits {
		fec := ctx.fec(i)
		seeds[k], _, _ = e.violations(call, ctx, fec, e.compileShapes(ctx, fec), true)
	}
	task := o.StartTask("fix: FECs", int64(len(hits)))

	var placements int64
	plan := make([][2][]header.Match, len(ix.bindings)) // per binding: the cubes it must deny, then permit
	apply := func(out fecFixOutcome) {
		// Merge one FEC's regions in discovery order, honoring the
		// ablation's region budget.
		for _, r := range out.regions {
			if len(res.Regions)+len(res.Unfixable) >= maxN {
				break
			}
			if r.solved {
				placements++
			}
			cubes := r.region.CubeList()
			if !r.ok {
				res.Unfixable = append(res.Unfixable, cubes)
				continue
			}
			res.Regions = append(res.Regions, cubes)
			for _, c := range r.changes {
				k := 0
				if c.act == acl.Permit {
					k = 1
				}
				plan[c.bi][k] = append(plan[c.bi][k], cubes...)
			}
		}
	}

	// Each per-FEC sub-problem is independent (FEC destination classes
	// are disjoint atoms, so regions of two FECs never overlap) and
	// solved from its own seed with its own placement memo, making every
	// outcome a pure function of the FEC alone. Both execution modes use the same
	// function and merge in FEC order, so the fixing plan is byte-for-byte
	// identical for every worker count — the property the CLI golden test
	// pins. (A budget-b prefix of a budget-maxN run equals the budget-b
	// run: the split loop's iterations don't depend on the budget.)
	workers := e.Opts.Workers
	split := func(k, budget int) fecFixOutcome {
		out := e.fixFEC(call, ctx, ix, hits[k], seeds[k], budget)
		task.Add(1)
		return out
	}
	outcomes := make([]fecFixOutcome, len(hits))
	if workers > 1 {
		runParallel(o, workers, len(hits), func(k int) { outcomes[k] = split(k, maxN) })
	}
	for k, i := range hits {
		out := outcomes[k]
		if workers <= 1 {
			out = split(k, maxN-len(res.Regions)-len(res.Unfixable))
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
	o.Counter("fix.placements").Add(placements)
	sp.End(obs.KV("neighborhoods", len(res.Regions)), obs.KV("unfixable", len(res.Unfixable)),
		obs.KV("placements", placements), obs.KV("path_shapes", len(ix.shapes)), obs.KV("distinct_acls", len(ix.acls)))
	if len(blocked) > 0 {
		sortUnknown(blocked)
		o.Counter("fec.unknown").Add(int64(len(blocked)))
		return fail(&ErrUnknownVerdicts{Stage: "fix", FECs: blocked})
	}
	// Placement reads only the Before/After snapshots, never the fixed
	// one, so the whole plan is applied at once.
	var planBinds []topo.ACLBinding // per action: its binding on Before
	res.Actions, planBinds = ix.emit(plan)
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

	o.Counter("fix.neighborhoods").Add(int64(len(res.Regions)))
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

// placed is a decided placement as the FEC's memo keeps it: ok, and the
// bindings whose decision the plan changes with their new action.
type placed struct {
	ok      bool
	changes []placedRule
}

type placedRule struct {
	bi  int32
	act acl.Action
}

// regionOutcome is one placement region and its placement; solved says
// the placement was decided here rather than read from the FEC's memo.
type regionOutcome struct {
	region pset.Set
	placed
	solved bool
}

// fecFixOutcome is one FEC's complete fix sub-result: its regions in
// discovery order. unknown != "" means the call was cancelled, and says
// so; the FEC blocks the whole plan (see FixContext). err fails the call.
type fecFixOutcome struct {
	regions []regionOutcome
	err     error
	unknown string
}

// fixFEC runs the §4.2 loop for one FEC the check loop found violating,
// on placement regions: take the least packet of the FEC's remaining
// counterexamples (viol, the set the algebra decided the FEC on), split
// off its placement region (regionOf), place the region over the FEC's
// path shapes, subtract it, and repeat until none is left or budget
// regions have accumulated. Under the NoExpansion ablation the region is
// the packet alone. It reads the check context and the fix index only,
// and its placement memo is its own, so the outcome, its placement count
// included, is a pure function of the FEC — independent of the other
// FECs, of scheduling, and of worker count — which is what makes the
// sequential and parallel fix plans identical. The verdict that sent the
// FEC here is the check loop's, so the loop never consults or writes the
// verdict cache. The call's context is polled before each region.
func (e *Engine) fixFEC(call context.Context, ctx *checkCtx, ix *fixIndex, i int, viol pset.Set, budget int) fecFixOutcome {
	var out fecFixOutcome
	if budget <= 0 {
		return out
	}
	shapes := ix.shapesOn(ctx.src.PathIndices(i))
	reads := ix.readsOn(shapes, viol)
	memo := map[string]placed{}
	var pl placement
	for len(out.regions) < budget {
		if call.Err() != nil {
			// The call is dead, and viol may be incomplete: don't place in it.
			out.unknown = reasonCancelled
			return out
		}
		p, found := viol.MinPacket()
		if !found {
			break
		}
		within := viol
		if e.Opts.NoExpansion > 0 {
			within = pset.FromMatch(exactMatch(p))
		}
		var r regionOutcome
		var dec regionDecisions
		r.region, dec = ix.regionOf(within, p, reads)
		var err error
		if r.placed, r.solved, err = ix.solve(call, &pl, shapes, dec, memo); err != nil {
			if errors.Is(err, call.Err()) {
				out.unknown = reasonCancelled
			} else {
				out.err = err
			}
			return out
		}
		out.regions = append(out.regions, r)
		viol = viol.Subtract(r.region)
	}
	return out
}

// solve decides a region's placement problem (Equations 3 and 7). Many
// regions of a FEC pose the same problem, so a placement is kept in the
// FEC's memo under its placement key, which is all place reads. The memo
// and pl, the scratch place reuses, are the FEC's own, so what they save
// is a function of the FEC. solved says the placement was decided here.
// The error is the call's when it was cancelled; a cancelled search is
// not kept.
func (ix *fixIndex) solve(call context.Context, pl *placement, shapes []int32, dec regionDecisions, memo map[string]placed) (p placed, solved bool, err error) {
	key := ix.placementKey(shapes, dec)
	if p, hit := memo[string(key)]; hit {
		return p, false, nil
	}
	if p, err = ix.place(call, pl, shapes, key); err != nil {
		return p, false, err
	}
	memo[string(key)] = p
	return p, true, nil
}

// placementKey packs a region's placement problem on the FEC's shapes,
// one bit per decision: per shape in order, each crossed binding's after
// decision, then the shape's desired decision. The width is fixed for
// the FEC, and place reads nothing else.
func (ix *fixIndex) placementKey(shapes []int32, dec regionDecisions) []byte {
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
			put(dec.permits(ix.bindings[bi].after))
		}
		put(dec.desired(ix, sh))
	}
	return key
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

// emit turns the plan into rules: per binding, in name order, one rule
// per canonical cube of the union of what it must deny, then of what it
// must permit, each union built over the regions in FEC order. The two
// sets are disjoint — the regions of a FEC are, and the FECs' destination
// classes are — so neither their order nor the order applyFixActions
// stacks them in changes a decision. It returns each action's binding,
// on Before, alongside.
func (ix *fixIndex) emit(plan [][2][]header.Match) ([]FixAction, []topo.ACLBinding) {
	type target struct {
		bi int32
		id string
	}
	var targets []target
	for bi, cubes := range plan {
		if len(cubes[0])+len(cubes[1]) > 0 {
			targets = append(targets, target{int32(bi), ix.bindings[bi].b.ID()})
		}
	}
	slices.SortFunc(targets, func(x, y target) int { return strings.Compare(x.id, y.id) })
	var actions []FixAction
	var binds []topo.ACLBinding
	for _, t := range targets {
		for k, act := range [2]acl.Action{acl.Deny, acl.Permit} {
			for _, c := range pset.FromMatches(plan[t.bi][k]).CubeList() {
				actions = append(actions, FixAction{BindingID: t.id, Rule: acl.Rule{Action: act, Match: c}})
				binds = append(binds, ix.bindings[t.bi].b)
			}
		}
	}
	return actions, binds
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
