package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/pset"
	"jinjing/internal/sat"
	"jinjing/internal/smt"
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
	// SolverStats aggregates the full SAT counters across every solver
	// the fix spun up: one placement solver per distinct placement
	// problem of a FEC. Its check loop and the verification check decide
	// in the set algebra, and neighborhoods are sought in packet sets, so
	// nothing else runs on a solver.
	SolverStats sat.Stats
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
// Options.Deadline, whichever fires first) stops the check loop and
// interrupts every placement solver in flight, and Options.PerFECBudget
// bounds each placement query. A fixing plan is all-or-nothing — if any
// FEC's queries end Unknown, no plan is emitted and the returned error is
// an *ErrUnknownVerdicts naming the blocking FECs in canonical order: a
// plan built on unknown verdicts could silently skip real violations.
// The internal verification check runs under the same ctx with its own
// Deadline allowance.
func (e *Engine) FixContext(callCtx context.Context) (*FixResult, error) {
	o := e.obsv()
	ls := e.ledgerBegin()
	cn, endCall := e.beginCall(callCtx)
	defer endCall()
	root := e.startSpan("fix")
	defer root.End() // idempotent; covers the error returns
	res := &FixResult{}
	pre := root.Child("preprocess")

	// Fix shares the check pipeline's generation — differential rules,
	// related-filtered encoding pairs as ACL-table IDs, and the
	// incremental per-FEC state — so a check earlier on this engine has
	// already settled what it decided, and what fix decides warms the
	// verdict cache exactly as a check would.
	ctx := e.checkContext()
	e.prepareIncremental(ctx)

	ix := e.compileFix(ctx)
	pre.End(obs.KV("diff_rules", ctx.diffRules), obs.KV("acl_pairs", ctx.aclPairs))

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
	hits, _ := e.decide(cn, ctx, sp, true)
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
		seeds[k], _, _ = e.violations(cn, ctx, fec, e.compileShapes(ctx, fec), true)
	}
	task := o.StartTask("fix: FECs", int64(len(hits)))

	var probes, placements int64
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
			recordSolverStats(o, &res.SolverStats, nb.stats)
			if !nb.ok {
				res.Unfixable = append(res.Unfixable, nb.nb)
				continue
			}
			res.Neighborhoods = append(res.Neighborhoods, nb.nb)
			res.Actions = append(res.Actions, nb.actions...)
		}
	}

	// Each per-FEC sub-problem is independent (FEC destination classes
	// are disjoint atoms, so cross-FEC neighborhoods never overlap) and
	// solved from its own seed on its own fresh solvers, making every
	// outcome a pure function of the FEC alone. Both execution modes use the same
	// function and merge in FEC order, so the fixing plan is byte-for-byte
	// identical for every worker count — the property the CLI golden test
	// pins. (A budget-b prefix of a budget-maxN run equals the budget-b
	// run: the seek loop's iterations don't depend on the budget.)
	workers := e.Opts.Workers
	seek := func(k, budget int) fecFixOutcome {
		out := e.fixFEC(cn, ctx, ix, hits[k], seeds[k], budget)
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
		return fail(&ErrUnknownVerdicts{Stage: "fix", FECs: blocked})
	}
	// Placement reads only the Before/After snapshots, never the fixed
	// one, so the whole plan is applied at once.
	touched, err := applyFixActions(fixed, res.Actions)
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
			st.SAT += bst.SAT
		}
		sim.End(obs.KV("touched", len(touched)), obs.KV("exact_cube", st.Cube), obs.KV("exact_sat", st.SAT))
	}

	res.Fixed = fixed

	// Verify: the fixed snapshot must pass check. The verification
	// engine is derived from this one — same binding index, ACL table
	// and verdict cache, when one is installed — so a session re-solves
	// only the FECs the fixing plan touched and replays the rest.
	recordCacheStats(o, res.Stats) // fix's own scan; the check records its own
	vp := root.Child("verify")
	ver := e.derived(fixed, vp)
	cr := ver.CheckContext(callCtx)
	res.Verified = cr.Consistent && cr.Complete
	// The verification check recorded its own sat.* metrics; fold its
	// counters into this primitive's aggregate too.
	res.SolverStats.Add(cr.SolverStats)
	res.Stats.add(cr.Stats)
	vp.End(obs.KV("verified", res.Verified))

	o.Counter("fix.neighborhoods").Add(int64(len(res.Neighborhoods)))
	o.Counter("fix.actions").Add(int64(len(res.Actions)))
	o.Counter("fix.unfixable").Add(int64(len(res.Unfixable)))
	root.SetAttr("verified", res.Verified)
	root.End()
	e.logFixDecision(ls, res, nil)
	return res, nil
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
// actions (empty when the after decisions already suffice), or
// ok=false when no placement exists under the allow constraints.
// unknown != "" means the placement query reached no verdict
// (cancelled or budget-exhausted) — the FEC blocks the plan. solved
// says the placement was put on a solver (stats are its counters)
// rather than read from the FEC's memo.
type nbOutcome struct {
	nb      header.Match
	ok      bool
	actions []FixAction
	stats   sat.Stats
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
// unknown != "" means the call was cancelled or a placement query
// reached no verdict, and says why; the FEC blocks the whole plan (see
// FixContext). err fails the call.
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
// the outcome, solver counters included, is a pure function of the FEC —
// independent of the other FECs, of scheduling, and of worker count —
// which is what makes the sequential and parallel fix plans and
// SolverStats identical. The verdict that sent the FEC here is the check
// loop's, so a seek never consults or writes the verdict cache.
func (e *Engine) fixFEC(cn *canceller, ctx *checkCtx, ix *fixIndex, i int, viol pset.Set, budget int) fecFixOutcome {
	var out fecFixOutcome
	if budget <= 0 {
		return out
	}
	if cn.cancelled() {
		// The call is dead, and viol may be incomplete: don't seek in it.
		out.unknown = reasonCancelled
		return out
	}
	fec := ctx.fec(i)
	shapes := ix.shapesOn(ctx.src.PathIndices(i))
	cons := ix.constancyOn(fec)
	memo := map[string]placed{}
	for len(out.entries) < budget {
		h, found := viol.MinPacket()
		if !found {
			break
		}
		nb := exactMatch(h)
		if e.Opts.NoExpansion == 0 {
			nb = expandNeighborhood(h, fec, cons)
		}
		no, err := e.solveNeighborhood(cn, ix, shapes, nb, memo)
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

// placement is one neighborhood's Equation 7 problem as stated on a
// solver: per crossed binding D_{[h]_N}(ξ) — a decision variable where
// the plan may place a rule, the update's decision elsewhere — and, per
// variable, the cost literal that is true when it departs from the
// update's decision.
type placement struct {
	vals  []smt.F      // per fixBinding: its variable or constant; set where seen
	seen  []bool       // per fixBinding: some shape of the FEC crosses it
	after []acl.Action // per fixBinding: the update's decision; set where seen
	vars  []int32      // the bindings holding a variable, sorted by ID
	costs []smt.F      // per var
}

// placementKey decides a neighborhood's placement problem on the FEC's
// shapes once, packed one bit per decision: per shape in order, each
// crossed binding's after decision, then the shape's desired decision.
// The width is fixed for the FEC, and statePlacement reads nothing else.
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

// statePlacement asserts, for every shape, that the conjunction of its
// bindings' decisions equals the desired decision, both read off the
// placement key. Paths of one shape state the same constraint, and the
// shapes come in the order the paths first show them, so the bindings
// become variables and the formulas nodes in the order a walk over every
// path would make them; a repeated constraint adds nothing to a solver,
// so the model — and the plan read off it — is that walk's.
func (ix *fixIndex) statePlacement(s *smt.Solver, shapes []int32, key []byte) (*placement, error) {
	b := s.B
	n := len(ix.bindings)
	pl := &placement{vals: make([]smt.F, n), seen: make([]bool, n), after: make([]acl.Action, n)}
	k := 0
	bit := func() bool {
		v := key[k/8]&(1<<(k%8)) != 0
		k++
		return v
	}
	for _, si := range shapes {
		sh := &ix.shapes[si]
		lhs := smt.True
		for _, bi := range sh.bindings {
			after := bit()
			if !pl.seen[bi] {
				fb := &ix.bindings[bi]
				switch {
				case !fb.allowed:
					pl.vals[bi] = b.Const(after)
				case fb.err != nil:
					return nil, fb.err
				default:
					pl.vals[bi] = b.Var()
					pl.vars = append(pl.vars, bi)
				}
				pl.seen[bi], pl.after[bi] = true, acl.Action(after)
			}
			lhs = b.And(lhs, pl.vals[bi])
		}
		s.Assert(b.Iff(lhs, b.Const(bit())))
	}

	// Minimize the number of bindings whose decision differs from the
	// update's current decision (each difference costs one fixing rule).
	slices.SortFunc(pl.vars, func(x, y int32) int { return strings.Compare(ix.bindings[x].id, ix.bindings[y].id) })
	for _, bi := range pl.vars {
		if pl.after[bi] == acl.Permit {
			pl.costs = append(pl.costs, pl.vals[bi].Not())
		} else {
			pl.costs = append(pl.costs, pl.vals[bi])
		}
	}
	return pl, nil
}

// solveNeighborhood solves the placement problem for one neighborhood
// (Equations 3 and 7): find per-binding decisions D_{[h]_N}(ξ) on the
// FEC's paths that restore the desired decision, minimizing the number
// of bindings changed, honoring the allow constraints. It reads only the
// index and returns the plan instead of applying it, so sequential and
// parallel fix paths share it.
//
// Many neighborhoods of a FEC pose the same problem, so a Sat or Unsat
// outcome is kept in the FEC's memo under its placement key and reused
// with the new neighborhood's match. That is sound because the solver's
// model is a function of the formula, and the formula is a function of
// the key alone: statePlacement makes its variables, constants and cost
// literals from the same bits in the same order. The memo is the FEC's
// own, so what it saves — solver work included — is a function of the
// FEC, like the rest of its outcome.
func (e *Engine) solveNeighborhood(cn *canceller, ix *fixIndex, shapes []int32, nb header.Match, memo map[string]placed) (nbOutcome, error) {
	out := nbOutcome{nb: nb}
	key, err := ix.placementKey(shapes, nb)
	if err != nil {
		return out, err
	}
	p, hit := memo[string(key)]
	if !hit {
		s := smt.NewSolver()
		cn.register(s)
		pl, err := ix.statePlacement(s, shapes, key)
		if err != nil {
			return out, err
		}
		var bgt sat.Budget
		if e.Opts.PerFECBudget > 0 {
			bgt.Conflicts = e.Opts.PerFECBudget
		}
		_, r := s.SolveMinimizeLimited(bgt, pl.costs)
		out.stats, out.solved = s.Stats(), true
		if r.Outcome == sat.Unknown {
			out.unknown = r.Reason
			return out, nil
		}
		if p.ok = r.Outcome == sat.Sat; p.ok {
			for _, bi := range pl.vars {
				if got := acl.Action(s.Value(pl.vals[bi])); got != pl.after[bi] {
					p.changes = append(p.changes, placedRule{bi, got})
				}
			}
		}
		memo[string(key)] = p
	}
	out.ok = p.ok
	for _, c := range p.changes {
		out.actions = append(out.actions, FixAction{BindingID: ix.bindings[c.bi].id, Rule: acl.Rule{Action: c.act, Match: nb}})
	}
	return out, nil
}

// applyFixActions prepends the plan's rules to their bindings' ACLs on
// the fixed snapshot, one prepend per binding: a later action lands above
// an earlier one, as if each had been prepended in turn. It returns the
// bindings touched, in first-action order.
func applyFixActions(fixed *topo.Network, actions []FixAction) ([]topo.ACLBinding, error) {
	var touched []topo.ACLBinding
	slot := map[string]int{} // binding ID -> index into touched and rules
	var rules [][]acl.Rule
	for _, a := range actions {
		k, ok := slot[a.BindingID]
		if !ok {
			fb, err := lookupBinding(fixed, a.BindingID)
			if err != nil {
				return nil, err
			}
			k = len(touched)
			slot[a.BindingID] = k
			touched = append(touched, fb)
			rules = append(rules, nil)
		}
		rules[k] = append(rules[k], a.Rule)
	}
	for k, fb := range touched {
		cur := fb.Iface.ACL(fb.Dir)
		if cur == nil {
			cur = acl.PermitAll()
		}
		slices.Reverse(rules[k])
		cur.Rules = append(rules[k], cur.Rules...)
		fb.Iface.SetACL(fb.Dir, cur)
	}
	return touched, nil
}

// lookupBinding resolves a "device:interface:dir" ID on a network.
func lookupBinding(n *topo.Network, id string) (topo.ACLBinding, error) {
	dir := topo.In
	base := id
	switch {
	case len(id) > 4 && id[len(id)-4:] == ":out":
		dir = topo.Out
		base = id[:len(id)-4]
	case len(id) > 3 && id[len(id)-3:] == ":in":
		base = id[:len(id)-3]
	default:
		return topo.ACLBinding{}, fmt.Errorf("core: malformed binding ID %q", id)
	}
	iface, err := n.LookupInterface(base)
	if err != nil {
		return topo.ACLBinding{}, err
	}
	return topo.ACLBinding{Iface: iface, Dir: dir}, nil
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
