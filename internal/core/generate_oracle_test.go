package core

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// This file is the oracle for generate's per-call index (genIndex) and
// its single first-match pass. The reference below is the code generate
// ran before the index existed, kept word for word: one constraint per
// path per AEC, built by walking the path's bindings by "dev:if:dir"
// string through three string-keyed sets, the desired decision from
// Control.AppliesTo per path, the AEC signature from acl.DecideMatch
// (with its straddle check), and the synthesis table from one first-match
// scan per class per binding. The engine must agree with it on every AEC
// and every DEC group: the same constraint formulas in the same
// first-occurrence order, the same decisions, the same AECs in the same
// order, the same rows.
//
// It is also the oracle for the merged synthesis table. refBuildRows is
// the unmerged row-per-vector table and refSynthesizeTarget the emission
// that walked it, both as they were. The engine's table must be that one
// grouped by (AEC, overlap list) — row for row when merging is off — and
// per target it must count the reference's rules and simplify to the
// reference's ACL, already after the one SimplifyFast pass the merge
// argument is about.

// --- reference implementation (the pre-index generate path) ---

type refAEC struct {
	classes   []header.Match
	decisions []acl.Action
	ctrlIn    []bool
}

// refSets holds the reference's binding roles by name. The paths it is
// asked about may be another engine's, so role resolves a binding by its
// name, once per binding it is shown (memo).
type refSets struct {
	encIdx         map[string]int
	srcSet, tgtSet map[string]bool
	targetIDs      []string
	memo           map[topo.ACLBinding]refRole
}

// refRole is a binding's roles: its index in targetIDs and among the
// encoding bindings (-1: not one), and whether it is a source.
type refRole struct {
	tgt, enc int
	src      bool
}

func refSetsOf(e *Engine, sources, encBindings []topo.ACLBinding) refSets {
	rs := refSets{encIdx: map[string]int{}, srcSet: map[string]bool{}, tgtSet: map[string]bool{}, memo: map[topo.ACLBinding]refRole{}}
	for _, b := range sources {
		rs.srcSet[b.ID()] = true
	}
	for _, b := range e.Allow {
		if !rs.tgtSet[b.ID()] {
			rs.tgtSet[b.ID()] = true
			rs.targetIDs = append(rs.targetIDs, b.ID())
		}
	}
	sort.Strings(rs.targetIDs)
	for i, b := range encBindings {
		rs.encIdx[b.ID()] = i
	}
	return rs
}

func (rs refSets) role(b topo.ACLBinding) refRole {
	r, ok := rs.memo[b]
	if !ok {
		id := b.ID()
		r = refRole{tgt: -1, enc: -1, src: rs.srcSet[id]}
		if rs.tgtSet[id] {
			r.tgt, _ = slices.BinarySearch(rs.targetIDs, id)
		}
		if i, ok := rs.encIdx[id]; ok {
			r.enc = i
		}
		rs.memo[b] = r
	}
	return r
}

func refClassDecisions(t *testing.T, bindings []topo.ACLBinding, class header.Match) []acl.Action {
	out := make([]acl.Action, len(bindings))
	for i, b := range bindings {
		act, ok := b.Iface.ACL(b.Dir).DecideMatch(class)
		if !ok {
			t.Fatalf("class %v not atomic wrt ACL %v", class, b.Iface.ACL(b.Dir))
		}
		out[i] = act
	}
	return out
}

func refDeriveAECs(t *testing.T, e *Engine, encBindings []topo.ACLBinding, classes []header.Match) []*refAEC {
	groups := map[string]*refAEC{}
	var order []string
	for _, c := range classes {
		decs := refClassDecisions(t, encBindings, c)
		var key strings.Builder
		for _, d := range decs {
			if d == acl.Permit {
				key.WriteByte('p')
			} else {
				key.WriteByte('d')
			}
		}
		ctrlIn := make([]bool, len(e.Controls))
		for i, ctrl := range e.Controls {
			switch {
			case ctrl.Match.Contains(c):
				ctrlIn[i] = true
				key.WriteByte('1')
			case !ctrl.Match.Overlaps(c):
				key.WriteByte('0')
			default:
				t.Fatalf("class %v not atomic wrt control match %v", c, ctrl.Match)
			}
		}
		k := key.String()
		g, ok := groups[k]
		if !ok {
			g = &refAEC{decisions: decs, ctrlIn: ctrlIn}
			groups[k] = g
			order = append(order, k)
		}
		g.classes = append(g.classes, c)
	}
	out := make([]*refAEC, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k])
	}
	return out
}

func refDesired(e *Engine, a *refAEC, p topo.Path, rs refSets) bool {
	orig := true
	for _, bind := range p.Bindings() {
		if i := rs.role(bind).enc; i >= 0 && a.decisions[i] == acl.Deny {
			orig = false
			break
		}
	}
	for i := range e.Controls {
		ctrl := &e.Controls[i]
		if !ctrl.AppliesTo(p) || !a.ctrlIn[i] {
			continue
		}
		switch ctrl.Mode {
		case Isolate:
			return false
		case Open:
			return true
		case Maintain:
			return orig
		}
	}
	return orig
}

// refConstraints returns one formula per path, in path order.
func refConstraints(e *Engine, b *smt.Builder, denyVars []smt.F, a *refAEC, paths []topo.Path, rs refSets) []smt.F {
	var out []smt.F
	for _, p := range paths {
		lhs := smt.True
		for _, bind := range p.Bindings() {
			switch r := rs.role(bind); {
			case r.tgt >= 0:
				lhs = b.And(lhs, denyVars[r.tgt].Not())
			case r.src:
				// Source interfaces permit all traffic after migration.
			case r.enc >= 0:
				lhs = b.And(lhs, b.Const(a.decisions[r.enc] == acl.Permit))
			}
		}
		out = append(out, b.Iff(lhs, b.Const(refDesired(e, a, p, rs))))
	}
	return out
}

// refHit is the definitional first match of an atomic class.
func refHit(rules []acl.Rule, class header.Match) int {
	for i, r := range rules {
		if r.Match.Contains(class) {
			return i
		}
	}
	return len(rules)
}

type refRow struct {
	seq      []int
	overlaps []header.Match
	aec      int
}

func refIntersectAll(as, bs []header.Match) []header.Match {
	var out []header.Match
	for _, a := range as {
		for _, b := range bs {
			if m, ok := a.Intersect(b); ok && !containsMatch(out, m) {
				out = append(out, m)
			}
		}
	}
	return out
}

func refBuildRows(e *Engine, aecs []*refAEC, encBindings []topo.ACLBinding) []refRow {
	type bindState struct {
		grouping ruleGrouping
		rules    []acl.Rule
	}
	states := make([]bindState, len(encBindings))
	for i, b := range encBindings {
		a := b.Iface.ACL(b.Dir)
		states[i] = bindState{grouping: groupRules(a.Rules, e.Opts.OptimizeSynthesis), rules: a.Rules}
	}
	var rows []refRow
	for ai, a := range aecs {
		dims := make([]map[int][]header.Match, len(encBindings))
		for i := range dims {
			dims[i] = map[int][]header.Match{}
		}
		for _, c := range a.classes {
			for i := range encBindings {
				st := &states[i]
				hit := refHit(st.rules, c)
				grp := st.grouping.numGroups
				contrib := header.MatchAll
				if hit < len(st.rules) {
					grp = st.grouping.groupOf[hit]
					contrib = st.rules[hit].Match
				}
				if !containsMatch(dims[i][grp], contrib) {
					dims[i][grp] = append(dims[i][grp], contrib)
				}
			}
		}
		entries := []refRow{{overlaps: []header.Match{header.MatchAll}, aec: ai}}
		for i := range encBindings {
			keys := make([]int, 0, len(dims[i]))
			for k := range dims[i] {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			var next []refRow
			for _, en := range entries {
				for _, k := range keys {
					ov := refIntersectAll(en.overlaps, dims[i][k])
					if len(ov) == 0 {
						continue
					}
					seq := append(append([]int(nil), en.seq...), k)
					next = append(next, refRow{seq: seq, overlaps: ov, aec: ai})
				}
			}
			entries = next
		}
		for i, ctrl := range e.Controls {
			for j := range entries {
				if a.ctrlIn[i] {
					entries[j].seq = append(entries[j].seq, 0)
					entries[j].overlaps = refIntersectAll(entries[j].overlaps, []header.Match{ctrl.Match})
				} else {
					entries[j].seq = append(entries[j].seq, 1)
				}
			}
			keep := entries[:0]
			for _, en := range entries {
				if len(en.overlaps) > 0 {
					keep = append(keep, en)
				}
			}
			entries = keep
		}
		rows = append(rows, entries...)
	}
	sort.SliceStable(rows, func(i, j int) bool { return seqLess(rows[i].seq, rows[j].seq) })
	return rows
}

func seqLess(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// refSynthesizeTarget is synthesizeTarget as it was when the table held
// one row per vector, kept word for word (a reference row names its AEC
// by index into the engine's solved AECs).
func refSynthesizeTarget(target int, rows []refRow, aecs []*aec) *acl.ACL {
	out := &acl.ACL{Default: acl.Permit}
	for _, r := range rows {
		a := aecs[r.aec]
		if a.solved {
			act := acl.Action(a.dec[target])
			for _, ov := range r.overlaps {
				out.Rules = append(out.Rules, acl.Rule{Action: act, Match: ov})
			}
			continue
		}
		// DEC-split AEC: uniform if all groups agree at this target.
		permits, denies := 0, 0
		for _, g := range a.decs {
			if g.dec[target] {
				permits++
			} else {
				denies++
			}
		}
		switch {
		case denies == 0 || permits == 0:
			act := acl.Action(denies == 0)
			for _, ov := range r.overlaps {
				out.Rules = append(out.Rules, acl.Rule{Action: act, Match: ov})
			}
		default:
			// permit* handling: insert denies for the denied DECs'
			// classes before the partial permit (§5.4 step 4).
			for _, g := range a.decs {
				if g.dec[target] {
					continue
				}
				for _, c := range g.classes {
					for _, ov := range r.overlaps {
						if m, ok := c.Intersect(ov); ok {
							out.Rules = append(out.Rules, acl.Rule{Action: acl.Deny, Match: m})
						}
					}
				}
			}
			for _, ov := range r.overlaps {
				out.Rules = append(out.Rules, acl.Rule{Action: acl.Permit, Match: ov})
			}
		}
	}
	return out
}

// --- the comparison ---

// oracleCase builds one engine + source set; it is called once for the
// reference and once per option combination, so it must be deterministic.
type oracleCase struct {
	name string
	mk   func(opts Options) (*Engine, []topo.ACLBinding)
}

// distinct drops repeated formulas, keeping first occurrences.
func distinct(fs []smt.F) []smt.F {
	seen := map[smt.F]bool{}
	var out []smt.F
	for _, f := range fs {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// shapeConstraint is the Equation 8–10 constraint of one shape for an
// AEC as a formula: the conjunction of the crossed bindings'
// post-generation decisions — the target's decision variable, permit at
// a source, the AEC's original decision elsewhere — must equal the
// shape's desired decision. It is the SAT encoding the closed form
// (genIndex.decide) replaced, kept as the per-shape side of the
// comparison with the per-path reference.
func shapeConstraint(ix *genIndex, b *smt.Builder, denyVars []smt.F, a *aec, sh *pathShape) smt.F {
	lhs := smt.True
	for _, t := range sh.targets {
		lhs = b.And(lhs, denyVars[t].Not())
	}
	for _, i := range sh.others {
		lhs = b.And(lhs, b.Const(a.decisions[i] == acl.Permit))
	}
	return b.Iff(lhs, b.Const(ix.desired(a, sh)))
}

// refPlacement reads the reference's per-path constraints the way the
// closed form takes them: one placement shape per path — its desired
// decision, whether a binding outside the targets and sources denies the
// AEC on it, and its targets as indices into rs.targetIDs, every one
// permitting until the plan says otherwise.
func refPlacement(e *Engine, a *refAEC, paths []topo.Path, rs refSets) *placement {
	pl := &placement{denies: make([]bool, len(rs.targetIDs))}
	for _, p := range paths {
		var targets []int32
		denied := false
		for _, bind := range p.Bindings() {
			switch r := rs.role(bind); {
			case r.tgt >= 0:
				targets = append(targets, int32(r.tgt))
			case r.src:
				// Source interfaces permit all traffic after migration.
			case r.enc >= 0 && a.decisions[r.enc] == acl.Deny:
				denied = true
			}
		}
		pl.shapes = append(pl.shapes, placeShape{desired: refDesired(e, a, p, rs), closedDeny: denied, free: targets})
	}
	return pl
}

// compareSolve builds the reference and the per-shape constraints of one
// AEC (or DEC group) in one builder and requires them equal after
// dropping repeats. It then decides the AEC through genIndex.decide and
// requires the reference's verdict and decisions: the closed form
// (placement.reduce, then denyTargets) applied to the reference's own
// per-path shapes. The reference's SAT solve cross-checks both: it must
// agree on solvability, and the engine's decisions must satisfy every
// per-path formula.
func compareSolve(t *testing.T, what string, e *Engine, ix *genIndex, rs refSets, ra *refAEC, a *aec, paths []topo.Path, shapes []int32) bool {
	t.Helper()
	s := smt.NewSolver()
	b := s.B
	vars := make([]smt.F, len(rs.targetIDs))
	for i := range rs.targetIDs {
		vars[i] = b.Var()
	}
	ref := refConstraints(e, b, vars, ra, paths, rs)
	got := make([]smt.F, 0, len(shapes))
	for _, si := range shapes {
		got = append(got, shapeConstraint(ix, b, vars, a, &ix.shapes[si]))
	}
	if want, have := distinct(ref), distinct(got); !slices.Equal(want, have) {
		t.Fatalf("%s: constraint sequences differ\nreference (%d paths -> %d distinct): %v\ncompiled  (%d shapes -> %d distinct): %v",
			what, len(paths), len(want), want, len(shapes), len(have), have)
	}
	refPl := refPlacement(e, ra, paths, rs)
	var deny []bool
	refOK := refPl.reduce()
	if refOK {
		deny = denyTargets(len(rs.targetIDs), refPl.clauses)
	}
	dec, ok := ix.decide(&placement{}, a, shapes)
	a.dec = dec
	if ok != refOK {
		t.Fatalf("%s: solvable=%v, reference %v", what, ok, refOK)
	}
	for _, f := range ref {
		s.Assert(f)
	}
	if solved := s.Solve(); solved != ok {
		t.Fatalf("%s: solvable=%v, the reference's SAT solve %v", what, ok, solved)
	}
	if !ok {
		return false
	}
	if len(a.dec) != len(rs.targetIDs) {
		t.Fatalf("%s: dec has %d entries for %d targets", what, len(a.dec), len(rs.targetIDs))
	}
	assign := make(map[smt.F]bool, len(vars))
	for i, id := range rs.targetIDs {
		if a.dec[i] == deny[i] {
			t.Fatalf("%s: decision at %s = %v, reference %v", what, id, a.dec[i], !deny[i])
		}
		assign[vars[i]] = deny[i]
	}
	for k, f := range ref {
		if !b.Eval(f, assign) {
			t.Fatalf("%s: the decisions violate the constraint of path %d (%v)", what, k, paths[k])
		}
	}
	return true
}

// compareTable requires the engine's table to be the reference rows
// grouped by (AEC, overlap list) when merged — every row a group of its
// own when not: one entry per group, holding the group's lowest and
// highest vector and its size, emitted where the reference has the
// group's first row and, for a group of several, its last.
func compareTable(t *testing.T, what string, table *synthTable, aecs []*aec, want []refRow, merged bool) {
	t.Helper()
	type group struct{ lo, hi, n int } // reference rows: first, last, how many
	var groups []group
	groupOf := make([]int, len(want))
	byKey := map[string]int{}
	for i, r := range want {
		key := fmt.Sprint(i)
		if merged {
			key = fmt.Sprint(r.aec, r.overlaps)
		}
		g, ok := byKey[key]
		if !ok {
			g = len(groups)
			byKey[key] = g
			groups = append(groups, group{lo: i})
		}
		groups[g].hi = i
		groups[g].n++
		groupOf[i] = g
	}
	if len(table.rows) != len(groups) || table.vectors() != len(want) {
		t.Fatalf("%s: %d entries for %d rows, reference %d groups of %d rows",
			what, len(table.rows), table.vectors(), len(groups), len(want))
	}
	entryOf := make([]*row, len(groups))
	next := 0
	for i, w := range want {
		g := groups[groupOf[i]]
		if i != g.lo && i != g.hi {
			continue
		}
		if next == len(table.order) {
			t.Fatalf("%s: %d emission positions, reference has more", what, next)
		}
		p := table.order[next]
		next++
		if i == g.lo {
			entryOf[groupOf[i]] = p.r
		}
		lo, hi := want[g.lo], want[g.hi]
		if p.r != entryOf[groupOf[i]] || p.last != (i != g.lo) || !slices.Equal(p.seq(), w.seq) ||
			!slices.Equal(p.r.first, lo.seq) || !slices.Equal(p.r.last, hi.seq) || p.r.n != g.n ||
			p.r.a != aecs[w.aec] || !slices.EqualFunc(p.r.overlaps, w.overlaps, header.Match.Equal) {
			t.Fatalf("%s: position %d = entry [%v .. %v] × %d at %v overlaps %v, reference row %d: group [%v .. %v] × %d at %v overlaps %v (AEC %d)",
				what, next-1, p.r.first, p.r.last, p.r.n, p.seq(), p.r.overlaps, i, lo.seq, hi.seq, g.n, w.seq, w.overlaps, w.aec)
		}
	}
	if next != len(table.order) {
		t.Fatalf("%s: %d emission positions, reference %d", what, len(table.order), next)
	}
}

// compareSynthesis requires, per target, the reference's rule count and
// the reference's ACL: simplified, the same rules after one SimplifyFast
// pass and the same final text; unsimplified, the same rules. It returns
// what GenerateContext would report for the table.
func compareSynthesis(t *testing.T, what string, e *Engine, ix *genIndex, table *synthTable, aecs []*aec, want []refRow) (acls map[string]*acl.ACL, generated int) {
	t.Helper()
	acls = map[string]*acl.ACL{}
	for k, id := range ix.targetIDs {
		got, n := e.synthesizeTarget(k, table)
		ref := refSynthesizeTarget(k, want, aecs)
		if n != len(ref.Rules) {
			t.Fatalf("%s: %s counts %d generated rules, reference emits %d", what, id, n, len(ref.Rules))
		}
		generated += n
		if e.Opts.OptimizeSynthesis {
			if g, r := acl.SimplifyFastPass(got), acl.SimplifyFastPass(ref); !slices.Equal(g.Rules, r.Rules) {
				t.Fatalf("%s: %s after one pass: %d rules from %d emitted, reference %d from %d\n got %v\nwant %v",
					what, id, len(g.Rules), len(got.Rules), len(r.Rules), len(ref.Rules), g, r)
			}
			got, _ = simplifyBounded(got)
			ref, _ = simplifyBounded(ref)
		}
		if !slices.Equal(got.Rules, ref.Rules) {
			t.Fatalf("%s: %s synthesized\n got %v\nwant %v", what, id, got, ref)
		}
		acls[id] = got
	}
	return acls, generated
}

func runOracleCase(t *testing.T, c oracleCase) {
	refE, refSources := c.mk(DefaultOptions())
	refEnc := refE.Before.ACLGroup(refE.Scope)
	classes, err := refE.deriveClasses()
	if err != nil {
		t.Fatal(err)
	}
	refAECs := refDeriveAECs(t, refE, refEnc, classes)
	rs := refSetsOf(refE, refSources, refEnc)
	// The solving state of the optimized run's AECs, as GenerateContext
	// leaves it; the unoptimized run derives the same AECs in the same
	// order and takes it over.
	var solved []*aec
	unsolvable := false

	for _, optimize := range []bool{true, false} {
		opts := DefaultOptions()
		opts.OptimizeSynthesis = optimize
		e, sources := c.mk(opts)
		enc := e.Before.ACLGroup(e.Scope)
		what := fmt.Sprintf("optimize=%v", optimize)

		// AEC signatures, membership and order: through the search tree,
		// and by linear scan.
		aecs, err := e.deriveAECs(enc, classes)
		if err != nil {
			t.Fatal(err)
		}
		if len(aecs) != len(refAECs) {
			t.Fatalf("%s: %d AECs, reference %d", what, len(aecs), len(refAECs))
		}
		for i, a := range aecs {
			ra := refAECs[i]
			if !slices.Equal(a.decisions, ra.decisions) || !slices.Equal(a.ctrlIn, ra.ctrlIn) ||
				!slices.EqualFunc(a.classes, ra.classes, header.Match.Equal) {
				t.Fatalf("%s: AEC %d differs from reference (signature %v/%v vs %v/%v, %d vs %d classes)",
					what, i, a.decisions, a.ctrlIn, ra.decisions, ra.ctrlIn, len(a.classes), len(ra.classes))
			}
		}

		// Constraints and decisions, per AEC and per DEC group. They do not
		// depend on the option, so one pass per case suffices; it runs on
		// the optimized engine.
		if optimize {
			src := e.fecSource()
			ix, err := e.compileGenerate(src.Paths(), sources, enc)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ix.targetIDs, rs.targetIDs) {
				t.Fatalf("targets %v, reference %v", ix.targetIDs, rs.targetIDs)
			}
			for i, a := range aecs {
				if compareSolve(t, fmt.Sprintf("AEC %d", i), e, ix, rs, refAECs[i], a, src.Paths(), ix.allShapes) {
					a.solved = true
					continue
				}
				// Unsolvable as one AEC on both sides: the DEC split.
				seen := map[int]bool{}
				for _, cl := range a.classes {
					k := src.FECOf(cl.Dst)
					if seen[k] {
						continue
					}
					seen[k] = true
					var decPaths []topo.Path
					var shapes []int32
					if k >= 0 {
						decPaths = src.Materialize(k).Paths
						shapes = ix.shapesOn(src.PathIndices(k))
					}
					sub := &aec{decisions: a.decisions, ctrlIn: a.ctrlIn}
					if !compareSolve(t, fmt.Sprintf("AEC %d DEC %d", i, k), e, ix, rs, refAECs[i], sub, decPaths, shapes) {
						unsolvable = true
						continue
					}
					g := &decGroup{dec: sub.dec}
					for _, cl := range a.classes {
						if src.FECOf(cl.Dst) == k {
							g.classes = append(g.classes, cl)
						}
					}
					a.decs = append(a.decs, g)
				}
			}
			solved = aecs
		}
		for i, a := range aecs {
			a.solved, a.dec, a.decs = solved[i].solved, solved[i].dec, solved[i].decs
		}

		// The synthesis table, over grouped rules or not, and what each
		// target makes of it: merged (the output is simplified) and row
		// for row (it is not).
		refE.Opts.OptimizeSynthesis = optimize
		want := refBuildRows(refE, refAECs, refEnc)
		ix, err := e.compileGenerate(nil, sources, enc) // for the target IDs
		if err != nil {
			t.Fatal(err)
		}
		table, err := e.buildRows(aecs, enc)
		if err != nil {
			t.Fatal(err)
		}
		compareTable(t, what, table, aecs, want, optimize)
		if unsolvable {
			continue // GenerateContext stops before synthesis
		}
		acls, generated := compareSynthesis(t, what, e, ix, table, aecs, want)
		if !optimize {
			continue
		}
		// The solving state above was put together by this test; a whole
		// Generate ties it to the engine's own. (Once: verifying
		// unsimplified ACLs takes the medium cases tens of seconds.)
		res, err := e.Generate(sources)
		if err != nil {
			t.Fatal(err)
		}
		if res.RulesGenerated != generated || len(res.ACLs) != len(acls) {
			t.Fatalf("%s: Generate reports %d rules at %d targets, the table %d at %d",
				what, res.RulesGenerated, len(res.ACLs), generated, len(acls))
		}
		for id, a := range res.ACLs {
			if !slices.Equal(a.Rules, acls[id].Rules) {
				t.Fatalf("%s: Generate at %s\n got %v\nwant %v", what, id, a, acls[id])
			}
		}
	}
}

// --- cases ---

func papernetBindings(n *topo.Network, dir topo.Direction, ids ...string) []topo.ACLBinding {
	var out []topo.ACLBinding
	for _, id := range ids {
		iface, err := n.LookupInterface(id)
		if err != nil {
			panic(err)
		}
		out = append(out, topo.ACLBinding{Iface: iface, Dir: dir})
	}
	return out
}

func papernetCases() []oracleCase {
	pair := func(n *topo.Network, from, to string) (IfaceSet, IfaceSet) {
		return IfacesNamed(n, from), IfacesNamed(n, to)
	}
	mk := func(name string, set func(e *Engine) []topo.ACLBinding) oracleCase {
		return oracleCase{"papernet/" + name, func(opts Options) (*Engine, []topo.ACLBinding) {
			before := papernet.Build()
			e := New(before, before.Clone(), papernet.Scope(), opts)
			return e, set(e)
		}}
	}
	return []oracleCase{
		mk("migration", func(e *Engine) []topo.ACLBinding {
			e.Allow = papernetBindings(e.Before, topo.In, "C:1", "C:2", "D:1")
			return papernetBindings(e.Before, topo.In, "A:1", "D:2")
		}),
		mk("isolate", func(e *Engine) []topo.ACLBinding {
			e.Allow = papernetBindings(e.Before, topo.In, "B:1", "B:2")
			from, to := pair(e.Before, "A:1", "D:3")
			e.Controls = []Control{{From: from, To: to, Mode: Isolate, Match: header.DstMatch(papernet.Traffic(5))}}
			return nil
		}),
		mk("open", func(e *Engine) []topo.ACLBinding {
			e.Allow = papernetBindings(e.Before, topo.In, "A:1")
			from, to := pair(e.Before, "A:1", "D:3")
			e.Controls = []Control{{From: from, To: to, Mode: Open, Match: header.DstMatch(papernet.Traffic(6))}}
			return papernetBindings(e.Before, topo.In, "A:1")
		}),
		mk("maintain", func(e *Engine) []topo.ACLBinding {
			e.Allow = papernetBindings(e.Before, topo.Out, "A:2", "A:3")
			from, to := pair(e.Before, "A:1", "C:3")
			e.Controls = []Control{
				{From: from, To: to, Mode: Maintain, Match: header.DstMatch(papernet.Traffic(7))},
				{From: from, To: to, Mode: Isolate, Match: header.MatchAll},
			}
			return nil
		}),
	}
}

// WANMigration is the Fig. 4c setup on a generated WAN: move every
// aggregation ACL down to the edge. Exported from the test binary for
// the external benchmarks.
func WANMigration(w *netgen.WAN, opts Options) (*Engine, []topo.ACLBinding) {
	after := w.Net.Clone()
	cleared, err := netgen.Bindings(after, w.AggACLs)
	if err != nil {
		panic(err)
	}
	for _, b := range cleared {
		b.Iface.SetACL(b.Dir, nil)
	}
	sources, _ := netgen.Bindings(w.Net, w.AggACLs)
	e := New(w.Net, after, w.Scope, opts)
	e.Allow, _ = netgen.Bindings(w.Net, w.EdgeACLs)
	return e, sources
}

// DeriveAECsOf derives e's classes and returns a function that groups
// them into AECs and reports how many, so that a benchmark can time
// deriveAECs alone. Exported from the test binary for the external
// benchmarks.
func DeriveAECsOf(e *Engine) (derive func() (int, error), classes int, err error) {
	enc := e.Before.ACLGroup(e.Scope)
	cs, err := e.deriveClasses()
	if err != nil {
		return nil, 0, err
	}
	return func() (int, error) {
		aecs, err := e.deriveAECs(enc, cs)
		return len(aecs), err
	}, len(cs), nil
}

// VerifyCheckOf returns a function that runs the verification check of
// res's generated snapshot afresh, as Generate runs it: on an engine
// derived from e, which shares e's paths and FECs and rebuilds the
// check's own state — preprocessing, region indexes, every FEC decision.
// Exported from the test binary for the external benchmarks.
func VerifyCheckOf(e *Engine, res *GenerateResult) func() *CheckResult {
	return func() *CheckResult { return e.derived(res.Generated, nil).Check() }
}

// WANOpen is the Fig. 4d setup: open perDevice prefixes per edge device
// from the core uplinks to the edge customer side, regenerating the core
// and aggregation ACLs.
func WANOpen(w *netgen.WAN, perDevice int, opts Options) (*Engine, []topo.ACLBinding) {
	var fromIDs, toIDs []string
	for _, cn := range w.CoreNames {
		fromIDs = append(fromIDs, cn+":up")
	}
	for _, en := range w.EdgeNames {
		toIDs = append(toIDs, en+":ext")
	}
	from, to := IfacesNamed(w.Net, fromIDs...), IfacesNamed(w.Net, toIDs...)
	srcs, err := netgen.Bindings(w.Net, append(slices.Clone(w.CoreACLs), w.AggACLs...))
	if err != nil {
		panic(err)
	}
	e := New(w.Net, w.Net.Clone(), w.Scope, opts)
	e.Allow = srcs
	for _, p := range w.OpenSelections(w.Config.Seed, perDevice) {
		e.Controls = append(e.Controls, Control{From: from, To: to, Mode: Open, Match: header.DstMatch(p)})
	}
	return e, srcs
}

func wanCases(size netgen.Size, seeds ...int64) []oracleCase {
	var out []oracleCase
	for _, seed := range seeds {
		// One WAN per case, not per seed: cases run in parallel, and a
		// network fills lazy caches (the per-device LPM trie) on first use.
		build := func() *netgen.WAN { return netgen.Build(netgen.DefaultConfig(size, seed)) }
		name := fmt.Sprintf("%v-%d/", size, seed)
		w := build()
		out = append(out, oracleCase{name + "migration", func(opts Options) (*Engine, []topo.ACLBinding) {
			return WANMigration(w, opts)
		}})
		for _, k := range []int{1, 2, 4} {
			w := build()
			out = append(out, oracleCase{fmt.Sprintf("%sopen-%d", name, k), func(opts Options) (*Engine, []topo.ACLBinding) {
				return WANOpen(w, k, opts)
			}})
		}
	}
	return out
}

// oracleMesh draws a random layered mesh with everything the index has
// to get right: several entry and exit borders, controls with
// overlapping From/To sets in a random precedence order (including pairs
// no path connects), bindings that are target and source at once, paths
// that cross no target, unbound target bindings, and black-holed
// prefixes — classes that enter the scope but that no path forwards, so
// their FEC is -1.
func oracleMesh(seed int64, opts Options) (*Engine, []topo.ACLBinding) {
	r := rand.New(rand.NewSource(seed))
	n := topo.NewNetwork()
	nLayers, nPref := 2+r.Intn(2), 3+r.Intn(3)
	pref := func(i int) header.Prefix { return header.Prefix{Addr: uint32(10+i) << 24, Len: 8} }
	randPrefix := func() header.Prefix {
		p := pref(r.Intn(nPref))
		if r.Intn(3) == 0 {
			lo, hi := p.Halves()
			p = [2]header.Prefix{lo, hi}[r.Intn(2)]
		}
		return p
	}

	var layers [][]*topo.Device
	var names, entries, exits []string
	downs := map[string][]*topo.Interface{}
	for l := 0; l < nLayers; l++ {
		var layer []*topo.Device
		for k := 0; k < 1+r.Intn(3); k++ {
			d := n.Device(fmt.Sprintf("L%dD%d", l, k))
			layer = append(layer, d)
			names = append(names, d.Name)
		}
		layers = append(layers, layer)
	}
	for _, d := range layers[0] {
		d.Interface("e")
		entries = append(entries, d.Name+":e")
	}
	for l := 0; l+1 < nLayers; l++ {
		for _, u := range layers[l] {
			for j, v := range layers[l+1] {
				ui := u.Interface(fmt.Sprintf("d%d", j))
				n.AddLink(ui, v.Interface("u"+u.Name))
				downs[u.Name] = append(downs[u.Name], ui)
			}
		}
	}
	for _, d := range layers[nLayers-1] {
		downs[d.Name] = append(downs[d.Name], d.Interface("x"))
		exits = append(exits, d.Name+":x")
	}
	for l, layer := range layers {
		for _, d := range layer {
			for i := 0; i < nPref; i++ {
				if l > 0 && r.Intn(6) == 0 {
					continue // black hole below the entry layer
				}
				for _, o := range downs[d.Name] {
					if r.Intn(2) == 0 {
						d.AddRoute(pref(i), o)
					}
				}
				if r.Intn(3) == 0 {
					half, _ := pref(i).Halves()
					d.AddRoute(half, downs[d.Name][r.Intn(len(downs[d.Name]))])
				}
			}
		}
	}

	randMatch := func() header.Match {
		m := header.DstMatch(randPrefix())
		switch r.Intn(6) {
		case 0:
			m.DstPort = header.PortRange{Lo: 80, Hi: 80}
		case 1:
			m.DstPort = header.PortRange{Lo: 1024, Hi: 2048}
		}
		return m
	}
	// Sparse meshes leave many bindings without any role, so paths that
	// differ only there share a shape; dense ones give every path its own.
	sparsity := 2 + r.Intn(11)
	var all, bound []topo.ACLBinding
	for _, layer := range layers {
		for _, d := range layer {
			for _, i := range d.SortedInterfaces() {
				for _, dir := range []topo.Direction{topo.In, topo.Out} {
					b := topo.ACLBinding{Iface: i, Dir: dir}
					all = append(all, b)
					if r.Intn(sparsity) != 0 {
						continue
					}
					a := &acl.ACL{Default: acl.Action(r.Intn(4) != 0)}
					for k := 0; k < 1+r.Intn(4); k++ {
						a.Rules = append(a.Rules, acl.Rule{Action: acl.Action(r.Intn(2) == 0), Match: randMatch()})
					}
					i.SetACL(dir, a)
					bound = append(bound, b)
				}
			}
		}
	}

	e := New(n, n.Clone(), topo.NewScope(names...).WithEntries(entries...), opts)
	pick := func(from []topo.ACLBinding, oneIn int) []topo.ACLBinding {
		var out []topo.ACLBinding
		for _, b := range from {
			if r.Intn(oneIn) == 0 {
				out = append(out, b)
			}
		}
		return out
	}
	sources := pick(bound, 3)
	e.Allow = pick(all, 1+sparsity)
	if r.Intn(2) == 0 {
		e.Allow = append(e.Allow, pick(sources, 2)...) // target and source at once
	}
	if len(e.Allow) == 0 {
		e.Allow = []topo.ACLBinding{all[r.Intn(len(all))]}
	}
	subset := func(ids []string) IfaceSet {
		picked := []string{ids[r.Intn(len(ids))]}
		for _, id := range ids {
			if r.Intn(2) == 0 {
				picked = append(picked, id)
			}
		}
		return IfacesNamed(n, picked...)
	}
	for k := r.Intn(5); k > 0; k-- {
		m := randMatch()
		if r.Intn(8) == 0 {
			m = header.MatchAll
		}
		e.Controls = append(e.Controls, Control{
			From: subset(entries), To: subset(exits), Mode: ControlMode(r.Intn(3)), Match: m,
		})
	}
	return e, sources
}

// permutedOverlapsCase is a two-hop chain built so that one AEC has two
// rows whose overlap lists hold the same matches in a different order — a
// thing no network of the drawn population has. At R1:e:in the AEC's
// classes hit group 0 = [dport 80, dport 443] (first seen in that order,
// on 10.0/16) and group 2 = [8.0.0.0/5]; at R2:x:out they hit group 0 =
// [10.1/16:443, 11.1/16:80]. Crossing gives [11.1/16:80, 10.1/16:443]
// from the first pair and [10.1/16:443, 11.1/16:80] from the second.
// The table merges lists equal as sequences; these two stay apart.
func permutedOverlapsCase() oracleCase {
	return oracleCase{"permuted-overlaps", func(opts Options) (*Engine, []topo.ACLBinding) {
		n := topo.NewNetwork()
		r1, r2 := n.Device("R1"), n.Device("R2")
		e, d, u, x := r1.Interface("e"), r1.Interface("d"), r2.Interface("u"), r2.Interface("x")
		n.AddLink(d, u)
		for _, p := range []string{"10.0.0.0/8", "11.0.0.0/8"} {
			r1.AddRoute(header.MustParsePrefix(p), d)
			r2.AddRoute(header.MustParsePrefix(p), x)
		}
		e.SetACL(topo.In, acl.MustParse(
			"deny dport 80, deny dport 443, permit dst 10.1.1.0/24, deny dst 8.0.0.0/5, permit all"))
		x.SetACL(topo.Out, acl.MustParse(
			"deny dst 10.1.0.0/16 dport 443, deny dst 11.1.0.0/16 dport 80, permit dst 10.1.5.0/24, deny dst 10.0.0.0/16, permit all"))
		eng := New(n, n.Clone(), topo.NewScope("R1", "R2").WithEntries("R1:e"), opts)
		eng.Allow = []topo.ACLBinding{{Iface: d, Dir: topo.Out}}
		return eng, []topo.ACLBinding{{Iface: e, Dir: topo.In}, {Iface: x, Dir: topo.Out}}
	}}
}

// fiveFieldCase is a two-hop network whose rules and controls constrain
// every header field: within one destination atom, source prefixes,
// source and destination port ranges and protocol ranges alone decide
// which of the atom's candidate rules a class first-matches, and whether
// it falls under a control. Two of the controls share a destination
// prefix with rules (they contain whole atoms) and one constrains no
// destination at all (it overlaps every atom).
func fiveFieldCase() oracleCase {
	match := func(s string) header.Match { return acl.MustParse("permit " + s).Rules[0].Match }
	return oracleCase{"five-fields", func(opts Options) (*Engine, []topo.ACLBinding) {
		n := topo.NewNetwork()
		r1, r2 := n.Device("R1"), n.Device("R2")
		e, d, u, x, y := r1.Interface("e"), r1.Interface("d"), r2.Interface("u"), r2.Interface("x"), r2.Interface("y")
		n.AddLink(d, u)
		r1.AddRoute(header.MustParsePrefix("10.0.0.0/7"), d)
		r2.AddRoute(header.MustParsePrefix("10.0.0.0/8"), x)
		r2.AddRoute(header.MustParsePrefix("11.0.0.0/8"), y)
		e.SetACL(topo.In, acl.MustParse(
			"deny src 172.16.0.0/12 dst 10.1.0.0/16 dport 22, permit dst 10.1.0.0/16 proto tcp sport 1024-65535, "+
				"deny dst 10.1.0.0/16 proto udp, deny dst 10.0.0.0/8 dport 8000-8999, "+
				"permit dst 10.1.2.0/24 src 192.168.0.0/16, deny dst 10.1.2.0/24, permit all"))
		x.SetACL(topo.Out, acl.MustParse(
			"deny src 192.168.0.0/16 dst 10.1.0.0/16 proto 1-16, permit dst 10.1.0.0/16 sport 53 proto udp, "+
				"deny dst 10.0.0.0/8 dport 0-1023, permit all"))
		y.SetACL(topo.Out, acl.MustParse(
			"deny dst 11.0.0.0/8 sport 0-1023 proto tcp, permit dst 11.1.0.0/16 src 10.0.0.0/8, "+
				"deny dst 11.0.0.0/8 dport 443, permit all"))
		eng := New(n, n.Clone(), topo.NewScope("R1", "R2").WithEntries("R1:e"), opts)
		from := IfacesNamed(n, "R1:e")
		eng.Controls = []Control{
			{From: from, To: IfacesNamed(n, "R2:x"), Mode: Open, Match: match("src 172.16.0.0/12 dst 10.1.0.0/16 dport 22 proto tcp")},
			{From: from, To: IfacesNamed(n, "R2:x", "R2:y"), Mode: Isolate, Match: match("sport 53 proto udp")},
			{From: from, To: IfacesNamed(n, "R2:y"), Mode: Maintain, Match: match("src 192.168.0.0/16 dst 11.1.0.0/16 dport 8000-8999")},
		}
		eng.Allow = []topo.ACLBinding{{Iface: d, Dir: topo.Out}, {Iface: u, Dir: topo.In}}
		return eng, []topo.ACLBinding{{Iface: e, Dir: topo.In}, {Iface: x, Dir: topo.Out}, {Iface: y, Dir: topo.Out}}
	}}
}

// TestGenerateOracleFiveFields runs fiveFieldCase through the oracle,
// after checking it is what it says: for each non-destination field,
// two classes of one destination atom that differ in that field alone
// first-match different rules of some original ACL, and two fall on
// different sides of some control.
func TestGenerateOracleFiveFields(t *testing.T) {
	c := fiveFieldCase()
	e, _ := c.mk(DefaultOptions())
	enc := e.Before.ACLGroup(e.Scope)
	classes, err := e.deriveClasses()
	if err != nil {
		t.Fatal(err)
	}
	fields := []struct {
		name string
		wild func(m *header.Match)
	}{
		{"src", func(m *header.Match) { m.Src = header.AnyPrefix }},
		{"sport", func(m *header.Match) { m.SrcPort = header.AnyPort }},
		{"dport", func(m *header.Match) { m.DstPort = header.AnyPort }},
		{"proto", func(m *header.Match) { m.Proto = header.AnyProto }},
	}
	hits, ctrls := make([]string, len(classes)), make([]string, len(classes))
	for i, cl := range classes {
		for _, b := range enc {
			hits[i] += fmt.Sprintf("%d,", refHit(b.Iface.ACL(b.Dir).Rules, cl))
		}
		for _, ctrl := range e.Controls {
			ctrls[i] += fmt.Sprint(ctrl.Match.Contains(cl))
		}
	}
	for _, f := range fields {
		first := map[header.Match]int{} // the class's atom and its other fields -> first such class
		var ruleSplit, ctrlSplit bool
		for i, cl := range classes {
			f.wild(&cl)
			j, ok := first[cl]
			if !ok {
				first[cl] = i
				continue
			}
			ruleSplit = ruleSplit || hits[i] != hits[j]
			ctrlSplit = ctrlSplit || ctrls[i] != ctrls[j]
		}
		if !ruleSplit || !ctrlSplit {
			t.Errorf("%s alone splits the classes of an atom by first match: %v, by control: %v", f.name, ruleSplit, ctrlSplit)
		}
	}
	if t.Failed() {
		return
	}
	runOracleCase(t, c)
}

// TestDeriveAECsRejectsClassesStraddlingAControl pins both branches of
// deriveAECs' per-atom control test: a class whose destination strictly
// contains a control's, and a class that shares the control's
// destination but straddles its port range, are each refused with an
// error naming the class — also after a class of the same atom that the
// control decides cleanly.
func TestDeriveAECsRejectsClassesStraddlingAControl(t *testing.T) {
	match := func(s string) header.Match { return acl.MustParse("permit " + s).Rules[0].Match }
	before := papernet.Build()
	e := New(before, before.Clone(), papernet.Scope(), DefaultOptions())
	e.Controls = []Control{{Mode: Open, Match: match("dst 10.1.0.0/16 dport 80")}}
	enc := e.Before.ACLGroup(e.Scope)
	for _, tc := range []struct{ name, ok, bad string }{
		{"destination", "dst 10.0.0.0/8 dport 81", "dst 10.0.0.0/8 dport 80"},
		{"port", "dst 10.1.0.0/16 dport 80", "dst 10.1.0.0/16 dport 0-1023"},
	} {
		ok, bad := match(tc.ok), match(tc.bad)
		for _, classes := range [][]header.Match{{bad}, {ok, bad}} {
			_, err := e.deriveAECs(enc, classes)
			if err == nil || !strings.Contains(err.Error(), "not atomic wrt control match") || !strings.Contains(err.Error(), bad.String()) {
				t.Errorf("%s: deriveAECs(%v) = %v, want a not-atomic error naming %v", tc.name, classes, err, bad)
			}
		}
		if _, err := e.deriveAECs(enc, []header.Match{ok}); err != nil {
			t.Errorf("%s: deriveAECs(%v): %v", tc.name, ok, err)
		}
	}
}

// tableOf derives the engine's classes and AECs and builds its synthesis
// table, which reads nothing of the solving state.
func tableOf(t *testing.T, e *Engine) *synthTable {
	t.Helper()
	enc := e.Before.ACLGroup(e.Scope)
	classes, err := e.deriveClasses()
	if err != nil {
		t.Fatal(err)
	}
	aecs, err := e.deriveAECs(enc, classes)
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.buildRows(aecs, enc)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// TestMergeKeepsPermutedOverlapListsApart checks the case above is what it
// says: its table holds two entries of one AEC whose overlap lists are
// permutations of each other, and not equal.
func TestMergeKeepsPermutedOverlapListsApart(t *testing.T) {
	e, _ := permutedOverlapsCase().mk(DefaultOptions())
	table := tableOf(t, e)
	for i := range table.rows {
		for j := i + 1; j < len(table.rows); j++ {
			a, b := table.rows[i], table.rows[j]
			if a.a != b.a || len(a.overlaps) < 2 || len(a.overlaps) != len(b.overlaps) || slices.Equal(a.overlaps, b.overlaps) {
				continue
			}
			if !slices.ContainsFunc(a.overlaps, func(m header.Match) bool { return !containsMatch(b.overlaps, m) }) {
				return
			}
		}
	}
	t.Fatalf("no two entries of one AEC differ in the order of their overlaps only: %+v", table.rows)
}

func TestGenerateIndexMatchesPerPathOracle(t *testing.T) {
	cases := append(papernetCases(), permutedOverlapsCase())
	cases = append(cases, wanCases(netgen.Small, 1, 2, 42)...)
	// The reference is the old per-path walk, so a medium case costs what
	// generate used to: seconds. The default suite runs one medium seed;
	// the weekly full lane (make test-full) runs all three.
	switch {
	case os.Getenv("JINJING_EXPERIMENTS_LARGE") != "":
		cases = append(cases, wanCases(netgen.Medium, 1, 2, 42)...)
	case !testing.Short():
		cases = append(cases, wanCases(netgen.Medium, 42)...)
	}
	for i := 0; i < 240; i++ {
		seed := int64(i)
		cases = append(cases, oracleCase{fmt.Sprintf("mesh-%d", i), func(opts Options) (*Engine, []topo.ACLBinding) {
			return oracleMesh(seed, opts)
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			runOracleCase(t, c)
		})
	}
}

// TestGenerateOracleMeshesCoverTheHardCases keeps the random meshes
// honest: the properties the oracle is there to exercise must actually
// occur in the drawn population.
func TestGenerateOracleMeshesCoverTheHardCases(t *testing.T) {
	var noTarget, fecless, decSplit, multiCtrl, shapesShared int
	for i := 0; i < 240; i++ {
		e, sources := oracleMesh(int64(i), DefaultOptions())
		enc := e.Before.ACLGroup(e.Scope)
		src := e.fecSource()
		ix, err := e.compileGenerate(src.Paths(), sources, enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(ix.shapes) < len(ix.shapeOf) {
			shapesShared++
		}
		for _, sh := range ix.shapes {
			if len(sh.targets) == 0 {
				noTarget++
				break
			}
		}
		for _, sh := range ix.shapes {
			if len(sh.ctrls) > 1 {
				multiCtrl++
				break
			}
		}
		classes, err := e.deriveClasses()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range classes {
			if src.FECOf(c.Dst) < 0 {
				fecless++
				break
			}
		}
		res, err := e.Generate(sources)
		if err != nil {
			t.Fatal(err)
		}
		if res.DECSplitAECs > 0 {
			decSplit++
		}
	}
	t.Logf("of 240 meshes: %d with a path crossing no target, %d with a FEC-less class, %d with a DEC split, %d with a path under several controls, %d where paths share shapes",
		noTarget, fecless, decSplit, multiCtrl, shapesShared)
	for name, n := range map[string]int{"no-target path": noTarget, "FEC-less class": fecless, "DEC split": decSplit,
		"several controls on one path": multiCtrl, "shared shapes": shapesShared} {
		if n < 20 {
			t.Errorf("only %d of 240 meshes have a %s", n, name)
		}
	}
}

// TestGenerateClassesAreAtomic pins the precondition the first-match pass
// rests on, now that no per-lookup straddle check runs on the generate
// path: every derived class is contained in or disjoint from every
// in-scope rule match and every control match.
func TestGenerateClassesAreAtomic(t *testing.T) {
	cases := append(papernetCases(), wanCases(netgen.Small, 1, 2, 42)...)
	for i := 0; i < 240; i++ {
		seed := int64(i)
		cases = append(cases, oracleCase{fmt.Sprintf("mesh-%d", i), func(opts Options) (*Engine, []topo.ACLBinding) {
			return oracleMesh(seed, opts)
		}})
	}
	for _, c := range cases {
		e, _ := c.mk(DefaultOptions())
		var cuts []header.Match
		for _, b := range e.Before.ACLGroup(e.Scope) {
			for _, r := range b.Iface.ACL(b.Dir).Rules {
				cuts = append(cuts, r.Match)
			}
		}
		for _, ctrl := range e.Controls {
			cuts = append(cuts, ctrl.Match)
		}
		classes, err := e.deriveClasses()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, cl := range classes {
			for _, m := range cuts {
				if m.Overlaps(cl) && !m.Contains(cl) {
					t.Fatalf("%s: class %v straddles %v", c.name, cl, m)
				}
			}
		}
	}
}

// TestMergedTableOnMediumMigration pins what merging is for, as exact
// counts: the Fig. 4c migration on the medium WAN crosses its AECs into
// 37,620 vectors, and the table holds under a thousand entries for them.
func TestMergedTableOnMediumMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("derives the medium WAN's classes")
	}
	e, _ := WANMigration(netgen.Build(netgen.DefaultConfig(netgen.Medium, 42)), DefaultOptions())
	table := tableOf(t, e)
	if rows, entries := table.vectors(), len(table.rows); rows != 37620 || entries > 1000 {
		t.Fatalf("%d rows in %d entries, want 37620 rows in at most 1000", rows, entries)
	}
	t.Logf("%d rows in %d entries, %d emission positions", table.vectors(), len(table.rows), len(table.order))
}
