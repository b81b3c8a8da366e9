// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver in pure Go. It stands in for the SAT core of the SMT solver the
// paper uses (Z3): Jinjing's formulas are purely boolean over the 104
// packet-header bits, so after Tseitin conversion (package smt) every
// query is a propositional satisfiability problem. Check, fix and
// generate decide in the packet-set algebra (package pset) and never
// reach it; it decides the monolithic baseline (core's CheckMonolithic),
// the ACL equivalence and simplification references (acl.Equivalent,
// acl.Simplify), and the tests' solver oracles.
//
// The solver implements the standard modern architecture: two-watched-
// literal propagation, VSIDS variable activity with phase saving, first-UIP
// conflict analysis with recursive clause minimization, Luby restarts,
// activity-driven learned-clause deletion, and incremental solving under
// assumptions.
package sat

import (
	"fmt"
	"sort"
)

// Var is a boolean variable index, numbered from 0.
type Var int32

// Lit is a literal: a variable or its negation, encoded as v*2 (positive)
// or v*2+1 (negative).
type Lit int32

// Pos returns the positive literal of v.
func Pos(v Var) Lit { return Lit(v * 2) }

// Neg returns the negative literal of v.
func Neg(v Var) Lit { return Lit(v*2 + 1) }

// Not returns the complement of l.
func (l Lit) Not() Lit { return l ^ 1 }

// Var returns the variable underlying l.
func (l Lit) Var() Var { return Var(l >> 1) }

// Sign reports whether l is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// String renders the literal as "v3" or "~v3".
func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("~v%d", l.Var())
	}
	return fmt.Sprintf("v%d", l.Var())
}

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

// clause is a disjunction of literals plus learning metadata.
type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

// watcher pairs a watching clause with a blocker literal for the common
// fast path where the blocker is already true.
type watcher struct {
	c       *clause
	blocker Lit
}

// Stats carries solver counters, useful for the §9 discussion benches
// (number of conflicts stands in for "DPLL recursive calls").
type Stats struct {
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	Restarts     int64 `json:"restarts"`
	Learned      int64 `json:"learned"`
	Deleted      int64 `json:"deleted"`
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses []*clause // problem clauses
	learnts []*clause // learned clauses

	watches [][]watcher // indexed by Lit

	assign   []lbool // indexed by Var
	polarity []bool  // saved phase, indexed by Var
	level    []int32 // decision level of assignment
	reason   []*clause
	trail    []Lit
	trailLim []int32 // trail index at each decision level

	qhead int // propagation queue head (index into trail)

	activity []float64
	varInc   float64
	order    *varHeap

	claInc float64

	seen     []bool // scratch for analyze
	analyzeT []Lit  // scratch stack

	model []bool // last satisfying assignment

	ok bool // false once the clause DB is unsat at level 0

	Stats Stats
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.order = newVarHeap(&s.activity)
	return s
}

// NewVar adds a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assign))
	s.assign = append(s.assign, lUndef)
	s.polarity = append(s.polarity, true) // default phase: false (sign true)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// NumClauses returns the number of problem clauses added (after
// level-0 simplification at add time).
func (s *Solver) NumClauses() int { return len(s.clauses) }

// value returns the current assignment of l.
func (s *Solver) value(l Lit) lbool {
	a := s.assign[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Sign() {
		if a == lTrue {
			return lFalse
		}
		return lTrue
	}
	return a
}

// AddClause adds a disjunction of literals. It returns false when the
// clause makes the problem trivially unsatisfiable (e.g. adding the empty
// clause, or a unit clause conflicting with prior units). Must be called
// at decision level 0 (i.e. not inside Solve).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called during solving")
	}
	// Sort and remove duplicates; detect tautologies and false literals.
	ls := make([]Lit, len(lits))
	copy(ls, lits)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if int(l.Var()) >= len(s.assign) {
			panic(fmt.Sprintf("sat: literal %v references undeclared variable", l))
		}
		if l == prev {
			continue // duplicate
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology: x ∨ ~x
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue // drop false literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	l0, l1 := c.lits[0], c.lits[1]
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{c, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{c, l0})
}

func (s *Solver) detach(c *clause) {
	s.removeWatch(c.lits[0].Not(), c)
	s.removeWatch(c.lits[1].Not(), c)
}

func (s *Solver) removeWatch(l Lit, c *clause) {
	ws := s.watches[l]
	for i := range ws {
		if ws[i].c == c {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
}

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	s.assign[v] = boolToLbool(!l.Sign())
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation over the two-watched-literal
// scheme, returning the conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++

		ws := s.watches[p]
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			// Fast path: blocker already true.
			if s.value(w.blocker) == lTrue {
				ws[n] = w
				n++
				continue
			}
			c := w.c
			// Normalize so that the false watched literal is lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[n] = watcher{c, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nl := c.lits[1].Not()
					s.watches[nl] = append(s.watches[nl], watcher{c, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{c, first}
			n++
			if s.value(first) == lFalse {
				// Conflict: keep the remaining watchers and bail.
				copy(ws[n:], ws[i+1:])
				s.watches[p] = ws[:n+len(ws)-(i+1)]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = ws[:n]
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (with the asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range confl.lits {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if int(s.level[v]) >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[v]
	}
	learnt[0] = p.Not()

	// Clause minimization: drop literals implied by the rest.
	s.analyzeT = s.analyzeT[:0]
	for _, l := range learnt[1:] {
		s.analyzeT = append(s.analyzeT, l)
	}
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if s.reason[l.Var()] == nil || !s.litRedundant(l) {
			out = append(out, l)
		}
	}
	learnt = out

	// Clear seen flags for the surviving literals.
	for _, l := range s.analyzeT {
		s.seen[l.Var()] = false
	}
	s.seen[learnt[0].Var()] = false

	// Compute backtrack level: second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	return learnt, btLevel
}

// litRedundant reports whether l is implied by the other literals of the
// learned clause (self-subsumption check walking the implication graph).
func (s *Solver) litRedundant(l Lit) bool {
	stack := []Lit{l}
	top := len(s.analyzeT)
	for len(stack) > 0 {
		v := stack[len(stack)-1].Var()
		stack = stack[:len(stack)-1]
		c := s.reason[v]
		for _, q := range c.lits {
			qv := q.Var()
			if qv == v || s.seen[qv] || s.level[qv] == 0 {
				continue
			}
			if s.reason[qv] == nil {
				// Hit a decision not in the clause: l is not redundant.
				for _, t := range s.analyzeT[top:] {
					s.seen[t.Var()] = false
				}
				s.analyzeT = s.analyzeT[:top]
				return false
			}
			s.seen[qv] = true
			s.analyzeT = append(s.analyzeT, q)
			stack = append(stack, q)
		}
	}
	return true
}

func (s *Solver) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	limit := int(s.trailLim[level])
	for i := len(s.trail) - 1; i >= limit; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.polarity[v] = s.trail[i].Sign()
		s.reason[v] = nil
		if !s.order.inHeap(v) {
			s.order.push(v)
		}
	}
	s.trail = s.trail[:limit]
	s.trailLim = s.trailLim[:level]
	s.qhead = limit
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.order.inHeap(v) {
		s.order.decrease(v)
	}
}

func (s *Solver) bumpClause(c *clause) {
	if !c.learnt {
		return
	}
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, lc := range s.learnts {
			lc.activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

const (
	varDecay = 1.0 / 0.95
	claDecay = 1.0 / 0.999
)

// pickBranchVar returns the unassigned variable of highest activity.
func (s *Solver) pickBranchVar() Var {
	for s.order.len() > 0 {
		v := s.order.pop()
		if s.assign[v] == lUndef {
			return v
		}
	}
	return -1
}

// luby computes the Luby restart sequence term i (1-based).
func luby(i int64) int64 {
	// Find the finite subsequence containing i and its position.
	for k := int64(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}

const restartBase = 100

// Solve decides satisfiability of the clause database under the given
// assumption literals. It returns true (SAT) or false (UNSAT under the
// assumptions). The solver can be reused: more clauses and variables may
// be added afterwards, and Solve called again; learned clauses and
// variable activity carry over.
func (s *Solver) Solve(assumptions ...Lit) bool {
	if !s.ok {
		return false
	}
	s.backtrackTo(0)
	maxLearnts := float64(len(s.clauses))/3 + 500
	var restarts int64
	for {
		restarts++
		limit := luby(restarts) * restartBase
		switch s.search(assumptions, limit, &maxLearnts) {
		case lTrue:
			s.saveModelAndReset()
			return true
		case lFalse:
			s.backtrackTo(0)
			return false
		}
		s.Stats.Restarts++
		maxLearnts *= 1.1
	}
}

// search runs CDCL until SAT, UNSAT, or the per-restart conflict budget
// is exhausted (returning lUndef to signal a restart).
func (s *Solver) search(assumptions []Lit, budget int64, maxLearnts *float64) lbool {
	var conflicts int64
	for {
		confl := s.propagate()
		if confl != nil {
			s.Stats.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return lFalse
			}
			learnt, btLevel := s.analyze(confl)
			s.backtrackTo(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true, activity: s.claInc}
				s.learnts = append(s.learnts, c)
				s.Stats.Learned++
				s.attach(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.varInc *= varDecay
			s.claInc *= claDecay
			continue
		}

		if conflicts >= budget {
			s.backtrackTo(0)
			return lUndef
		}
		if float64(len(s.learnts)) > *maxLearnts+float64(len(s.trail)) {
			s.reduceDB()
		}

		// Re-assert assumptions below any decisions.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				s.newDecisionLevel() // dummy level, assumption already holds
				continue
			case lFalse:
				return lFalse
			default:
				s.newDecisionLevel()
				s.uncheckedEnqueue(a, nil)
				continue
			}
		}

		v := s.pickBranchVar()
		if v < 0 {
			return lTrue // all variables assigned
		}
		s.Stats.Decisions++
		s.newDecisionLevel()
		l := Pos(v)
		if s.polarity[v] {
			l = Neg(v)
		}
		s.uncheckedEnqueue(l, nil)
	}
}

// reduceDB removes the lower-activity half of the learned clauses,
// keeping binary clauses and clauses locked as reasons.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool {
		return s.learnts[i].activity > s.learnts[j].activity
	})
	keep := s.learnts[:0]
	limit := len(s.learnts) / 2
	for i, c := range s.learnts {
		locked := s.reason[c.lits[0].Var()] == c && s.value(c.lits[0]) == lTrue
		if len(c.lits) <= 2 || locked || i < limit {
			keep = append(keep, c)
		} else {
			s.detach(c)
			s.Stats.Deleted++
		}
	}
	s.learnts = keep
}

func (s *Solver) saveModelAndReset() {
	if s.model == nil || len(s.model) < len(s.assign) {
		s.model = make([]bool, len(s.assign))
	}
	s.model = s.model[:len(s.assign)]
	for v := range s.assign {
		s.model[v] = s.assign[v] == lTrue
	}
	s.backtrackTo(0)
}

// ValueInModel returns the value of v in the most recent satisfying
// assignment. It panics if Solve has not returned true.
func (s *Solver) ValueInModel(v Var) bool {
	if s.model == nil {
		panic("sat: no model available")
	}
	return s.model[v]
}
