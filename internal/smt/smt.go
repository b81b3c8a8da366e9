// Package smt provides the formula layer over the CDCL SAT core
// (package sat). It plays the role Z3 plays in the paper: a query such as
// Equation 3 is a boolean formula over the 104 packet-header bits, which
// this package represents as a hash-consed and-inverter graph (AIG),
// converts to CNF via the Tseitin transformation, and solves. Check, fix
// and generate decide in the packet-set algebra instead; the formulas
// serve the monolithic baseline, the ACL equivalence and simplification
// references in package acl, and the tests' solver oracles.
//
// Beyond plain satisfiability the package offers:
//
//   - bit-vector views of the five header fields with prefix, range, and
//     equality predicates (the m_k(h) match functions);
//   - AtMostK cardinality circuits (sequential-counter encoding) and
//     SolveMinimize, the fix oracle's minimal-change reference;
//   - model extraction back to concrete packets (counterexamples).
package smt

import (
	"fmt"

	"jinjing/internal/header"
	"jinjing/internal/sat"
)

// F is a reference to a formula node. Formulas are hash-consed: building
// the same subformula twice yields the same F. The lowest bit is the
// negation flag, so Not is free.
type F int32

// True and False are the constant formulas.
const (
	True  F = 0
	False F = 1
)

// Not returns the negation of f.
func (f F) Not() F { return f ^ 1 }

func (f F) idx() int32 { return int32(f) >> 1 }
func (f F) neg() bool  { return f&1 == 1 }
func mkF(idx int32, neg bool) F {
	f := F(idx << 1)
	if neg {
		f |= 1
	}
	return f
}

// node kinds.
const (
	kindConst = iota // node 0 only
	kindVar
	kindAnd
)

type node struct {
	kind int8
	a, b F // children for kindAnd
}

// Builder constructs formulas as a shared hash-consed DAG.
type Builder struct {
	nodes   []node
	andHash map[[2]F]F
	numVars int
}

// NewBuilder returns an empty formula builder.
func NewBuilder() *Builder {
	b := &Builder{andHash: make(map[[2]F]F)}
	b.nodes = append(b.nodes, node{kind: kindConst}) // node 0: TRUE
	return b
}

// NumNodes returns the number of distinct nodes (a proxy for formula
// size; useful in benchmarks comparing encodings).
func (b *Builder) NumNodes() int { return len(b.nodes) }

// Var creates a fresh boolean variable.
func (b *Builder) Var() F {
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{kind: kindVar})
	b.numVars++
	return mkF(idx, false)
}

// Const returns the constant formula for v.
func (b *Builder) Const(v bool) F {
	if v {
		return True
	}
	return False
}

// And returns the conjunction of a and b, with structural simplification
// and hash-consing.
func (b *Builder) And(a, c F) F {
	if a == False || c == False || a == c.Not() {
		return False
	}
	if a == True {
		return c
	}
	if c == True || a == c {
		return a
	}
	if a > c {
		a, c = c, a
	}
	key := [2]F{a, c}
	if f, ok := b.andHash[key]; ok {
		return f
	}
	idx := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{kind: kindAnd, a: a, b: c})
	f := mkF(idx, false)
	b.andHash[key] = f
	return f
}

// Or returns the disjunction of a and b.
func (b *Builder) Or(a, c F) F { return b.And(a.Not(), c.Not()).Not() }

// Xor returns a ⊕ c.
func (b *Builder) Xor(a, c F) F {
	return b.Or(b.And(a, c.Not()), b.And(a.Not(), c))
}

// Iff returns a ↔ c (the c_p ⇔ c_p' equivalences of Equation 3).
func (b *Builder) Iff(a, c F) F { return b.Xor(a, c).Not() }

// Ite returns if cond then t else e; this is the backbone of the
// sequential ACL decision encoding.
func (b *Builder) Ite(cond, t, e F) F {
	if cond == True {
		return t
	}
	if cond == False {
		return e
	}
	if t == e {
		return t
	}
	return b.Or(b.And(cond, t), b.And(cond.Not(), e))
}

// Eval evaluates f under an assignment of the leaf variables. assign maps
// a variable node's F (positive polarity) to its value; missing variables
// default to false.
func (b *Builder) Eval(f F, assign map[F]bool) bool {
	memo := make(map[int32]bool)
	return b.eval(f, assign, memo)
}

func (b *Builder) eval(f F, assign map[F]bool, memo map[int32]bool) bool {
	idx := f.idx()
	v, ok := memo[idx]
	if !ok {
		n := b.nodes[idx]
		switch n.kind {
		case kindConst:
			v = true
		case kindVar:
			v = assign[mkF(idx, false)]
		case kindAnd:
			v = b.eval(n.a, assign, memo) && b.eval(n.b, assign, memo)
		}
		memo[idx] = v
	}
	if f.neg() {
		return !v
	}
	return v
}

// Solver couples a Builder with a CDCL SAT solver. Formulas built with
// the Builder can be asserted permanently or passed as per-call
// assumptions, giving cheap incremental solving across many Equation-3
// checks that share structure.
type Solver struct {
	B *Builder

	sat    *sat.Solver
	satVar []sat.Var // formula node index -> SAT variable (-1 = not clausified)
	model  map[F]bool
}

// NewSolver returns a Solver with a fresh Builder.
func NewSolver() *Solver {
	return &Solver{
		B:   NewBuilder(),
		sat: sat.New(),
	}
}

// litFor returns the SAT literal representing formula f, lazily emitting
// Tseitin clauses for any new AND nodes in f's cone.
func (s *Solver) litFor(f F) sat.Lit {
	v := s.varFor(f.idx())
	if f.neg() {
		return sat.Neg(v)
	}
	return sat.Pos(v)
}

func (s *Solver) varFor(idx int32) sat.Var {
	if int(idx) < len(s.satVar) {
		if v := s.satVar[idx]; v >= 0 {
			return v
		}
	} else {
		// Grow to the builder's current size in one step; nodes are only
		// ever appended, so this amortizes to one fill per node.
		grown := make([]sat.Var, len(s.B.nodes))
		copy(grown, s.satVar)
		for i := len(s.satVar); i < len(grown); i++ {
			grown[i] = -1
		}
		s.satVar = grown
	}
	n := s.B.nodes[idx]
	v := s.sat.NewVar()
	s.satVar[idx] = v
	switch n.kind {
	case kindConst:
		s.sat.AddClause(sat.Pos(v)) // node 0 is TRUE
	case kindAnd:
		la := s.litFor(n.a)
		lb := s.litFor(n.b)
		// v ↔ (a ∧ b)
		s.sat.AddClause(sat.Neg(v), la)
		s.sat.AddClause(sat.Neg(v), lb)
		s.sat.AddClause(sat.Pos(v), la.Not(), lb.Not())
	}
	return v
}

// EnsureClausified emits the Tseitin clauses for f's whole cone without
// asserting anything, so clausification can be paid (and timed) apart
// from search.
func (s *Solver) EnsureClausified(f F) {
	s.varFor(f.idx())
}

// NumClauses reports the problem-clause count of the underlying SAT
// instance (after its level-0 simplification).
func (s *Solver) NumClauses() int { return s.sat.NumClauses() }

// Assert permanently adds f to the solver's constraint set.
func (s *Solver) Assert(f F) {
	s.sat.AddClause(s.litFor(f))
}

// Solve decides whether the asserted constraints plus the given
// assumption formulas are satisfiable. On SAT, the model is retained for
// Value/Packet queries.
func (s *Solver) Solve(assumptions ...F) bool {
	lits := make([]sat.Lit, len(assumptions))
	for i, f := range assumptions {
		lits[i] = s.litFor(f)
	}
	if !s.sat.Solve(lits...) {
		s.model = nil
		return false
	}
	s.model = make(map[F]bool)
	for idx, v := range s.satVar {
		if v >= 0 && s.B.nodes[idx].kind == kindVar {
			s.model[mkF(int32(idx), false)] = s.sat.ValueInModel(v)
		}
	}
	return true
}

// Value returns variable f's value in the last model. Variables that
// never reached the SAT solver are unconstrained and read as false.
func (s *Solver) Value(f F) bool {
	if s.model == nil {
		panic("smt: no model; Solve must return true first")
	}
	if f.neg() {
		return !s.model[f.Not()]
	}
	return s.model[f]
}

// EvalInModel evaluates an arbitrary formula under the last model.
func (s *Solver) EvalInModel(f F) bool {
	if s.model == nil {
		panic("smt: no model; Solve must return true first")
	}
	return s.B.Eval(f, s.model)
}

// Stats exposes the underlying SAT solver counters.
func (s *Solver) Stats() sat.Stats { return s.sat.Stats }

// AtMostK builds a circuit that is true iff at most k of the given
// formulas are true, using the sequential-counter encoding (Sinz 2005).
// SolveMinimize bounds its descent with it.
func (b *Builder) AtMostK(fs []F, k int) F {
	n := len(fs)
	if k >= n {
		return True
	}
	if k < 0 {
		return False
	}
	if k == 0 {
		out := True
		for _, f := range fs {
			out = b.And(out, f.Not())
		}
		return out
	}
	// s[i][j]: among fs[0..i], at least j+1 are true (j < k+1).
	// Overflow (more than k true) forces the result false.
	width := k + 1
	prev := make([]F, width)
	for j := range prev {
		prev[j] = False
	}
	ok := True
	for i := 0; i < n; i++ {
		// Overflow: fs[i] true while at least k are already true.
		ok = b.And(ok, b.And(fs[i], prev[k-1]).Not())
		cur := make([]F, width)
		for j := 0; j < width; j++ {
			carry := fs[i]
			if j > 0 {
				carry = b.And(fs[i], prev[j-1])
			}
			cur[j] = b.Or(prev[j], carry)
		}
		prev = cur
	}
	return ok
}

// SolveMinimize finds a model of the asserted constraints plus the given
// assumptions that minimizes the number of true formulas among costs.
// It returns the minimal count and true, or 0 and false when even the
// unconstrained problem is UNSAT. The search is linear from 0 upward,
// which is fast when the optimum is small (the common case when fixing a
// handful of interfaces).
func (s *Solver) SolveMinimize(costs []F, assumptions ...F) (int, bool) {
	if !s.Solve(assumptions...) {
		return 0, false
	}
	// Count the cost in the current model as an upper bound.
	best := 0
	for _, c := range costs {
		if s.EvalInModel(c) {
			best++
		}
	}
	for k := 0; k < best; k++ {
		bound := s.B.AtMostK(costs, k)
		as := append(append([]F(nil), assumptions...), bound)
		if s.Solve(as...) {
			return k, true
		}
	}
	if best > 0 {
		// Re-derive the model for the best bound (the earlier Solve calls
		// may have clobbered it with an UNSAT attempt).
		bound := s.B.AtMostK(costs, best)
		as := append(append([]F(nil), assumptions...), bound)
		if !s.Solve(as...) {
			panic("smt: minimization lost the incumbent model")
		}
	}
	return best, true
}

// PacketVars is a symbolic packet: one formula variable per header bit in
// the layout defined by package header.
type PacketVars struct {
	Bits [header.NumBits]F
}

// NewPacketVars allocates the 104 bit variables of a symbolic packet.
func (b *Builder) NewPacketVars() *PacketVars {
	pv := &PacketVars{}
	for i := range pv.Bits {
		pv.Bits[i] = b.Var()
	}
	return pv
}

// bitsEqualPrefix constrains bits[off..off+plen) to equal the top plen
// bits of value (a 32-bit value left-aligned).
func (b *Builder) prefixPred(pv *PacketVars, off int, p header.Prefix) F {
	out := True
	for i := 0; i < p.Len; i++ {
		bit := pv.Bits[off+i]
		if p.Addr>>(31-i)&1 == 1 {
			out = b.And(out, bit)
		} else {
			out = b.And(out, bit.Not())
		}
	}
	return out
}

// geConst builds bits >= c for an unsigned big-endian bit vector.
func (b *Builder) geConst(bits []F, c uint64) F {
	// gt_i: strictly greater considering bits[0..i]; eq_i: equal so far.
	out := False
	eq := True
	n := len(bits)
	for i := 0; i < n; i++ {
		cb := c>>(n-1-i)&1 == 1
		if cb {
			eq = b.And(eq, bits[i])
		} else {
			out = b.Or(out, b.And(eq, bits[i]))
			eq = b.And(eq, bits[i].Not())
		}
	}
	return b.Or(out, eq)
}

// leConst builds bits <= c for an unsigned big-endian bit vector.
func (b *Builder) leConst(bits []F, c uint64) F {
	out := False
	eq := True
	n := len(bits)
	for i := 0; i < n; i++ {
		cb := c>>(n-1-i)&1 == 1
		if cb {
			out = b.Or(out, b.And(eq, bits[i].Not()))
			eq = b.And(eq, bits[i])
		} else {
			eq = b.And(eq, bits[i].Not())
		}
	}
	return b.Or(out, eq)
}

func (b *Builder) rangePred(pv *PacketVars, off int, r header.PortRange) F {
	if r == header.AnyPort {
		return True
	}
	bits := pv.Bits[off : off+header.PortBits]
	return b.And(b.geConst(bits, uint64(r.Lo)), b.leConst(bits, uint64(r.Hi)))
}

func (b *Builder) protoPred(pv *PacketVars, m header.ProtoMatch) F {
	if m.IsAny() {
		return True
	}
	bits := pv.Bits[header.ProtoOff : header.ProtoOff+header.ProtoBits]
	if m.Lo == m.Hi {
		out := True
		for i := 0; i < header.ProtoBits; i++ {
			if m.Lo>>(7-i)&1 == 1 {
				out = b.And(out, bits[i])
			} else {
				out = b.And(out, bits[i].Not())
			}
		}
		return out
	}
	return b.And(b.geConst(bits, uint64(m.Lo)), b.leConst(bits, uint64(m.Hi)))
}

// MatchPred builds the predicate m(h): packet pv satisfies the 5-tuple
// match m. This is the boolean function m_j(h) from Table 2.
func (b *Builder) MatchPred(pv *PacketVars, m header.Match) F {
	// Normalize via a round-trip through the header package semantics.
	if m.IsAll() {
		return True
	}
	norm := m // header.Match normalizes lazily inside its methods
	out := b.prefixPred(pv, header.SrcIPOff, norm.Src)
	out = b.And(out, b.prefixPred(pv, header.DstIPOff, norm.Dst))
	if !norm.SrcPort.IsAny() {
		out = b.And(out, b.rangePred(pv, header.SrcPortOff, norm.SrcPort))
	}
	if !norm.DstPort.IsAny() {
		out = b.And(out, b.rangePred(pv, header.DstPortOff, norm.DstPort))
	}
	if !norm.Proto.IsAny() {
		out = b.And(out, b.protoPred(pv, norm.Proto))
	}
	return out
}

// Packet decodes the symbolic packet pv from the last model into a
// concrete packet (the SMT counterexample).
func (s *Solver) Packet(pv *PacketVars) header.Packet {
	var p header.Packet
	get := func(off, n int) uint64 {
		var v uint64
		for i := 0; i < n; i++ {
			v <<= 1
			if s.Value(pv.Bits[off+i]) {
				v |= 1
			}
		}
		return v
	}
	p.SrcIP = uint32(get(header.SrcIPOff, header.SrcIPBits))
	p.DstIP = uint32(get(header.DstIPOff, header.DstIPBits))
	p.SrcPort = uint16(get(header.SrcPortOff, header.PortBits))
	p.DstPort = uint16(get(header.DstPortOff, header.PortBits))
	p.Proto = uint8(get(header.ProtoOff, header.ProtoBits))
	return p
}

// AssignmentFor returns the variable assignment encoding concrete packet
// p on the symbolic packet pv, for use with Builder.Eval in tests.
func AssignmentFor(pv *PacketVars, p header.Packet) map[F]bool {
	m := make(map[F]bool, header.NumBits)
	for i := 0; i < header.NumBits; i++ {
		m[pv.Bits[i]] = p.Bit(i)
	}
	return m
}

// Valid reports whether f is a tautology (¬f is UNSAT). It uses a fresh
// SAT instance over the shared builder, so existing solver state is
// untouched.
func (b *Builder) Valid(f F) bool {
	s := SolverOn(b)
	return !s.Solve(f.Not())
}

// SolverOn returns a fresh Solver over an existing Builder, sharing its
// hash-consed DAG but with an independent constraint set.
func SolverOn(b *Builder) *Solver {
	return &Solver{B: b, sat: sat.New()}
}

// String renders a formula reference for debugging.
func (f F) String() string {
	sign := ""
	if f.neg() {
		sign = "~"
	}
	return fmt.Sprintf("%sn%d", sign, f.idx())
}
