package pset_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"math/rand"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/pset"
)

func pfx(s string) header.Prefix { return header.MustParsePrefix(s) }

func TestBasics(t *testing.T) {
	if !pset.Empty().IsEmpty() {
		t.Fatal("Empty should be empty")
	}
	u := pset.Universe()
	if u.IsEmpty() || !u.Contains(header.Packet{}) {
		t.Fatal("Universe should contain everything")
	}
	if !u.Complement().IsEmpty() {
		t.Fatal("complement of universe is empty")
	}
	if !pset.Empty().Complement().Equal(u) {
		t.Fatal("complement of empty is universe")
	}
}

func TestSubtractPrefix(t *testing.T) {
	all := pset.Universe()
	half := pset.FromMatch(header.DstMatch(pfx("0.0.0.0/1")))
	rest := all.Subtract(half)
	if rest.IsEmpty() {
		t.Fatal("subtracting half leaves half")
	}
	if rest.Contains(header.Packet{DstIP: 0x01000000}) {
		t.Fatal("lower half should be gone")
	}
	if !rest.Contains(header.Packet{DstIP: 0x80000000}) {
		t.Fatal("upper half should remain")
	}
	if !rest.Union(half).Equal(all) {
		t.Fatal("half ∪ rest = all")
	}
	if !rest.Intersect(half).IsEmpty() {
		t.Fatal("halves must be disjoint")
	}
}

func TestSubtractPorts(t *testing.T) {
	m := header.MatchAll
	m.DstPort = header.PortRange{Lo: 100, Hi: 200}
	s := pset.Universe().Subtract(pset.FromMatch(m))
	if s.Contains(header.Packet{DstPort: 150}) {
		t.Fatal("port 150 should be removed")
	}
	if !s.Contains(header.Packet{DstPort: 99}) || !s.Contains(header.Packet{DstPort: 201}) {
		t.Fatal("boundary ports should remain")
	}
}

func TestDeMorganOnSets(t *testing.T) {
	a := pset.FromMatch(header.DstMatch(pfx("10.0.0.0/8")))
	b := pset.FromMatch(header.SrcMatch(pfx("172.16.0.0/12")))
	lhs := a.Intersect(b).Complement()
	rhs := a.Complement().Union(b.Complement())
	if !lhs.Equal(rhs) {
		t.Fatal("De Morgan fails on sets")
	}
}

func TestPermittedSetFirstMatch(t *testing.T) {
	a := acl.MustParse("deny dst 1.0.0.0/8, permit dst 1.2.0.0/16, permit all")
	s := pset.PermittedSet(a)
	// 1.2.0.0/16 is shadowed by the earlier deny.
	if s.Contains(header.Packet{DstIP: 0x01020001}) {
		t.Fatal("shadowed permit must not contribute")
	}
	if !s.Contains(header.Packet{DstIP: 0x02000001}) {
		t.Fatal("default permit missing")
	}
	if s.Contains(header.Packet{DstIP: 0x01000001}) {
		t.Fatal("denied region leaked")
	}
}

func TestEquivalentACLs(t *testing.T) {
	a := acl.MustParse("deny dst 1.0.0.0/8, permit all")
	b := acl.MustParse("deny dst 1.0.0.0/9, deny dst 1.128.0.0/9, permit all")
	if !pset.EquivalentACLs(a, b) {
		t.Fatal("split denies should be equivalent")
	}
	c := acl.MustParse("deny dst 1.0.0.0/9, permit all")
	if pset.EquivalentACLs(a, c) {
		t.Fatal("half deny is not equivalent")
	}
}

// randomACL mirrors the generator used in package acl's tests.
func randomACL(r *rand.Rand, n int) *acl.ACL {
	a := &acl.ACL{Default: acl.Action(r.Intn(2) == 0)}
	for i := 0; i < n; i++ {
		m := header.MatchAll
		base := uint32(1+r.Intn(6)) << 24
		ln := []int{6, 8, 9, 16}[r.Intn(4)]
		m.Dst = header.Prefix{Addr: base, Len: ln}.Canonical()
		if r.Intn(4) == 0 {
			m.Src = header.Prefix{Addr: uint32(10+r.Intn(2)) << 24, Len: 8}.Canonical()
		}
		if r.Intn(5) == 0 {
			m.DstPort = header.PortRange{Lo: 80, Hi: uint16(80 + r.Intn(1000))}
		}
		if r.Intn(6) == 0 {
			m.Proto = header.Proto(uint8([]int{1, 6, 17}[r.Intn(3)]))
		}
		a.Rules = append(a.Rules, acl.Rule{Action: acl.Action(r.Intn(2) == 0), Match: m})
	}
	return a
}

// TestCrossValidateSMTEquivalence is the headline property: the packet-set
// algebra and the Tseitin+CDCL pipeline must agree on ACL equivalence for
// random ACL pairs — two unrelated decision procedures, one answer.
func TestCrossValidateSMTEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(271828))
	agreeEq, agreeNeq := 0, 0
	for iter := 0; iter < 120; iter++ {
		a := randomACL(r, 1+r.Intn(7))
		var b *acl.ACL
		if r.Intn(2) == 0 {
			// Likely-equivalent variant: simplification preserves the model.
			b = acl.SimplifyFast(a)
		} else {
			b = randomACL(r, 1+r.Intn(7))
		}
		smtSays := acl.Equivalent(a, b)
		setSays := pset.EquivalentACLs(a, b)
		if smtSays != setSays {
			t.Fatalf("iter %d: SMT=%v pset=%v\na=%v\nb=%v", iter, smtSays, setSays, a, b)
		}
		if smtSays {
			agreeEq++
		} else {
			agreeNeq++
		}
	}
	if agreeEq == 0 || agreeNeq == 0 {
		t.Fatalf("degenerate sampling: eq=%d neq=%d", agreeEq, agreeNeq)
	}
}

// TestCrossValidateRegionEmptiness: for random matches, the SMT
// satisfiability of a conjunction agrees with set-intersection emptiness.
func TestCrossValidateRegionEmptiness(t *testing.T) {
	r := rand.New(rand.NewSource(314159))
	for iter := 0; iter < 300; iter++ {
		a := randomACL(r, 1).Rules[0].Match
		b := randomACL(r, 1).Rules[0].Match
		setEmpty := pset.FromMatch(a).Intersect(pset.FromMatch(b)).IsEmpty()
		syntactic := !a.Overlaps(b)
		if setEmpty != syntactic {
			t.Fatalf("iter %d: set=%v syntactic=%v\na=%v\nb=%v", iter, setEmpty, syntactic, a, b)
		}
	}
}

func TestSetAlgebraInvariants(t *testing.T) {
	// s ∖ t disjoint from t; (s∖t) ∪ (s∩t) = s.
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		s := pset.PermittedSet(randomACL(r, 1+r.Intn(4)))
		tt := pset.PermittedSet(randomACL(r, 1+r.Intn(4)))
		diff := s.Subtract(tt)
		if !diff.Intersect(tt).IsEmpty() {
			t.Fatal("s∖t must be disjoint from t")
		}
		if !diff.Union(s.Intersect(tt)).Equal(s) {
			t.Fatal("(s∖t) ∪ (s∩t) must equal s")
		}
	}
}

func TestSamplePacket(t *testing.T) {
	s := pset.FromMatch(header.DstMatch(pfx("10.0.0.0/8")))
	p, ok := s.SamplePacket()
	if !ok || !s.Contains(p) {
		t.Fatal("sample must be a member")
	}
	if _, ok := pset.Empty().SamplePacket(); ok {
		t.Fatal("empty set has no sample")
	}
}

// randomPacket draws packets biased toward the address/port space the
// random ACLs constrain, so membership queries exercise both sides of
// every constraint.
func randomPacket(r *rand.Rand) header.Packet {
	return header.Packet{
		SrcIP:   uint32(r.Intn(16)) << 24,
		DstIP:   uint32(r.Intn(8))<<24 | uint32(r.Intn(4))<<16 | uint32(r.Intn(256)),
		SrcPort: uint16(r.Intn(2000)),
		DstPort: uint16(r.Intn(2000)),
		Proto:   uint8([]int{0, 1, 6, 17, 255}[r.Intn(5)]),
	}
}

// TestCanonicalizationPreservesDenotation is the satellite property for
// the canonicalization pass: a PermittedSet — built through many
// canonicalizing Union/Subtract steps — must denote exactly the ACL's
// decision function, checked packet-by-packet against the reference
// first-match evaluator.
func TestCanonicalizationPreservesDenotation(t *testing.T) {
	r := rand.New(rand.NewSource(8086))
	for iter := 0; iter < 150; iter++ {
		a := randomACL(r, 1+r.Intn(8))
		s := pset.PermittedSet(a)
		for probe := 0; probe < 64; probe++ {
			p := randomPacket(r)
			if s.Contains(p) != a.Permits(p) {
				t.Fatalf("iter %d: set and ACL disagree on %+v\nacl=%v", iter, p, a)
			}
		}
	}
}

// TestCanonicalizationAlgebra pins the structural guarantees: sibling
// prefixes merge to their parent, adjacent ranges merge to their hull,
// subsumed cubes disappear, and union is idempotent on cube counts.
func TestCanonicalizationAlgebra(t *testing.T) {
	left := pset.FromMatch(header.DstMatch(pfx("10.0.0.0/9")))
	right := pset.FromMatch(header.DstMatch(pfx("10.128.0.0/9")))
	if u := left.Union(right); u.Cubes() != 1 || !u.Equal(pset.FromMatch(header.DstMatch(pfx("10.0.0.0/8")))) {
		t.Fatalf("sibling prefixes must merge to the parent, got %d cubes", u.Cubes())
	}
	lo, hi := header.MatchAll, header.MatchAll
	lo.DstPort = header.PortRange{Lo: 100, Hi: 200}
	hi.DstPort = header.PortRange{Lo: 201, Hi: 300}
	if u := pset.FromMatch(lo).Union(pset.FromMatch(hi)); u.Cubes() != 1 {
		t.Fatalf("adjacent port ranges must merge, got %d cubes", u.Cubes())
	}
	big := pset.FromMatch(header.DstMatch(pfx("10.0.0.0/8")))
	small := pset.FromMatch(header.DstMatch(pfx("10.1.0.0/16")))
	if u := big.Union(small); u.Cubes() != 1 {
		t.Fatalf("subsumed cube must be dropped, got %d cubes", u.Cubes())
	}
	if u := big.Union(big); u.Cubes() != 1 {
		t.Fatalf("duplicate union must be idempotent, got %d cubes", u.Cubes())
	}
	// Port-range hulls must not wrap at the uint16 boundary.
	top, rest := header.MatchAll, header.MatchAll
	top.DstPort = header.PortRange{Lo: 65535, Hi: 65535}
	rest.DstPort = header.PortRange{Lo: 0, Hi: 65534}
	if u := pset.FromMatch(top).Union(pset.FromMatch(rest)); !u.Equal(pset.Universe()) {
		t.Fatal("full-range union must be the universe")
	}
}

// TestCanonicalSampleDeterminism: SamplePacket is a function of the
// denoted set, not of construction order — the property check verdict
// witnesses rely on for byte-identical output across backends.
func TestCanonicalSampleDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(6174))
	for iter := 0; iter < 80; iter++ {
		a := pset.PermittedSet(randomACL(r, 1+r.Intn(5)))
		b := pset.PermittedSet(randomACL(r, 1+r.Intn(5)))
		ab, okAB := a.Union(b).SamplePacket()
		ba, okBA := b.Union(a).SamplePacket()
		if okAB != okBA || ab != ba {
			t.Fatalf("iter %d: union sample depends on operand order: %+v vs %+v", iter, ab, ba)
		}
	}
}

// TestPermittedSetWithin: the region-restricted fold — the one budgeted
// set construction the check pipeline uses — must equal permitted(a) ∩
// region whenever it decides, over regions with partially overlapping
// cubes, and must decline (not lie) when the cube budget is too small.
func TestPermittedSetWithin(t *testing.T) {
	r := rand.New(rand.NewSource(577))
	decided, declined := 0, 0
	for iter := 0; iter < 200; iter++ {
		a := randomACL(r, 1+r.Intn(7))
		region := pset.PermittedSet(randomACL(r, 1+r.Intn(4))).Union(pset.PermittedSet(randomACL(r, 1+r.Intn(4))))
		budget := []int{2, 64}[r.Intn(2)]
		got, _, ok := pset.NewIndex(a, acl.NewDstIndex(a.Rules)).PermittedSetWithin(region, budget)
		if !ok {
			declined++
			continue
		}
		decided++
		if want := pset.PermittedSet(a).Intersect(region); !got.Equal(want) {
			t.Fatalf("iter %d: within=%v want=%v\na=%v", iter, got, want, a)
		}
	}
	if decided == 0 || declined == 0 {
		t.Fatalf("decided %d, declined %d: want both outcomes exercised", decided, declined)
	}
}

// corpusACLs collects the parser fuzz corpus from PR 5 — the checked-in
// FuzzParse seeds plus any crasher regressions under testdata — and
// parses every entry that is a legal ACL. These are real-world-shaped
// sources (comments, multi-field rules, degenerate inputs) that the
// random generator would rarely draw.
func corpusACLs(t *testing.T) []*acl.ACL {
	t.Helper()
	srcs := []string{
		"deny dst 1.0.0.0/8, permit all",
		"permit src 10.0.0.0/8 dst 1.2.0.0/16 sport 1-100 dport 443 proto tcp; deny all",
		"# comment\npermit all",
		"deny dst",
		"permit proto 300",
		"",
	}
	files, err := filepath.Glob(filepath.Join("..", "acl", "testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[0], "go test fuzz") {
			continue
		}
		for _, ln := range lines[1:] {
			ln = strings.TrimSpace(ln)
			if !strings.HasPrefix(ln, "string(") || !strings.HasSuffix(ln, ")") {
				continue
			}
			if s, err := strconv.Unquote(ln[len("string(") : len(ln)-1]); err == nil {
				srcs = append(srcs, s)
			}
		}
	}
	var out []*acl.ACL
	for _, src := range srcs {
		if a, err := acl.Parse(src); err == nil {
			out = append(out, a)
		}
	}
	if len(out) < 3 {
		t.Fatalf("fuzz corpus yielded only %d parseable ACLs", len(out))
	}
	return out
}

// TestFuzzBackendWitnessCorpus is the pset-level half of the backend
// agreement lane: over pairs drawn from the parser fuzz corpus, random
// ACLs, and Simplify variants, the packet-set backend must (1) agree
// with the SMT equivalence oracle, and (2) back every inequivalence
// verdict with a witness packet that the two ACLs concretely decide
// differently under the reference first-match evaluator. A witness that
// fails replay would mean the cube algebra denotes the wrong set.
func TestFuzzBackendWitnessCorpus(t *testing.T) {
	base := corpusACLs(t)
	r := rand.New(rand.NewSource(140317))
	pool := append([]*acl.ACL{}, base...)
	for i := 0; i < 40; i++ {
		pool = append(pool, randomACL(r, 1+r.Intn(7)))
	}
	pairs, unequal := 0, 0
	checkPair := func(a, b *acl.ACL) {
		t.Helper()
		pairs++
		equal, w := pset.EquivalentACLsWitness(a, b)
		if smtEq := acl.Equivalent(a, b); equal != smtEq {
			t.Fatalf("pset says equal=%v, SMT says %v\nacl a: %v\nacl b: %v", equal, smtEq, a, b)
		}
		if equal {
			return
		}
		unequal++
		if a.Permits(w) == b.Permits(w) {
			t.Fatalf("witness %v does not distinguish the ACLs\nacl a: %v\nacl b: %v", w, a, b)
		}
	}
	for _, a := range pool {
		// Every ACL against its own Simplify forms: equivalent by
		// construction, so a single spurious witness fails loudly.
		checkPair(a, acl.SimplifyFast(a))
		checkPair(a, acl.Simplify(a))
		// And against a handful of other pool members.
		for k := 0; k < 6; k++ {
			checkPair(a, pool[r.Intn(len(pool))])
		}
	}
	if unequal == 0 {
		t.Fatal("no inequivalent pair drawn; witness replay exercised nothing")
	}
	t.Logf("%d corpus ACLs, %d pairs, %d inequivalent (witness-replayed)", len(base), pairs, unequal)
}
