// Package pset implements an exact packet-set algebra over the 5-tuple
// header space: sets are finite unions of Match cubes (per-field
// prefix/range constraints), closed under intersection, subtraction, and
// complement. It is an independent decision procedure for the questions
// the SMT stack answers (ACL equivalence, region emptiness): the check
// pipeline's complete packet-set backend runs on it, and the tests
// cross-validate it against the solver pipeline — two
// implementations with unrelated failure modes deciding the same
// queries.
package pset

import (
	"slices"
	"sort"

	"jinjing/internal/acl"
	"jinjing/internal/header"
)

// Set is a union of Match cubes. Cubes may overlap; the denoted set is
// their union. The zero value is the empty set.
type Set struct {
	cubes []header.Match
}

// Empty returns the empty set.
func Empty() Set { return Set{} }

// Universe returns the set of all packets.
func Universe() Set { return FromMatch(header.MatchAll) }

// FromMatch returns the set of packets matching m.
func FromMatch(m header.Match) Set {
	return Set{cubes: []header.Match{m}}
}

// FromMatches returns the union of the given match cubes in canonical
// form.
func FromMatches(ms []header.Match) Set {
	return Set{cubes: canonicalize(append([]header.Match(nil), ms...))}
}

// IsEmpty reports whether the set contains no packets. Cubes are
// non-empty by construction, so this is a length check.
func (s Set) IsEmpty() bool { return len(s.cubes) == 0 }

// Cubes returns the number of cubes (a size measure for tests).
func (s Set) Cubes() int { return len(s.cubes) }

// CubeList returns the set's canonical cubes, a copy the caller owns.
func (s Set) CubeList() []header.Match { return slices.Clone(s.cubes) }

// Halves splits a set of two or more cubes into the lower and the upper
// half of its canonical cube list: two sets whose union is s.
func (s Set) Halves() (lo, hi Set) {
	n := len(s.cubes) / 2
	return Set{cubes: slices.Clone(s.cubes[:n])}, Set{cubes: slices.Clone(s.cubes[n:])}
}

// Cube returns the cube of a one-cube set; ok=false for any other set.
func (s Set) Cube() (c header.Match, ok bool) {
	if len(s.cubes) != 1 {
		return c, false
	}
	return s.cubes[0], true
}

// MinPacket returns the least packet in the set under the field-order
// (SrcIP, DstIP, SrcPort, DstPort, Proto). Every cube is a product of
// per-field ranges, so its least packet is its low corner and the set's
// least packet is the least corner over its cubes — a pure function of
// the set's semantics, independent of the cube decomposition, which is
// what makes it usable as a canonical witness. ok=false on the empty
// set.
func (s Set) MinPacket() (header.Packet, bool) {
	if len(s.cubes) == 0 {
		return header.Packet{}, false
	}
	best := s.cubes[0].SamplePacket()
	for _, c := range s.cubes[1:] {
		if p := c.SamplePacket(); packetLess(p, best) {
			best = p
		}
	}
	return best, true
}

// packetLess orders packets by the fixed field order MinPacket documents.
func packetLess(a, b header.Packet) bool {
	switch {
	case a.SrcIP != b.SrcIP:
		return a.SrcIP < b.SrcIP
	case a.DstIP != b.DstIP:
		return a.DstIP < b.DstIP
	case a.SrcPort != b.SrcPort:
		return a.SrcPort < b.SrcPort
	case a.DstPort != b.DstPort:
		return a.DstPort < b.DstPort
	default:
		return a.Proto < b.Proto
	}
}

// Contains reports whether packet p is in the set.
func (s Set) Contains(p header.Packet) bool {
	for _, c := range s.cubes {
		if c.Matches(p) {
			return true
		}
	}
	return false
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	out := make([]header.Match, 0, len(s.cubes)+len(t.cubes))
	out = append(out, s.cubes...)
	out = append(out, t.cubes...)
	return Set{cubes: canonicalize(out)}
}

// Intersect returns s ∩ t (pairwise cube intersection).
func (s Set) Intersect(t Set) Set {
	var out []header.Match
	for _, a := range s.cubes {
		for _, b := range t.cubes {
			if m, ok := a.Intersect(b); ok {
				out = append(out, m)
			}
		}
	}
	return Set{cubes: canonicalize(out)}
}

// IntersectMatches returns s ∩ ⋃ms without materializing ⋃ms: each match
// is intersected with s's cubes directly, so the cost is |s| × |ms| cube
// tests plus canonicalizing what actually overlaps. Over a long rule list
// a caller hands it only the candidates (Index.MatchesWithin).
func (s Set) IntersectMatches(ms []header.Match) Set {
	var out []header.Match
	for _, m := range ms {
		for _, c := range s.cubes {
			if x, ok := c.Intersect(m); ok {
				out = append(out, x)
			}
		}
	}
	// Cut down to a few cubes, thousands of rules leave a handful of
	// distinct fragments, and the subsumption pass is quadratic in the
	// count: exact duplicates go first.
	sort.Slice(out, func(i, j int) bool { return cubeLess(out[i], out[j]) })
	return Set{cubes: canonicalize(slices.Compact(out))}
}

// Overlaps reports whether some packet of s matches m.
func (s Set) Overlaps(m header.Match) bool {
	for _, c := range s.cubes {
		if c.Overlaps(m) {
			return true
		}
	}
	return false
}

// Subtract returns s ∖ t. The fold splits cubes without canonicalizing
// between steps: the pieces subtractCube emits are disjoint fragments
// that per-step merging almost never shrinks, while canonicalizing a
// large set once per subtracted cube is quadratic work per step — the
// difference between milliseconds and minutes on thousand-cube path
// sets. One canonicalization at the end restores the invariant.
func (s Set) Subtract(t Set) Set {
	cur := s.cubes
	for _, m := range t.cubes {
		var out []header.Match
		for _, c := range cur {
			out = append(out, subtractCube(c, m)...)
		}
		cur = out
		if len(cur) == 0 {
			break
		}
	}
	return Set{cubes: canonicalize(cur)}
}

// Complement returns the complement of s.
func (s Set) Complement() Set { return Universe().Subtract(s) }

// Equal reports whether s and t denote the same packet set.
func (s Set) Equal(t Set) bool {
	return s.Subtract(t).IsEmpty() && t.Subtract(s).IsEmpty()
}

// SamplePacket returns one packet in the set; ok is false when empty.
func (s Set) SamplePacket() (header.Packet, bool) {
	if s.IsEmpty() {
		return header.Packet{}, false
	}
	return s.cubes[0].SamplePacket(), true
}

// subtractCube computes c ∖ m as a union of disjoint cubes using the
// standard orthogonal decomposition: peel off, field by field, the part
// of c outside m's constraint on that field, then narrow c to m on that
// field and continue.
func subtractCube(c, m header.Match) []header.Match {
	inter, ok := c.Intersect(m)
	if !ok {
		return []header.Match{c} // disjoint: nothing removed
	}
	var out []header.Match
	cur := c

	// Source prefix.
	for _, piece := range prefixMinus(cur.Src, inter.Src) {
		cc := cur
		cc.Src = piece
		out = append(out, cc)
	}
	cur.Src = inter.Src
	// Destination prefix.
	for _, piece := range prefixMinus(cur.Dst, inter.Dst) {
		cc := cur
		cc.Dst = piece
		out = append(out, cc)
	}
	cur.Dst = inter.Dst
	// Source port.
	for _, piece := range rangeMinus(cur.SrcPort, inter.SrcPort) {
		cc := cur
		cc.SrcPort = piece
		out = append(out, cc)
	}
	cur.SrcPort = inter.SrcPort
	// Destination port.
	for _, piece := range rangeMinus(cur.DstPort, inter.DstPort) {
		cc := cur
		cc.DstPort = piece
		out = append(out, cc)
	}
	cur.DstPort = inter.DstPort
	// Protocol.
	for _, piece := range protoMinus(cur.Proto, inter.Proto) {
		cc := cur
		cc.Proto = piece
		out = append(out, cc)
	}
	// What remains of cur equals inter, which is inside m: dropped.
	return out
}

// prefixMinus returns p ∖ q as disjoint prefixes, where q ⊆ p: the
// sibling prefixes along the trie path from p down to q.
func prefixMinus(p, q header.Prefix) []header.Prefix {
	var out []header.Prefix
	cur := p
	for cur.Len < q.Len {
		left, right := cur.Halves()
		if left.Matches(q.Addr) {
			out = append(out, right)
			cur = left
		} else {
			out = append(out, left)
			cur = right
		}
	}
	return out
}

// rangeMinus returns r ∖ q as at most two ranges, where q ⊆ r.
func rangeMinus(r, q header.PortRange) []header.PortRange {
	var out []header.PortRange
	if r.Lo < q.Lo {
		out = append(out, header.PortRange{Lo: r.Lo, Hi: q.Lo - 1})
	}
	if q.Hi < r.Hi {
		out = append(out, header.PortRange{Lo: q.Hi + 1, Hi: r.Hi})
	}
	return out
}

// protoMinus returns r ∖ q as at most two ranges, where q ⊆ r.
func protoMinus(r, q header.ProtoMatch) []header.ProtoMatch {
	var out []header.ProtoMatch
	if r.Lo < q.Lo {
		out = append(out, header.ProtoMatch{Lo: r.Lo, Hi: q.Lo - 1})
	}
	if q.Hi < r.Hi {
		out = append(out, header.ProtoMatch{Lo: q.Hi + 1, Hi: r.Hi})
	}
	return out
}

// canonicalize rewrites a cube list into the canonical form every Set
// operation returns: no cube subsumed by another, no pair mergeable into
// a single cube, and a deterministic total order. Canonical form keeps
// unions from growing unboundedly under the rule-by-rule PermittedSet
// fold (the raw cube count is monotone in the number of operations, not
// in the complexity of the denoted set) and makes SamplePacket a pure
// function of the denoted set rather than of construction history.
func canonicalize(cubes []header.Match) []header.Match {
	if len(cubes) > 1 {
		for changed := true; changed; {
			cubes, changed = dropSubsumed(cubes)
			var merged bool
			cubes, merged = mergePass(cubes)
			changed = changed || merged
		}
		sort.Slice(cubes, func(i, j int) bool { return cubeLess(cubes[i], cubes[j]) })
	}
	return cubes
}

// canonicalizeDisjoint is canonicalize for cube lists known to be
// pairwise disjoint (subtraction fragments): disjoint cubes cannot
// subsume one another, and merging adjacent disjoint cubes preserves
// disjointness, so the quadratic subsumption scan is skipped entirely.
func canonicalizeDisjoint(cubes []header.Match) []header.Match {
	if len(cubes) > 1 {
		for changed := true; changed; {
			cubes, changed = mergePass(cubes)
		}
		sort.Slice(cubes, func(i, j int) bool { return cubeLess(cubes[i], cubes[j]) })
	}
	return cubes
}

// dropSubsumed removes every cube contained in another (keeping the
// first of exact duplicates).
func dropSubsumed(cubes []header.Match) ([]header.Match, bool) {
	// out stays nil (no allocation) until the first drop; a fresh slice
	// is required then, because filtering in place would overwrite
	// entries the containment scan still reads.
	var out []header.Match
	for i, c := range cubes {
		sub := false
		for j, d := range cubes {
			if i != j && d.Contains(c) && (!c.Contains(d) || j < i) {
				sub = true
				break
			}
		}
		if sub {
			if out == nil {
				out = append(make([]header.Match, 0, len(cubes)-1), cubes[:i]...)
			}
			continue
		}
		if out != nil {
			out = append(out, c)
		}
	}
	if out == nil {
		return cubes, false
	}
	return out, true
}

// cubeField indexes the five cube dimensions for the grouped merge.
const (
	fieldDst = iota
	fieldSrc
	fieldDstPort
	fieldSrcPort
	fieldProto
	numFields
)

// encodeCube packs each field of a cube into one comparable word, so
// "agrees on all fields but one" becomes an array-key map lookup.
func encodeCube(c header.Match) [numFields]uint64 {
	return [numFields]uint64{
		fieldDst:     uint64(c.Dst.Addr)<<6 | uint64(c.Dst.Len),
		fieldSrc:     uint64(c.Src.Addr)<<6 | uint64(c.Src.Len),
		fieldDstPort: uint64(c.DstPort.Lo)<<16 | uint64(c.DstPort.Hi),
		fieldSrcPort: uint64(c.SrcPort.Lo)<<16 | uint64(c.SrcPort.Hi),
		fieldProto:   uint64(c.Proto.Lo)<<8 | uint64(c.Proto.Hi),
	}
}

// mergePass merges every mergeable cube pair (cubes agreeing on all
// fields but one, where that field's constraints combine exactly into
// one) in one sweep per field: cubes are hash-grouped on the other four
// fields, and each group's constraints on the varying field collapse in
// near-linear time — overlapping or adjacent ranges by an interval-union
// sweep, sibling prefixes bottom-up into parents. A naive pairwise
// fixpoint costs O(n²) scans per single merge and dominated set
// construction; the grouped pass is what makes canonicalization cheap
// enough to run after every set operation. The five sweeps share one
// grouping map, cleared between them.
func mergePass(cubes []header.Match) ([]header.Match, bool) {
	merged := false
	groups := make(map[[numFields - 1]uint64][]int, len(cubes))
	for field := 0; field < numFields; field++ {
		clear(groups)
		grouped := false
		for i, c := range cubes {
			enc := encodeCube(c)
			var key [numFields - 1]uint64
			k := 0
			for f := 0; f < numFields; f++ {
				if f != field {
					key[k] = enc[f]
					k++
				}
			}
			g := append(groups[key], i)
			groups[key] = g
			grouped = grouped || len(g) > 1
		}
		if !grouped {
			continue
		}
		out := make([]header.Match, 0, len(cubes))
		for _, g := range groups {
			if len(g) == 1 {
				out = append(out, cubes[g[0]])
				continue
			}
			template := cubes[g[0]]
			n := len(out)
			if field == fieldDst || field == fieldSrc {
				out = mergeGroupPrefixes(out, template, field, cubes, g)
			} else {
				out = mergeGroupRanges(out, template, field, cubes, g)
			}
			merged = merged || len(out)-n < len(g)
		}
		cubes = out
	}
	return cubes, merged
}

// mergeGroupRanges collapses one group's constraints on a range field
// into their interval union: sort by Lo, then sweep, joining ranges that
// overlap or are adjacent (exact — the union of such ranges is a range).
func mergeGroupRanges(out []header.Match, template header.Match, field int, cubes []header.Match, g []int) []header.Match {
	type iv struct{ lo, hi int }
	ivs := make([]iv, 0, len(g))
	for _, i := range g {
		switch field {
		case fieldDstPort:
			ivs = append(ivs, iv{int(cubes[i].DstPort.Lo), int(cubes[i].DstPort.Hi)})
		case fieldSrcPort:
			ivs = append(ivs, iv{int(cubes[i].SrcPort.Lo), int(cubes[i].SrcPort.Hi)})
		default:
			ivs = append(ivs, iv{int(cubes[i].Proto.Lo), int(cubes[i].Proto.Hi)})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	emit := func(r iv) {
		c := template
		switch field {
		case fieldDstPort:
			c.DstPort = header.PortRange{Lo: uint16(r.lo), Hi: uint16(r.hi)}
		case fieldSrcPort:
			c.SrcPort = header.PortRange{Lo: uint16(r.lo), Hi: uint16(r.hi)}
		default:
			c.Proto = header.ProtoMatch{Lo: uint8(r.lo), Hi: uint8(r.hi)}
		}
		out = append(out, c)
	}
	cur := ivs[0]
	for _, r := range ivs[1:] {
		if r.lo <= cur.hi+1 {
			cur.hi = max(cur.hi, r.hi)
			continue
		}
		emit(cur)
		cur = r
	}
	emit(cur)
	return out
}

// mergeGroupPrefixes collapses one group's constraints on a prefix field
// bottom-up: whenever both siblings of a parent are present, they become
// the parent, cascading until no sibling pair remains. (Containment
// cases are the subsumption pass's job.)
func mergeGroupPrefixes(out []header.Match, template header.Match, field int, cubes []header.Match, g []int) []header.Match {
	set := make(map[header.Prefix]bool, len(g))
	for _, i := range g {
		if field == fieldDst {
			set[cubes[i].Dst] = true
		} else {
			set[cubes[i].Src] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for p := range set {
			if p.Len == 0 || !set[p] {
				continue
			}
			sib := header.Prefix{Addr: p.Addr ^ 1<<(32-p.Len), Len: p.Len}
			if !set[sib] {
				continue
			}
			delete(set, p)
			delete(set, sib)
			set[p.Parent()] = true
			changed = true
		}
	}
	for p := range set {
		c := template
		if field == fieldDst {
			c.Dst = p
		} else {
			c.Src = p
		}
		out = append(out, c)
	}
	return out
}

// cubeLess is a total order over cubes (all fields compared), fixing the
// canonical cube sequence of a set.
func cubeLess(a, b header.Match) bool {
	if a.Dst != b.Dst {
		if a.Dst.Addr != b.Dst.Addr {
			return a.Dst.Addr < b.Dst.Addr
		}
		return a.Dst.Len < b.Dst.Len
	}
	if a.Src != b.Src {
		if a.Src.Addr != b.Src.Addr {
			return a.Src.Addr < b.Src.Addr
		}
		return a.Src.Len < b.Src.Len
	}
	if a.DstPort != b.DstPort {
		if a.DstPort.Lo != b.DstPort.Lo {
			return a.DstPort.Lo < b.DstPort.Lo
		}
		return a.DstPort.Hi < b.DstPort.Hi
	}
	if a.SrcPort != b.SrcPort {
		if a.SrcPort.Lo != b.SrcPort.Lo {
			return a.SrcPort.Lo < b.SrcPort.Lo
		}
		return a.SrcPort.Hi < b.SrcPort.Hi
	}
	if a.Proto.Lo != b.Proto.Lo {
		return a.Proto.Lo < b.Proto.Lo
	}
	return a.Proto.Hi < b.Proto.Hi
}

// PermittedSet computes the exact set of packets an ACL permits, by
// folding its rules in priority order: each rule claims the part of its
// match not already claimed above.
func PermittedSet(a *acl.ACL) Set {
	s, _ := permittedSetFrom(a.Rules, a.Default, []header.Match{header.MatchAll}, 0)
	return s
}

// Index is an ACL's rules indexed by destination prefix. Its region
// operations visit, in rule order, only the rules whose destination
// overlaps a cube of the region: no other rule can overlap the region or
// anything inside it, so each computes exactly what a scan over every
// rule does, at a cost that follows the region, not the rule count.
type Index struct {
	acl *acl.ACL
	dst *acl.DstIndex
}

// NewIndex pairs a with dst, its rules indexed by destination
// (acl.NewDstIndex over a.Rules), so an index built once serves every
// region operation on the ACL.
func NewIndex(a *acl.ACL, dst *acl.DstIndex) *Index {
	return &Index{acl: a, dst: dst}
}

// overlapping returns the ascending positions of the rules whose
// destination overlaps a cube of region. A destination inside the last
// one walked adds nothing; canonical cubes, sorted by destination
// address first, put each right after the ones containing it.
func (x *Index) overlapping(region Set) []int32 {
	var pos []int32
	var walked header.Prefix
	for i, c := range region.cubes {
		if i > 0 && walked.Contains(c.Dst) {
			continue
		}
		walked = c.Dst
		pos = x.dst.DstOverlapping(c.Dst, pos)
	}
	slices.Sort(pos) // disjoint destinations share their common ancestors' rules
	return slices.Compact(pos)
}

// PermittedSetWithin computes permitted(a) ∩ region without building
// the ACL's global permitted set: the first-match fold starts from the
// region's cubes instead of the full header space, so its cost scales
// with the region's size, not the ACL's global cube complexity. The
// rules it skips claim nothing of a remainder that never leaves the
// region, so the set and the ok bit are those of folding every rule.
// folded counts the rules visited; ok=false reports a cube-budget
// overflow.
func (x *Index) PermittedSetWithin(region Set, maxCubes int) (s Set, folded int, ok bool) {
	pos := x.overlapping(region)
	rules := make([]acl.Rule, len(pos))
	for i, p := range pos {
		rules[i] = x.acl.Rules[p]
	}
	s, ok = permittedSetFrom(rules, x.acl.Default, disjointCubes(region.cubes), maxCubes)
	return s, len(rules), ok
}

// MatchesWithin returns region ∩ ⋃ of the rules' matches: IntersectMatches
// over the rules that can meet the region. folded counts them.
func (x *Index) MatchesWithin(region Set) (s Set, folded int) {
	pos := x.overlapping(region)
	ms := make([]header.Match, len(pos))
	for i, p := range pos {
		ms[i] = x.acl.Rules[p].Match
	}
	return region.IntersectMatches(ms), len(ms)
}

// MeetingWithin counts the rules whose match meets the region — those
// whose fragments MatchesWithin canonicalizes — without building a set.
func (x *Index) MeetingWithin(region Set) int {
	n := 0
	for _, p := range x.overlapping(region) {
		if region.Overlaps(x.acl.Rules[p].Match) {
			n++
		}
	}
	return n
}

// disjointCubes rewrites a cube list into pairwise-disjoint cubes
// denoting the same union: each cube contributes the fragments left
// after subtracting everything already emitted. Canonical Sets may hold
// overlapping cubes (canonicalize drops subsumption and merges, but
// does not split partial overlaps), and the first-match fold requires a
// disjoint starting remainder.
func disjointCubes(cubes []header.Match) []header.Match {
	out := make([]header.Match, 0, len(cubes))
	for _, c := range cubes {
		pieces := []header.Match{c}
		for _, d := range out {
			if len(pieces) == 0 {
				break
			}
			next := pieces[:0:0]
			for _, p := range pieces {
				if p.Overlaps(d) {
					next = append(next, subtractCube(p, d)...)
				} else {
					next = append(next, p)
				}
			}
			pieces = next
		}
		out = append(out, pieces...)
	}
	return out
}

// permittedSetFrom is the shared first-match fold of rules, falling
// through to def. It tracks the unclaimed remainder of the starting
// cubes (which must be pairwise disjoint) rather than the claimed union:
// the remainder's cubes stay pairwise disjoint by construction
// (subtractCube splits a cube into disjoint fragments), so each rule's
// claimed region is read off by intersecting the rule's match with the
// remainder pieces, permitted regions of distinct rules are disjoint and
// accumulate by plain append, and no per-rule canonicalization is needed
// — subsumption cannot occur among disjoint cubes. One canonicalization
// at the end restores the Set invariant. The earlier claimed-union fold
// canonicalized twice per rule, which made set construction
// quadratically slower than the decision it feeds. maxCubes > 0 bounds
// the intermediate lists (ok=false on overflow); compaction is
// attempted once before giving up, since disjoint fragment lists can
// carry mergeable siblings.
func permittedSetFrom(rules []acl.Rule, def acl.Action, start []header.Match, maxCubes int) (Set, bool) {
	var permitted []header.Match
	remaining := start
	for _, r := range rules {
		// A rule that overlaps nothing of what is left claims nothing: skip
		// it without rebuilding the remainder — on a long rule list folded
		// from a small region that is nearly every rule.
		if len(remaining) == 0 {
			break // everything is claimed
		}
		k := 0
		for k < len(remaining) && !remaining[k].Overlaps(r.Match) {
			k++
		}
		if k == len(remaining) {
			continue
		}
		keep := append(make([]header.Match, 0, len(remaining)+4), remaining[:k]...)
		for _, c := range remaining[k:] {
			if !c.Overlaps(r.Match) {
				keep = append(keep, c)
				continue
			}
			if r.Action == acl.Permit {
				if region, ok := c.Intersect(r.Match); ok {
					permitted = append(permitted, region)
				}
			}
			keep = append(keep, subtractCube(c, r.Match)...)
		}
		remaining = keep
		if maxCubes > 0 && (len(permitted) > maxCubes || len(remaining) > maxCubes) {
			permitted = canonicalizeDisjoint(permitted)
			remaining = canonicalizeDisjoint(remaining)
			if len(permitted) > maxCubes || len(remaining) > maxCubes {
				return Set{}, false
			}
		}
	}
	if def == acl.Permit {
		permitted = append(permitted, remaining...)
	}
	return Set{cubes: canonicalizeDisjoint(permitted)}, true
}

// EquivalentACLs decides ACL equivalence exactly via the set algebra —
// the independent cross-check for acl.Equivalent (which goes through
// Tseitin + CDCL).
func EquivalentACLs(a, b *acl.ACL) bool {
	return PermittedSet(a).Equal(PermittedSet(b))
}

// DistinguishingPacket returns the least packet (MinPacket order) in
// exactly one of s and t — their symmetric difference — the witness an
// equivalence verdict rests on. ok is false when the sets are equal. As
// a MinPacket it is a pure function of the two denoted sets, independent
// of how either was built or split into cubes.
func DistinguishingPacket(s, t Set) (header.Packet, bool) {
	return s.Subtract(t).Union(t.Subtract(s)).MinPacket()
}

// EquivalentACLsWitness decides ACL equivalence via the set algebra and,
// on inequivalence, produces a concrete packet the two ACLs decide
// differently — the same counterexample shape the SMT path extracts
// from a satisfying assignment.
func EquivalentACLsWitness(a, b *acl.ACL) (equal bool, witness header.Packet) {
	pa, pb := PermittedSet(a), PermittedSet(b)
	if w, ok := DistinguishingPacket(pa, pb); ok {
		return false, w
	}
	return true, header.Packet{}
}

// SimplifyStats counts the per-rule redundancy decisions one Simplify
// call made.
type SimplifyStats struct {
	Cube       int // decided on cubes
	OverBudget int // fragments outgrew the cube budget: the rule was kept
}

// simplifyMaxCubes bounds the fragment list of one redundancy decision.
const simplifyMaxCubes = 2048

// Simplify is acl.Simplify — the same greedy order, the same passes to a
// fixpoint — with each "is the ACL unchanged without rule i" decided on
// cubes instead of by a solver query: rule i is removable iff the region
// it effectively claims, its match minus the matches above it, gets rule
// i's action from what follows. A decision whose fragments outgrow the
// cube budget keeps its rule, which never changes the decision model;
// within the budget the decider is exact, so wherever no decision
// overflows the result is acl.Simplify's, rule for rule.
func Simplify(a *acl.ACL) (*acl.ACL, SimplifyStats) {
	var st SimplifyStats
	cur := a.Clone()
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Rules); {
			redundant, decided := ruleRedundant(cur, i, simplifyMaxCubes)
			if decided {
				st.Cube++
			} else {
				st.OverBudget++
			}
			if redundant {
				cur.Rules = append(cur.Rules[:i], cur.Rules[i+1:]...) // drop rule i; do not advance
				changed = true
			} else {
				i++
			}
		}
	}
	return cur, st
}

// ruleRedundant decides whether removing rule i leaves a's decision model
// unchanged. Packets outside rule i's effective region never reach it, so
// only that region matters: there, the rules after i (then the default)
// take over, and the model is unchanged iff they decide rule i's action
// on all of it. decided=false reports a cube-budget overflow.
func ruleRedundant(a *acl.ACL, i, maxCubes int) (redundant, decided bool) {
	rule := a.Rules[i]
	// The effective region: disjoint fragments of the match that no
	// earlier rule claims.
	region := []header.Match{rule.Match}
	for _, r := range a.Rules[:i] {
		if region = subtractFrom(region, r.Match); len(region) > maxCubes {
			return false, false
		}
	}
	for _, r := range a.Rules[i+1:] {
		if len(region) == 0 {
			break
		}
		if r.Action != rule.Action {
			for _, c := range region {
				if c.Overlaps(r.Match) {
					return false, true // r decides part of the region the other way
				}
			}
			continue
		}
		if region = subtractFrom(region, r.Match); len(region) > maxCubes {
			return false, false
		}
	}
	return len(region) == 0 || a.Default == rule.Action, true
}

// subtractFrom returns the disjoint cubes of region with m removed,
// leaving region untouched when nothing overlaps m.
func subtractFrom(region []header.Match, m header.Match) []header.Match {
	for k, c := range region {
		if !c.Overlaps(m) {
			continue
		}
		out := append(make([]header.Match, 0, len(region)+8), region[:k]...)
		for _, c := range region[k:] {
			if c.Overlaps(m) {
				out = append(out, subtractCube(c, m)...)
			} else {
				out = append(out, c)
			}
		}
		return out
	}
	return region
}
