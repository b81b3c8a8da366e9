package core

import (
	"encoding/binary"

	"jinjing/internal/topo"
)

// Generate and fix both compile the network once per call: a placement
// constraint reads of a path only which bindings it crosses and which
// controls govern it — its shape — and a WAN's thousands of paths share a
// few dozen. pathInterner and shapeSet are the two halves of that
// reduction; what a shape's lists hold is the caller's business.

// pathInterner resolves what a path crosses to integers, each thing once:
// a binding to the caller's index for it (resolve sees the "dev:if:dir"
// ID, as the engine's binding sets are keyed, the first time the binding
// is crossed), an (entry, exit) border pair to the controls applying to it.
type pathInterner struct {
	resolve  func(id string) int32 // the caller's index for a binding; negative: of no interest
	controls []Control
	bindings bindingTable[int32] // 0: not yet resolved; 1: of no interest; else index+2
	ctrlsOf  map[uint64][]int32  // by the packed (entry, exit) ordinals
}

// crossed appends to dst the indices of the bindings p crosses, in
// traversal order, skipping those of no interest.
func (pi *pathInterner) crossed(dst []int32, p topo.Path) []int32 {
	at := pi.bindings.of(p)
	for _, h := range p.Hops {
		for _, b := range [2]topo.ACLBinding{{Iface: h.In, Dir: topo.In}, {Iface: h.Out, Dir: topo.Out}} {
			k := bindingOrd(b)
			if at[k] == 0 {
				at[k] = max(pi.resolve(b.ID()), -1) + 2
			}
			if i := at[k]; i > 1 {
				dst = append(dst, i-2)
			}
		}
	}
	return dst
}

// ctrls returns the controls applying to p's (entry, exit) pair, in
// control (precedence) order, nil when there are none. Paths of one pair
// share the slice; the cache keys on ordinals, as crossed's table does.
func (pi *pathInterner) ctrls(p topo.Path) []int32 {
	if len(pi.controls) == 0 {
		return nil
	}
	src, dst := p.Src(), p.Dst()
	pair := uint64(src.Ord())<<32 | uint64(dst.Ord())
	cs, ok := pi.ctrlsOf[pair]
	if !ok {
		from, to := src.ID(), dst.ID()
		for i, c := range pi.controls {
			if c.From[from] && c.To[to] {
				cs = append(cs, int32(i))
			}
		}
		if pi.ctrlsOf == nil {
			pi.ctrlsOf = map[uint64][]int32{}
		}
		pi.ctrlsOf[pair] = cs
	}
	return cs
}

// bindingTable holds a value per binding at bindingOrd, so a path walk
// indexes a slice where it would hash. Ordinals of two networks are
// unrelated: it serves the first path's network and panics on another's.
type bindingTable[T any] struct {
	net *topo.Network
	at  []T
}

// of returns the table sized for p's network; entries never set are zero.
func (t *bindingTable[T]) of(p topo.Path) []T {
	n := p.Src().Device.Network()
	if t.net == nil {
		t.net = n
	} else if n != t.net {
		panic("core: a binding table fed a path of another network")
	}
	if k := 2 * n.NumInterfaces(); len(t.at) < k {
		t.at = append(t.at, make([]T, k-len(t.at))...)
	}
	return t.at
}

// bindingOrd is a binding's index in a bindingTable.
func bindingOrd(b topo.ACLBinding) int { return 2*b.Iface.Ord() + int(b.Dir) }

// shapeSet numbers distinct shapes — tuples of int32 lists — in
// first-occurrence order over the paths added.
type shapeSet struct {
	shapeOf []int32 // per path added: its shape
	idx     map[string]int32
	key     []byte
}

// add records the next path's shape and reports whether it is a new one.
func (s *shapeSet) add(lists ...[]int32) (si int32, fresh bool) {
	s.key = s.key[:0]
	for _, l := range lists {
		s.key = binary.LittleEndian.AppendUint32(s.key, uint32(len(l)))
		for _, v := range l {
			s.key = binary.LittleEndian.AppendUint32(s.key, uint32(v))
		}
	}
	si, ok := s.idx[string(s.key)]
	if !ok {
		if s.idx == nil {
			s.idx = map[string]int32{}
		}
		si = int32(len(s.idx))
		s.idx[string(s.key)] = si
	}
	s.shapeOf = append(s.shapeOf, si)
	return si, !ok
}

// shapesOn returns the distinct shapes of the given paths, in
// first-occurrence order.
func (s *shapeSet) shapesOn(pathIdx []int32) []int32 {
	seen := make([]bool, len(s.idx))
	var out []int32
	for _, pi := range pathIdx {
		if si := s.shapeOf[pi]; !seen[si] {
			seen[si] = true
			out = append(out, si)
		}
	}
	return out
}
