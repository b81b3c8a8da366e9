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
	bindings map[topo.ACLBinding]int32
	ctrlsOf  map[borderPair][]int32
}

type borderPair struct{ in, out *topo.Interface }

func newPathInterner(controls []Control, resolve func(id string) int32) *pathInterner {
	return &pathInterner{
		resolve: resolve, controls: controls,
		bindings: map[topo.ACLBinding]int32{}, ctrlsOf: map[borderPair][]int32{},
	}
}

// crossed appends to dst the indices of the bindings p crosses, in
// traversal order, skipping those of no interest.
func (pi *pathInterner) crossed(dst []int32, p topo.Path) []int32 {
	for _, h := range p.Hops {
		for _, b := range [2]topo.ACLBinding{{Iface: h.In, Dir: topo.In}, {Iface: h.Out, Dir: topo.Out}} {
			i, ok := pi.bindings[b]
			if !ok {
				i = pi.resolve(b.ID())
				pi.bindings[b] = i
			}
			if i >= 0 {
				dst = append(dst, i)
			}
		}
	}
	return dst
}

// ctrls returns the controls applying to p's (entry, exit) pair, in
// control (precedence) order. Paths of one pair share the slice.
func (pi *pathInterner) ctrls(p topo.Path) []int32 {
	pair := borderPair{p.Src(), p.Dst()}
	cs, ok := pi.ctrlsOf[pair]
	if !ok {
		from, to := pair.in.ID(), pair.out.ID()
		for i, c := range pi.controls {
			if c.From[from] && c.To[to] {
				cs = append(cs, int32(i))
			}
		}
		pi.ctrlsOf[pair] = cs
	}
	return cs
}

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
