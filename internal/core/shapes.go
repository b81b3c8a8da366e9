package core

import (
	"encoding/binary"

	"jinjing/internal/topo"
)

// Generate and fix both compile the network once per call: a placement
// constraint reads of a path only which bindings it crosses and which
// controls govern it (ctrlsOn) — its shape — and a WAN's thousands of
// paths share a few dozen. pathInterner and shapeSet are the two halves
// of that reduction; what a shape's lists hold is the caller's business.

// pathInterner resolves the bindings a path crosses to the caller's
// indices for them, each binding once: resolve sees the binding the first
// time it is crossed.
type pathInterner struct {
	resolve  func(b topo.ACLBinding) int32 // the caller's index for a binding; negative: of no interest
	bindings bindingTable[int32]           // 0: not yet resolved; 1: of no interest; else index+2
}

// crossed appends to dst the indices of the bindings p crosses, in
// traversal order, skipping those of no interest.
func (pi *pathInterner) crossed(dst []int32, p topo.Path) []int32 {
	at := pi.bindings.of(p)
	for _, h := range p.Hops {
		for _, b := range [2]topo.ACLBinding{{Iface: h.In, Dir: topo.In}, {Iface: h.Out, Dir: topo.Out}} {
			k := bindingOrd(b)
			if at[k] == 0 {
				at[k] = max(pi.resolve(b), -1) + 2
			}
			if i := at[k]; i > 1 {
				dst = append(dst, i-2)
			}
		}
	}
	return dst
}

// ctrlsOn returns the controls governing p's (entry, exit) pair, in
// control (precedence) order, nil when there are none. It computes a
// pair's list once, into cache under the packed ordinals, and the paths
// of the pair share it.
func (e *Engine) ctrlsOn(cache map[uint64][]int32, p topo.Path) []int32 {
	if len(e.Controls) == 0 {
		return nil
	}
	src, dst := p.Src(), p.Dst()
	pair := uint64(src.Ord())<<32 | uint64(dst.Ord())
	cs, ok := cache[pair]
	if !ok {
		for i := range e.Controls {
			if c := &e.Controls[i]; c.From.Has(src) && c.To.Has(dst) {
				cs = append(cs, int32(i))
			}
		}
		cache[pair] = cs
	}
	return cs
}

// bindingTable holds a value per binding of one network at bindingOrd,
// so a lookup indexes a slice where it would hash. Within a network core
// keys a binding this way; ordinals of two networks are unrelated, so
// the table serves the first network it is asked for and panics on
// another's (a binding crosses networks by name, in moveBinding).
type bindingTable[T any] struct {
	net  *topo.Network
	vals []T
}

// on returns the table sized for network n; entries never set are zero.
func (t *bindingTable[T]) on(n *topo.Network) []T {
	if t.net == nil {
		t.net = n
	} else if n != t.net {
		panic("core: a binding table fed another network's binding")
	}
	if k := 2 * n.NumInterfaces(); len(t.vals) < k {
		t.vals = append(t.vals, make([]T, k-len(t.vals))...)
	}
	return t.vals
}

// of returns the table sized for p's network.
func (t *bindingTable[T]) of(p topo.Path) []T { return t.on(p.Src().Device.Network()) }

// at returns b's entry.
func (t *bindingTable[T]) at(b topo.ACLBinding) *T {
	return &t.on(b.Iface.Device.Network())[bindingOrd(b)]
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
