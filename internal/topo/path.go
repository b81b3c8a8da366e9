package topo

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"jinjing/internal/header"
)

// Hop is one device traversal on a path: the packet enters through In and
// leaves through Out.
type Hop struct {
	In  *Interface
	Out *Interface
}

// Path is a border-to-border route through the scope (§3.3): the first
// hop's In and the last hop's Out are border interfaces.
type Path struct {
	Hops []Hop
}

// Bindings returns the (interface, direction) pairs whose ACLs apply to
// traffic on this path, in traversal order. Unbound (nil-ACL) pairs are
// included too, because fix/generate may place new ACLs on them.
func (p Path) Bindings() []ACLBinding {
	out := make([]ACLBinding, 0, 2*len(p.Hops))
	for _, h := range p.Hops {
		out = append(out, ACLBinding{Iface: h.In, Dir: In}, ACLBinding{Iface: h.Out, Dir: Out})
	}
	return out
}

// Src returns the border interface where the path enters the scope.
func (p Path) Src() *Interface { return p.Hops[0].In }

// Dst returns the border interface where the path leaves the scope.
func (p Path) Dst() *Interface { return p.Hops[len(p.Hops)-1].Out }

// Permits evaluates the path decision model c_p(h) (Equation 1): the
// conjunction of every on-path ACL's decision on the packet.
func (p Path) Permits(pkt header.Packet) bool {
	for _, h := range p.Hops {
		if !h.In.Permits(In, pkt) || !h.Out.Permits(Out, pkt) {
			return false
		}
	}
	return true
}

// String renders the path in the paper's interface-list notation, e.g.
// ⟨A1, A4, D1, D3⟩: alternating ingress and egress interfaces.
func (p Path) String() string {
	parts := make([]string, 0, 2*len(p.Hops))
	for _, h := range p.Hops {
		parts = append(parts, h.In.ID(), h.Out.ID())
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// Key returns a canonical identity string for deduplication.
func (p Path) Key() string { return p.String() }

// maxPathDevices bounds structural path enumeration; cloud WAN paths are
// short (the paper's footnote 1: paths are enumerable in polynomial time
// over the routing DAG). Walks cut off here are counted: Truncated.
const maxPathDevices = 12

// AllPaths enumerates P_Ω, the paths of the scope's routing DAG: every
// loop-free border-to-border route that the forwarding tables support for
// at least one class of entering traffic.
func (n *Network) AllPaths(s *Scope) []Path {
	return n.ForwardingIndex(s, n.EnteringTraffic(s)).Paths()
}

// ForwardingIndex walks the scope's routing DAG once (the paper's
// footnote 1 — paths come "from the perspective of routing DAGs", which
// keeps enumeration polynomial in layered networks by pruning valley
// routes no traffic can take) and indexes both products of the walk: the
// paths, and which of them forward each class. Each device traversal goes
// from an ingress interface to an egress interface that either leaves
// the scope (ending the path) or links to another in-scope device. The
// walk carries the classes still routed along the partial path and
// prunes a branch when none is left, so at a leaf the carried set is
// exactly the classes the path forwards: O(DAG nodes visited × classes
// alive there), not O(classes × paths × hops). classes must be atomic
// wrt every in-scope FIB, as EnteringTraffic returns them; refining
// them changes the FECs, not the paths. Results are deterministic.
func (n *Network) ForwardingIndex(s *Scope, classes []header.Prefix) *FECSource {
	x := newIndexer(n, s, classes)
	for _, entry := range n.BorderInterfaces(s) {
		if !s.AllowsEntry(entry.ID()) {
			continue
		}
		// Traffic can enter here if the interface is an edge or its
		// upstream is out of scope.
		if up := n.Upstream(entry); up != nil && s.ContainsDevice(up.Device.Name) {
			continue // this border interface only sends traffic out
		}
		x.extend(entry, x.order)
	}
	return x.group(slices.Concat(x.paths...))
}

// indexer builds a FECSource. A device's first visit sweeps its FIB once
// into a flat row every hop indexes; fwd collects the result. Completed
// paths are copied into chunks (their hops, and the Path values), so
// allocation follows devices and chunks, not paths or (device, class).
type indexer struct {
	n       *Network // nil when replaying given paths (NewFECSource)
	s       *Scope
	classes []header.Prefix
	order   []int32 // every class index by prefixKey: the sweep's order, an entry's alive set
	rows    map[*Device]*fibRow
	fwd     [][]int32 // per class: the paths forwarding it, ascending

	// The state of ForwardingIndex's walk.
	hops      []Hop    // the partial path
	arena     []Hop    // the chunk completed paths' hops are copied to
	paths     [][]Path // completed paths, in discovery order, in chunks
	npaths    int32    // completed paths so far
	truncated int
}

type fibRow struct {
	ifaces []*Interface // name-sorted
	peers  []*Interface // per iface: the in-scope ingress it links to, else nil (walk only)
	// Class c's egress interfaces (indices into ifaces) are
	// outs[span[c][0]:span[c][1]], shared by classes with one longest
	// match; each once, as a duplicate FIB entry would emit a path twice.
	outs []int32
	span [][2]int32
	// While the walk has the device on its partial path: the alive
	// classes split by egress interface, and the loop guard.
	next   [][]int32
	onPath bool
}

func (r *fibRow) egress(c int32) []int32 { return r.outs[r.span[c][0]:r.span[c][1]] }

func newIndexer(n *Network, s *Scope, classes []header.Prefix) *indexer {
	x := &indexer{n: n, s: s, classes: classes, order: make([]int32, len(classes)),
		rows: make(map[*Device]*fibRow), fwd: make([][]int32, len(classes))}
	for i := range x.order {
		x.order[i] = int32(i)
	}
	slices.SortFunc(x.order, func(a, b int32) int { return cmp.Compare(prefixKey(classes[a]), prefixKey(classes[b])) })
	return x
}

// prefixKey orders prefixes by address, then length: a prefix sorts
// before every prefix strictly inside it, and they before its successor.
func prefixKey(p header.Prefix) uint64 { return uint64(p.Canonical().Addr)<<6 | uint64(p.Len) }

func (x *indexer) row(d *Device) *fibRow {
	if r, ok := x.rows[d]; ok {
		return r
	}
	ifaces := d.SortedInterfaces()
	r := &fibRow{ifaces: ifaces, span: make([][2]int32, len(x.classes)), next: make([][]int32, len(ifaces))}
	if x.n != nil {
		r.peers = make([]*Interface, len(ifaces))
		for i, o := range ifaces {
			if peer := x.n.Peer(o); peer != nil && x.s.ContainsDevice(peer.Device.Name) {
				r.peers[i] = peer
			}
		}
	}
	x.rows[d] = r
	x.sweep(d, r)
	return r
}

// sweep gives every class its LongestMatchClass by merging d's FIB, sorted
// by prefixKey then position, with the classes in prefixKey order. A stack
// holds the FIB prefixes enclosing the merge position; equal prefixes are
// adjacent and form one ECMP group in FIB order. Like LongestMatchClass it
// panics when a FIB entry lies strictly inside a class (the first in order).
func (x *indexer) sweep(d *Device, r *fibRow) {
	fib := make([]int32, len(d.FIB))
	for i := range fib {
		fib[i] = int32(i)
	}
	key := func(i int32) uint64 { return prefixKey(d.FIB[i].Prefix) }
	slices.SortFunc(fib, func(a, b int32) int { return cmp.Or(cmp.Compare(key(a), key(b)), cmp.Compare(a, b)) })
	type group struct {
		p      header.Prefix
		lo, hi int32 // its span of r.outs
	}
	var stack []group
	pop := func(p header.Prefix) { // keep only the prefixes enclosing p
		for len(stack) > 0 && !stack[len(stack)-1].p.Contains(p) {
			stack = stack[:len(stack)-1]
		}
	}
	j, bad := 0, int32(-1)
	for _, c := range x.order {
		class, ck := x.classes[c], prefixKey(x.classes[c])
		for ; j < len(fib) && key(fib[j]) <= ck; j++ {
			e := d.FIB[fib[j]]
			if pop(e.Prefix); len(stack) == 0 || stack[len(stack)-1].p != e.Prefix.Canonical() {
				stack = append(stack, group{p: e.Prefix.Canonical(), lo: int32(len(r.outs)), hi: int32(len(r.outs))})
			}
			g := &stack[len(stack)-1]
			if oi := int32(slices.Index(r.ifaces, e.Out)); oi >= 0 && !slices.Contains(r.outs[g.lo:], oi) {
				r.outs = append(r.outs, oi)
				g.hi++
			}
		}
		if pop(class); len(stack) > 0 {
			r.span[c] = [2]int32{stack[len(stack)-1].lo, stack[len(stack)-1].hi}
		}
		// Entries after j sort after the class: strictly inside it or
		// past it, the nearest first.
		if j < len(fib) && class.Contains(d.FIB[fib[j]].Prefix) && (bad < 0 || c < bad) {
			bad = c
		}
	}
	if bad >= 0 {
		panic(fmt.Sprintf("topo: class %v not atomic wrt FIB on %s", x.classes[bad], d.Name))
	}
}

// extend continues the partial path into in's device. alive holds the
// classes the forwarding tables still route along the partial path.
func (x *indexer) extend(in *Interface, alive []int32) {
	row := x.row(in.Device)
	if row.onPath {
		return
	}
	if len(x.hops) >= maxPathDevices {
		x.truncated++
		return
	}
	row.onPath = true
	// Bucket alive by egress once per node, reusing the row's buckets: a
	// device is on the path at most once.
	for oi := range row.next {
		row.next[oi] = row.next[oi][:0]
	}
	for _, c := range alive {
		for _, oi := range row.egress(c) {
			row.next[oi] = append(row.next[oi], c)
		}
	}
	for oi, classes := range row.next {
		o := row.ifaces[oi]
		if o == in || len(classes) == 0 {
			continue
		}
		x.hops = append(x.hops, Hop{In: in, Out: o})
		if peer := row.peers[oi]; peer != nil {
			x.extend(peer, classes)
		} else {
			// The path leaves the scope, forwarding the classes carried.
			// Its Hops are capped: an append cannot reach the next path's.
			if cap(x.arena)-len(x.arena) < len(x.hops) {
				x.arena = make([]Hop, 0, 4096)
			}
			lo := len(x.arena)
			x.arena = append(x.arena, x.hops...)
			k := len(x.paths) - 1
			if k < 0 || len(x.paths[k]) == cap(x.paths[k]) {
				x.paths, k = append(x.paths, make([]Path, 0, 1024)), k+1
			}
			x.paths[k] = append(x.paths[k], Path{Hops: x.arena[lo:len(x.arena):len(x.arena)]})
			pi := x.npaths
			x.npaths++
			for _, c := range classes {
				x.fwd[c] = append(x.fwd[c], pi)
			}
		}
		x.hops = x.hops[:len(x.hops)-1]
	}
	row.onPath = false
}

// ForwardsClass reports whether the network's forwarding tables route the
// destination-prefix class along path p: at every hop, the device's LPM
// for the class selects the hop's egress interface. class must be atomic
// with respect to every on-path FIB.
func (p Path) ForwardsClass(class header.Prefix) bool {
	for _, h := range p.Hops {
		if !slices.Contains(h.In.Device.LongestMatchClass(class), h.Out) {
			return false
		}
	}
	return true
}

// PathsForClass returns the subset of paths that forward the class (the
// 𝒴 sets of Algorithm 1 and §5.3).
func PathsForClass(paths []Path, class header.Prefix) []Path {
	var out []Path
	for _, p := range paths {
		if p.ForwardsClass(class) {
			out = append(out, p)
		}
	}
	return out
}

// Validate performs structural sanity checks on a path.
func (p Path) Validate(n *Network) error {
	if len(p.Hops) == 0 {
		return fmt.Errorf("topo: empty path")
	}
	for i, h := range p.Hops {
		if h.In.Device != h.Out.Device {
			return fmt.Errorf("topo: hop %d spans devices %s and %s", i, h.In.Device.Name, h.Out.Device.Name)
		}
		if i > 0 {
			prev := p.Hops[i-1]
			if n.Peer(prev.Out) != h.In {
				return fmt.Errorf("topo: hop %d not linked from previous hop", i)
			}
		}
	}
	return nil
}
