package topo

import (
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

// Interfaces flattens the path into the paper's interface-list notation,
// e.g. ⟨A1, A4, D1, D3⟩: alternating ingress and egress interfaces.
func (p Path) Interfaces() []*Interface {
	out := make([]*Interface, 0, 2*len(p.Hops))
	for _, h := range p.Hops {
		out = append(out, h.In, h.Out)
	}
	return out
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

// String renders the path in the paper's ⟨A1, A4, D1, D3⟩ notation.
func (p Path) String() string {
	parts := make([]string, 0, 2*len(p.Hops))
	for _, i := range p.Interfaces() {
		parts = append(parts, i.ID())
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
	x := newIndexer(classes)
	x.n, x.s = n, s
	for _, entry := range n.BorderInterfaces(s) {
		if !s.AllowsEntry(entry.ID()) {
			continue
		}
		// Traffic can enter here if the interface is an edge or its
		// upstream is out of scope.
		if up := n.Upstream(entry); up != nil && s.ContainsDevice(up.Device.Name) {
			continue // this border interface only sends traffic out
		}
		x.extend(entry, x.all)
	}
	return x.group(x.paths)
}

// indexer builds a FECSource. It resolves LongestMatchClass once per
// (device, class), on the first visit to a device, so every hop indexes
// a slice instead of descending the LPM trie; fwd collects the result.
type indexer struct {
	classes []header.Prefix
	all     []int32 // every class index: the alive set at an entry
	rows    map[*Device]*fibRow
	fwd     [][]int32 // per class: the paths forwarding it, ascending

	// The state of ForwardingIndex's walk.
	n         *Network
	s         *Scope
	hops      []Hop  // the partial path
	paths     []Path // completed paths, in discovery order
	truncated int
}

type fibRow struct {
	ifaces []*Interface // name-sorted
	// outs[c] holds class c's egress interfaces as indices into ifaces,
	// each once: a FIB may hold the same entry twice, and a duplicate
	// here would emit the path twice.
	outs [][]int32
	// While the walk has the device on its partial path: the alive
	// classes split by egress interface, and the loop guard.
	next   [][]int32
	onPath bool
}

func newIndexer(classes []header.Prefix) *indexer {
	x := &indexer{classes: classes, all: make([]int32, len(classes)),
		rows: make(map[*Device]*fibRow), fwd: make([][]int32, len(classes))}
	for i := range x.all {
		x.all[i] = int32(i)
	}
	return x
}

func (x *indexer) row(d *Device) *fibRow {
	if r, ok := x.rows[d]; ok {
		return r
	}
	ifaces := d.SortedInterfaces()
	r := &fibRow{ifaces: ifaces, outs: make([][]int32, len(x.classes)), next: make([][]int32, len(ifaces))}
	x.rows[d] = r
	for c, class := range x.classes {
		for _, o := range d.LongestMatchClass(class) {
			if oi := int32(slices.Index(ifaces, o)); oi >= 0 && !slices.Contains(r.outs[c], oi) {
				r.outs[c] = append(r.outs[c], oi)
			}
		}
	}
	return r
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
		for _, oi := range row.outs[c] {
			row.next[oi] = append(row.next[oi], c)
		}
	}
	for oi, classes := range row.next {
		o := row.ifaces[oi]
		if o == in || len(classes) == 0 {
			continue
		}
		x.hops = append(x.hops, Hop{In: in, Out: o})
		if peer := x.n.Peer(o); peer != nil && x.s.ContainsDevice(peer.Device.Name) {
			x.extend(peer, classes)
		} else {
			// The path leaves the scope, forwarding the classes carried.
			pi := int32(len(x.paths))
			x.paths = append(x.paths, Path{Hops: slices.Clone(x.hops)})
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
