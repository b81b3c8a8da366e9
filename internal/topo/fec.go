package topo

import (
	"sort"

	"jinjing/internal/header"
)

// prefixTrie is a binary trie over IPv4 prefixes, used to atomize traffic
// classes against the forwarding tables: after inserting a set of "cut"
// prefixes, the atoms of a class C are the maximal sub-prefixes of C that
// contain no cut strictly inside them, so every atom is contained in or
// disjoint from every cut (and therefore has uniform LPM behavior).
type prefixTrie struct {
	root *trieNode
}

type trieNode struct {
	children [2]*trieNode
	marked   bool // a cut prefix ends here
}

func newPrefixTrie() *prefixTrie { return &prefixTrie{root: &trieNode{}} }

func (t *prefixTrie) insert(p header.Prefix) {
	n := t.root
	for i := 0; i < p.Len; i++ {
		bit := p.Addr >> (31 - i) & 1
		if n.children[bit] == nil {
			n.children[bit] = &trieNode{}
		}
		n = n.children[bit]
	}
	n.marked = true
}

// atoms appends the atomization of class to out: walk to the class node,
// then recursively split wherever a cut lies strictly below.
func (t *prefixTrie) atoms(class header.Prefix, out []header.Prefix) []header.Prefix {
	n := t.root
	for i := 0; i < class.Len; i++ {
		bit := class.Addr >> (31 - i) & 1
		if n.children[bit] == nil {
			// No cut lies inside the class: it is already atomic.
			return append(out, class)
		}
		n = n.children[bit]
	}
	return splitNode(n, class, out)
}

func splitNode(n *trieNode, p header.Prefix, out []header.Prefix) []header.Prefix {
	if n.children[0] == nil && n.children[1] == nil {
		return append(out, p)
	}
	left, right := p.Halves()
	if n.children[0] != nil {
		out = splitNode(n.children[0], left, out)
	} else {
		out = append(out, left)
	}
	if n.children[1] != nil {
		out = splitNode(n.children[1], right, out)
	} else {
		out = append(out, right)
	}
	return out
}

// AtomizeClasses splits each class prefix against the cut prefixes so
// that every returned prefix is contained in or disjoint from every cut.
// Duplicates are removed; the result is sorted for determinism.
func AtomizeClasses(classes, cuts []header.Prefix) []header.Prefix {
	t := newPrefixTrie()
	for _, c := range cuts {
		t.insert(c)
	}
	var out []header.Prefix
	seen := make(map[header.Prefix]bool)
	for _, c := range classes {
		for _, a := range t.atoms(c, nil) {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].Len < out[j].Len
	})
	return out
}

// EnteringTraffic derives X_Ω, the destination-prefix classes of traffic
// entering the scope. The paper extracts this from Alibaba's IP
// management system; here the routable prefixes are exactly those
// announced in the in-scope forwarding tables, atomized so every class
// has uniform forwarding (and can be refined further by callers). Extra
// classes (e.g. prefixes named in control intents) may be passed in.
func (n *Network) EnteringTraffic(s *Scope, extra ...header.Prefix) []header.Prefix {
	var cuts []header.Prefix
	seen := make(map[header.Prefix]bool)
	for _, name := range s.DeviceNames() {
		if d, ok := n.Devices[name]; ok {
			for _, e := range d.FIB {
				if !seen[e.Prefix] { // many devices announce the same prefix
					seen[e.Prefix] = true
					cuts = append(cuts, e.Prefix)
				}
			}
		}
	}
	cuts = append(cuts, extra...)
	return AtomizeClasses(cuts, cuts)
}

// FEC is a forwarding equivalence class (§4.1): a set of traffic classes
// with identical forwarding behavior on every in-scope link. Classes is
// non-empty; all members forward along exactly the Paths.
type FEC struct {
	Classes []header.Prefix
	Paths   []Path // the paths (from the structural set) that forward this FEC
}

// ComputeFECs groups atomized traffic classes into forwarding equivalence
// classes using the structural path set: two classes are equivalent iff
// the same subset of paths forwards them (Equation 2 specialized to
// destination-based forwarding). Classes forwarded by no path are
// dropped — they never transit the scope. It is the full
// materialization of NewFECSource(paths, classes).
func ComputeFECs(paths []Path, classes []header.Prefix) []FEC {
	return NewFECSource(paths, classes).All()
}
