package topo

import (
	"encoding/binary"
	"slices"
	"sort"

	"jinjing/internal/header"
)

// FECSource is the forwarding index of a scope: the structural path set
// P_Ω, the traffic classes, and — as index vectors into those two slices
// — the paths that forward each class, grouped into forwarding
// equivalence classes (Equation 2 specialized to destination-based
// forwarding: two classes are equivalent iff the same paths forward
// them). Network.ForwardingIndex builds it in one walk of the routing
// DAG; AllPaths, ComputeFECs, the engine's accessors and generate's DEC
// split are all views of it. Indexing F FECs over C classes costs
// O(C + Σ|paths per FEC|) int32s; FEC values are materialized one at a
// time (Materialize) or all at once (All).
//
// Classes are scanned in order, so FECs appear in first-seen order with
// member classes ascending and paths in path-slice order; grouping on
// path-index vectors is grouping on path sets because no two structural
// paths share an interface sequence. TestFECSourceMatchesComputeFECs
// pins this against the definitional classes × paths scan.
type FECSource struct {
	paths     []Path
	classes   []header.Prefix
	truncated int

	fecOf    []int32   // per class: its FEC, or -1 when no path forwards it
	classIdx [][]int32 // per FEC: ascending indices into classes
	pathIdx  [][]int32 // per FEC: ascending indices into paths
}

// NewFECSource indexes a given path slice by replaying each path through
// the FIBs it crosses (every class must be atomic with respect to them).
// Classes no path forwards belong to no FEC: they never transit the scope.
func NewFECSource(paths []Path, classes []header.Prefix) *FECSource {
	x := newIndexer(nil, nil, classes)
	alive := make([]int32, 0, len(classes))
	for pi, p := range paths {
		alive = append(alive[:0], x.order...)
		for _, h := range p.Hops {
			row := x.row(h.In.Device)
			oi := int32(slices.Index(row.ifaces, h.Out))
			alive = slices.DeleteFunc(alive, func(c int32) bool { return !slices.Contains(row.egress(c), oi) })
		}
		for _, c := range alive {
			x.fwd[c] = append(x.fwd[c], int32(pi))
		}
	}
	return x.group(paths)
}

// group finishes the index: classes with equal lists form one FEC.
func (x *indexer) group(paths []Path) *FECSource {
	s := &FECSource{paths: paths, classes: x.classes, truncated: x.truncated, fecOf: make([]int32, len(x.classes))}
	byPaths := make(map[string]int32) // little-endian bytes of a path-index vector -> FEC
	var key []byte
	for ci, idx := range x.fwd {
		if len(idx) == 0 {
			s.fecOf[ci] = -1
			continue
		}
		key = key[:0]
		for _, pi := range idx {
			key = binary.LittleEndian.AppendUint32(key, uint32(pi))
		}
		gi, ok := byPaths[string(key)]
		if !ok {
			gi = int32(len(s.pathIdx))
			byPaths[string(key)] = gi
			s.pathIdx = append(s.pathIdx, idx)
			s.classIdx = append(s.classIdx, nil)
		}
		s.classIdx[gi] = append(s.classIdx[gi], int32(ci))
		s.fecOf[ci] = gi
	}
	return s
}

// Paths and Classes return what was indexed. Callers must not mutate it.
func (s *FECSource) Paths() []Path            { return s.paths }
func (s *FECSource) Classes() []header.Prefix { return s.classes }

// Truncated counts the walks ForwardingIndex abandoned at maxPathDevices
// with traffic still alive: routes no verdict over this index looked at.
func (s *FECSource) Truncated() int { return s.truncated }

// FECOf returns the FEC of the class containing dst, or -1 when dst lies
// in no class or in one no path forwards. It relies on the classes being
// sorted and pairwise disjoint, as EnteringTraffic returns them.
func (s *FECSource) FECOf(dst header.Prefix) int {
	i := sort.Search(len(s.classes), func(i int) bool { return s.classes[i].Addr > dst.Addr }) - 1
	if i < 0 || !s.classes[i].Contains(dst) {
		return -1
	}
	return int(s.fecOf[i])
}

// All materializes every FEC, in order.
func (s *FECSource) All() []FEC {
	out := make([]FEC, s.NumFECs())
	for i := range out {
		out[i] = s.Materialize(i)
	}
	return out
}

// NumFECs returns the number of forwarding equivalence classes.
func (s *FECSource) NumFECs() int { return len(s.pathIdx) }

// Materialize builds FEC i with fresh Classes/Paths slices.
func (s *FECSource) Materialize(i int) FEC {
	f := FEC{
		Classes: make([]header.Prefix, len(s.classIdx[i])),
		Paths:   make([]Path, len(s.pathIdx[i])),
	}
	for k, ci := range s.classIdx[i] {
		f.Classes[k] = s.classes[ci]
	}
	for k, pi := range s.pathIdx[i] {
		f.Paths[k] = s.paths[pi]
	}
	return f
}

// PathIndices returns FEC i's path-index vector (indices into the paths
// slice the source was built from). Callers must not mutate it.
func (s *FECSource) PathIndices(i int) []int32 { return s.pathIdx[i] }
