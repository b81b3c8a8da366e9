package core

import (
	"fmt"
	"sort"

	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// maxGeneratedClasses bounds the class cross-product in deriveClasses; it
// exists to turn pathological rule sets into an error instead of an OOM.
const maxGeneratedClasses = 2_000_000

// deriveClasses partitions the traffic entering Ω into classes that are
// atomic with respect to every ACL rule, FIB entry, and control intent in
// scope: each class is contained in or disjoint from every such match, so
// it has a uniform decision at every ACL (the precondition for ACL
// equivalence classes, §5.1) and uniform forwarding (for the DEC split,
// §5.3). Per-field atomization is exact because rule fields are prefixes
// and ranges; the class space is their cross product, restricted to
// destination classes that actually enter the scope.
func (e *Engine) deriveClasses() ([]header.Match, error) {
	var ruleMatches []header.Match
	for _, b := range e.Before.ACLGroup(e.Scope) {
		for _, r := range b.Iface.ACL(b.Dir).Rules {
			ruleMatches = append(ruleMatches, r.Match)
		}
	}
	for _, c := range e.Controls {
		ruleMatches = append(ruleMatches, c.Match)
	}

	// Destination atoms: entering traffic refined by every rule/control
	// destination prefix.
	var dstCuts []header.Prefix
	for _, m := range ruleMatches {
		if !m.Dst.IsAny() {
			dstCuts = append(dstCuts, m.Dst)
		}
	}
	dstAtoms := e.Before.EnteringTraffic(e.Scope, dstCuts...)

	// Source atoms: the full space refined by rule/control source
	// prefixes.
	var srcCuts []header.Prefix
	for _, m := range ruleMatches {
		if !m.Src.IsAny() {
			srcCuts = append(srcCuts, m.Src)
		}
	}
	srcAtoms := topo.AtomizeClasses([]header.Prefix{header.AnyPrefix}, srcCuts)

	// Port atoms.
	var dpRanges, spRanges []header.PortRange
	for _, m := range ruleMatches {
		mm := m
		if dp := mm.DstPort; !dp.IsAny() {
			dpRanges = append(dpRanges, dp)
		}
		if sp := mm.SrcPort; !sp.IsAny() {
			spRanges = append(spRanges, sp)
		}
	}
	dpAtoms := portAtoms(dpRanges)
	spAtoms := portAtoms(spRanges)

	// Protocol atoms.
	var prRanges []header.ProtoMatch
	for _, m := range ruleMatches {
		if pm := m.Proto; !pm.IsAny() {
			prRanges = append(prRanges, pm)
		}
	}
	prAtoms := protoAtoms(prRanges)

	// The cross-product guard: refuse before allocating.
	rest := int64(len(srcAtoms)) * int64(len(dpAtoms)) * int64(len(spAtoms)) * int64(len(prAtoms))
	total := int64(len(dstAtoms)) * rest
	if total > maxGeneratedClasses {
		detail := fmt.Sprintf("%d = %d dst × %d src × %d dport × %d sport × %d proto atoms",
			total, len(dstAtoms), len(srcAtoms), len(dpAtoms), len(spAtoms), len(prAtoms))
		if rest > maxGeneratedClasses {
			// Narrowing the scope cannot help: a single dst atom already
			// exceeds the bound.
			return nil, fmt.Errorf("core: class space too large (%s); even one destination atom yields %d classes, beyond the %d bound",
				detail, rest, int64(maxGeneratedClasses))
		}
		return nil, fmt.Errorf("core: class space too large (%s; bound %d)", detail, int64(maxGeneratedClasses))
	}

	out := make([]header.Match, 0, total)
	for _, d := range dstAtoms {
		for _, s := range srcAtoms {
			for _, dp := range dpAtoms {
				for _, sp := range spAtoms {
					for _, pr := range prAtoms {
						out = append(out, header.Match{
							Src: s, Dst: d, SrcPort: sp, DstPort: dp, Proto: pr,
						})
					}
				}
			}
		}
	}
	return out, nil
}

// dstAtoms counts the destination atoms of classes in deriveClasses'
// dst-major order: the runs of one destination, each of which deriveAECs
// walks every distinct ACL's search tree for once.
func dstAtoms(classes []header.Match) int {
	n := 0
	for i, c := range classes {
		if i == 0 || c.Dst != classes[i-1].Dst {
			n++
		}
	}
	return n
}

// portAtoms partitions [0, 65535] into maximal intervals not crossing any
// given range boundary.
func portAtoms(ranges []header.PortRange) []header.PortRange {
	starts := map[uint32]bool{0: true}
	for _, r := range ranges {
		starts[uint32(r.Lo)] = true
		if r.Hi < 65535 {
			starts[uint32(r.Hi)+1] = true
		}
	}
	keys := make([]uint32, 0, len(starts))
	for k := range starts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]header.PortRange, 0, len(keys))
	for i, k := range keys {
		hi := uint32(65535)
		if i+1 < len(keys) {
			hi = keys[i+1] - 1
		}
		out = append(out, header.PortRange{Lo: uint16(k), Hi: uint16(hi)})
	}
	return out
}

// protoAtoms partitions [0, 255] analogously.
func protoAtoms(ranges []header.ProtoMatch) []header.ProtoMatch {
	starts := map[int]bool{0: true}
	for _, r := range ranges {
		starts[int(r.Lo)] = true
		if r.Hi < 255 {
			starts[int(r.Hi)+1] = true
		}
	}
	keys := make([]int, 0, len(starts))
	for k := range starts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]header.ProtoMatch, 0, len(keys))
	for i, k := range keys {
		hi := 255
		if i+1 < len(keys) {
			hi = keys[i+1] - 1
		}
		out = append(out, header.ProtoMatch{Lo: uint8(k), Hi: uint8(hi)})
	}
	return out
}
