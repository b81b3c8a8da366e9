// Package netgen generates synthetic wide-area networks standing in for
// the Alibaba WAN sub-networks of the paper's evaluation (§8): layered
// core/aggregation/edge topologies at three scales (the paper's 8%, 30%,
// and 80% cuts), per-edge prefix announcements, destination-based
// forwarding with bounded ECMP, and multi-layer ACLs drawn from the
// announced prefix pool. Everything is seeded and deterministic.
//
// The generator also provides the evaluation's workload operators: rule
// perturbation (Figure 4a/4b), middle-to-lower-layer migration targets
// (Figure 4c), and per-device prefix selections for control-open intents
// (Figure 4d).
package netgen

import (
	"fmt"
	"math/rand"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// Size selects one of the three evaluation scales.
type Size int

// The three network scales of §8 ("8%, 30%, and 80% of our WAN"), plus
// two extrapolated tiers (XLarge, Huge) past the paper's largest cut,
// continuing the topology progression at Large's rule density (577 and
// 961 FECs) for workloads at sizes where operations still take seconds.
const (
	Small Size = iota
	Medium
	Large
	XLarge
	Huge
)

// String renders the scale name.
func (s Size) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case XLarge:
		return "xlarge"
	case Huge:
		return "huge"
	default:
		return "large"
	}
}

// MarshalText serializes the scale by name, so JSON reports read
// "small"/"medium"/"large" rather than bare iota values.
func (s Size) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a scale name.
func (s *Size) UnmarshalText(text []byte) error {
	switch string(text) {
	case "small":
		*s = Small
	case "medium":
		*s = Medium
	case "large":
		*s = Large
	case "xlarge":
		*s = XLarge
	case "huge":
		*s = Huge
	default:
		return fmt.Errorf("netgen: unknown size %q", text)
	}
	return nil
}

// Config parameterizes the generator.
type Config struct {
	Size Size
	Seed int64

	Cores, Aggs, Edges int // layer widths
	AggsPerEdge        int // upstream aggs per edge device
	ECMPCores          int // cores each agg spreads over per prefix
	PrefixesPerEdge    int // /24s announced by each edge device
	RulesPerEdgeACL    int
	RulesPerAggACL     int
	RulesPerCoreACL    int
}

// DefaultConfig returns the calibrated parameters for a scale. Widths
// grow roughly 1 : 2.5 : 6 across the paper's 8% / 30% / 80% cuts;
// xlarge and huge continue the progression (~2× and ~3.3× large's edge
// count) with large's per-ACL rule density, so their cost growth is
// purely topological.
func DefaultConfig(size Size, seed int64) Config {
	c := Config{Size: size, Seed: seed, AggsPerEdge: 2, ECMPCores: 2}
	switch size {
	case Small:
		c.Cores, c.Aggs, c.Edges = 2, 4, 8
		c.PrefixesPerEdge = 4
		c.RulesPerEdgeACL, c.RulesPerAggACL, c.RulesPerCoreACL = 10, 14, 18
	case Medium:
		c.Cores, c.Aggs, c.Edges = 3, 8, 20
		c.PrefixesPerEdge = 5
		c.RulesPerEdgeACL, c.RulesPerAggACL, c.RulesPerCoreACL = 14, 24, 32
	case Large:
		c.Cores, c.Aggs, c.Edges = 4, 12, 48
		c.PrefixesPerEdge = 6
		c.RulesPerEdgeACL, c.RulesPerAggACL, c.RulesPerCoreACL = 18, 32, 48
	case XLarge:
		c.Cores, c.Aggs, c.Edges = 6, 16, 96
		c.PrefixesPerEdge = 6
		c.RulesPerEdgeACL, c.RulesPerAggACL, c.RulesPerCoreACL = 18, 32, 48
	case Huge:
		c.Cores, c.Aggs, c.Edges = 8, 24, 160
		c.PrefixesPerEdge = 6
		c.RulesPerEdgeACL, c.RulesPerAggACL, c.RulesPerCoreACL = 18, 32, 48
	}
	return c
}

// WAN is a generated network plus the metadata the workloads need.
type WAN struct {
	Config Config
	Net    *topo.Network
	Scope  *topo.Scope

	CoreNames, AggNames, EdgeNames []string
	// EdgePrefixes maps each edge device to the prefixes it announces.
	EdgePrefixes map[string][]header.Prefix
	// External is the prefix reachable through the core uplinks.
	External header.Prefix
	// ACLBindingIDs lists every generated ACL attachment per layer, as
	// "device:interface:dir" IDs.
	EdgeACLs, AggACLs, CoreACLs []string
}

// AllPrefixes returns every announced edge prefix, in device order.
func (w *WAN) AllPrefixes() []header.Prefix {
	var out []header.Prefix
	for _, e := range w.EdgeNames {
		out = append(out, w.EdgePrefixes[e]...)
	}
	return out
}

// Build generates the WAN.
//
// Topology: every edge connects to AggsPerEdge aggregation devices;
// every agg connects to every core. Cores carry an "up" uplink (border)
// to the external backbone; edges carry an "ext" interface (border) to
// the customer side. Each edge announces PrefixesPerEdge /24s under
// 10.<edge>/16; the backbone announces External (8.0.0.0/8).
//
// Forwarding: toward an edge prefix, edges send up (except the owner),
// aggs send down when the owner is attached, otherwise up across
// ECMPCores cores chosen per prefix; cores send down to the owner's
// aggs. Toward External, everything points up (cores to their uplink).
//
// ACLs (all ingress): edge "ext" interfaces filter traffic entering from
// customers; agg downlink interfaces filter traffic from edges; core
// "up" interfaces filter traffic entering from the backbone. Rules are
// permit/deny mixes over the announced pool with occasional source and
// destination-port constraints, ending in permit-all.
func Build(cfg Config) *WAN {
	r := rand.New(rand.NewSource(cfg.Seed))
	w := &WAN{
		Config:       cfg,
		Net:          topo.NewNetwork(),
		EdgePrefixes: map[string][]header.Prefix{},
		External:     header.MustParsePrefix("8.0.0.0/8"),
	}
	n := w.Net

	for i := 0; i < cfg.Cores; i++ {
		w.CoreNames = append(w.CoreNames, fmt.Sprintf("core%d", i))
	}
	for i := 0; i < cfg.Aggs; i++ {
		w.AggNames = append(w.AggNames, fmt.Sprintf("agg%d", i))
	}
	for i := 0; i < cfg.Edges; i++ {
		w.EdgeNames = append(w.EdgeNames, fmt.Sprintf("edge%d", i))
	}

	// Interfaces and links.
	for _, cn := range w.CoreNames {
		n.Device(cn).Interface("up")
	}
	for ai, an := range w.AggNames {
		agg := n.Device(an)
		for ci, cn := range w.CoreNames {
			core := n.Device(cn)
			aU := agg.Interface(fmt.Sprintf("u%d", ci))
			cD := core.Interface(fmt.Sprintf("d%d", ai))
			n.AddLink(aU, cD)
			n.AddLink(cD, aU)
		}
	}
	edgeAggs := map[string][]string{}
	for ei, en := range w.EdgeNames {
		edge := n.Device(en)
		edge.Interface("ext")
		for k := 0; k < cfg.AggsPerEdge; k++ {
			ai := (ei*cfg.AggsPerEdge + k) % cfg.Aggs
			an := w.AggNames[ai]
			agg := n.Device(an)
			eU := edge.Interface(fmt.Sprintf("u%d", k))
			aD := agg.Interface(fmt.Sprintf("d%d", ei))
			n.AddLink(eU, aD)
			n.AddLink(aD, eU)
			edgeAggs[en] = append(edgeAggs[en], an)
		}
	}

	// Prefix announcements: 10.<ei>.<j>.0/24.
	for ei, en := range w.EdgeNames {
		for j := 0; j < cfg.PrefixesPerEdge; j++ {
			p := header.Prefix{Addr: 10<<24 | uint32(ei)<<16 | uint32(j)<<8, Len: 24}
			w.EdgePrefixes[en] = append(w.EdgePrefixes[en], p)
		}
	}

	w.buildRoutes(r, edgeAggs)
	w.buildACLs(r)

	w.Scope = topo.NewScope(append(append(append([]string{}, w.CoreNames...), w.AggNames...), w.EdgeNames...)...)
	return w
}

func (w *WAN) buildRoutes(r *rand.Rand, edgeAggs map[string][]string) {
	cfg := w.Config
	n := w.Net

	// Owner lookup: prefix -> owning edge. Routes go in in AllPrefixes
	// order, so a size and seed build the same FIBs in every process.
	owner := map[header.Prefix]string{}
	for en, ps := range w.EdgePrefixes {
		for _, p := range ps {
			owner[p] = en
		}
	}
	prefixes := w.AllPrefixes()
	// Per-prefix ECMP core subset (stable per prefix).
	coreSubset := func(p header.Prefix) []int {
		k := cfg.ECMPCores
		if k > cfg.Cores {
			k = cfg.Cores
		}
		start := int(p.Addr>>8) % cfg.Cores
		out := make([]int, 0, k)
		for i := 0; i < k; i++ {
			out = append(out, (start+i)%cfg.Cores)
		}
		return out
	}

	aggIdx := map[string]int{}
	for i, an := range w.AggNames {
		aggIdx[an] = i
	}
	attachedEdges := map[string][]string{} // agg -> edges below it
	for _, en := range w.EdgeNames {
		for _, an := range edgeAggs[en] {
			attachedEdges[an] = append(attachedEdges[an], en)
		}
	}

	for _, en := range w.EdgeNames {
		edge := n.Devices[en]
		for _, p := range prefixes {
			if owner[p] == en {
				edge.AddRoute(p, edge.Interfaces["ext"])
				continue
			}
			// Send up through one of the attached aggs (pick per prefix).
			ups := edgeAggs[en]
			k := int(p.Addr>>8) % len(ups)
			edge.AddRoute(p, edge.Interfaces[fmt.Sprintf("u%d", (k)%cfg.AggsPerEdge)])
		}
		edge.AddRoute(w.External, edge.Interfaces[fmt.Sprintf("u%d", r.Intn(cfg.AggsPerEdge))])
	}

	for _, an := range w.AggNames {
		agg := n.Devices[an]
		below := map[string]bool{}
		for _, en := range attachedEdges[an] {
			below[en] = true
		}
		for _, p := range prefixes {
			if below[owner[p]] {
				// Down to the owning edge (one link per agg and edge).
				for _, iface := range agg.Interfaces {
					peer := n.Peer(iface)
					if peer != nil && peer.Device.Name == owner[p] {
						agg.AddRoute(p, iface)
					}
				}
				continue
			}
			for _, ci := range coreSubset(p) {
				agg.AddRoute(p, agg.Interfaces[fmt.Sprintf("u%d", ci)])
			}
		}
		agg.AddRoute(w.External, agg.Interfaces[fmt.Sprintf("u%d", r.Intn(cfg.Cores))])
	}

	for _, cn := range w.CoreNames {
		core := n.Devices[cn]
		for _, p := range prefixes {
			// Down to the owner's aggs.
			for _, an := range edgeAggs[owner[p]] {
				core.AddRoute(p, core.Interfaces[fmt.Sprintf("d%d", aggIdx[an])])
			}
		}
		core.AddRoute(w.External, core.Interfaces["up"])
	}
}

// srcPool is the small set of source prefixes rules draw from (management
// and office networks — matching production practice, where source
// constraints name a handful of privileged networks rather than arbitrary
// prefixes). Keeping this pool small also keeps the generate primitive's
// class space polynomial, the property the paper reports for its WAN
// ("the growth rate of AECs we experienced is at most polynomial").
var srcPool = []header.Prefix{
	header.MustParsePrefix("172.16.0.0/16"),
	header.MustParsePrefix("172.17.0.0/16"),
	header.MustParsePrefix("172.18.0.0/16"),
	header.MustParsePrefix("172.19.0.0/16"),
}

// servicePorts is the destination-port vocabulary of generated rules.
var servicePorts = []uint16{22, 443, 8080}

// randomRule draws a permit/deny rule over the announced pool; roughly a
// fifth carry a source constraint and an eighth a destination port.
func (w *WAN) randomRule(r *rand.Rand, pool []header.Prefix) acl.Rule {
	m := header.MatchAll
	dst := pool[r.Intn(len(pool))]
	if r.Intn(4) == 0 {
		dst = header.Prefix{Addr: dst.Addr, Len: 16}.Canonical() // aggregate
	}
	m.Dst = dst
	if r.Intn(5) == 0 {
		m.Src = srcPool[r.Intn(len(srcPool))]
	}
	if r.Intn(8) == 0 {
		lo := servicePorts[r.Intn(len(servicePorts))]
		m.DstPort = header.PortRange{Lo: lo, Hi: lo}
	}
	return acl.Rule{Action: acl.Action(r.Intn(3) > 0), Match: m}
}

func (w *WAN) makeACL(r *rand.Rand, pool []header.Prefix, rules int) *acl.ACL {
	a := &acl.ACL{Default: acl.Permit}
	for i := 0; i < rules; i++ {
		a.Rules = append(a.Rules, w.randomRule(r, pool))
	}
	return a
}

func (w *WAN) buildACLs(r *rand.Rand) {
	cfg := w.Config
	n := w.Net
	pool := w.AllPrefixes()

	for _, en := range w.EdgeNames {
		iface := n.Devices[en].Interfaces["ext"]
		iface.SetACL(topo.In, w.makeACL(r, pool, cfg.RulesPerEdgeACL))
		w.EdgeACLs = append(w.EdgeACLs, en+":ext:in")
	}
	for _, an := range w.AggNames {
		agg := n.Devices[an]
		// One downlink ACL per agg (the middle layer the migration moves).
		for _, iface := range agg.SortedInterfaces() {
			if len(iface.Name) > 0 && iface.Name[0] == 'd' {
				iface.SetACL(topo.In, w.makeACL(r, pool, cfg.RulesPerAggACL))
				w.AggACLs = append(w.AggACLs, an+":"+iface.Name+":in")
				break
			}
		}
	}
	for _, cn := range w.CoreNames {
		iface := n.Devices[cn].Interfaces["up"]
		iface.SetACL(topo.In, w.makeACL(r, pool, cfg.RulesPerCoreACL))
		w.CoreACLs = append(w.CoreACLs, cn+":up:in")
	}
}

// Perturb clones the network and randomly rewrites the given percentage
// of rules in every ACL (flip, delete, or replace) — the update-plan
// generator of Figures 4a and 4b. A percent of 0 still clones.
func (w *WAN) Perturb(seed int64, percent float64) *topo.Network {
	r := rand.New(rand.NewSource(seed))
	out := w.Net.Clone()
	pool := w.AllPrefixes()
	for _, d := range out.SortedDevices() {
		for _, iface := range d.SortedInterfaces() {
			for _, dir := range []topo.Direction{topo.In, topo.Out} {
				a := iface.ACL(dir)
				if a == nil {
					continue
				}
				for i := 0; i < len(a.Rules); i++ {
					if r.Float64()*100 >= percent {
						continue
					}
					switch r.Intn(3) {
					case 0: // flip action
						a.Rules[i].Action = !a.Rules[i].Action
					case 1: // delete
						a.Rules = append(a.Rules[:i], a.Rules[i+1:]...)
						i--
					case 2: // replace with a fresh rule
						a.Rules[i] = w.randomRule(r, pool)
					}
				}
			}
		}
	}
	return out
}

// Bindings resolves binding IDs against a network snapshot.
func Bindings(n *topo.Network, ids []string) ([]topo.ACLBinding, error) {
	out := make([]topo.ACLBinding, 0, len(ids))
	for _, id := range ids {
		b, err := lookup(n, id)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func lookup(n *topo.Network, id string) (topo.ACLBinding, error) {
	for _, dir := range []topo.Direction{topo.In, topo.Out} {
		if base, ok := strings.CutSuffix(id, ":"+dir.String()); ok && base != "" {
			iface, err := n.LookupInterface(base)
			return topo.ACLBinding{Iface: iface, Dir: dir}, err
		}
	}
	return topo.ACLBinding{}, fmt.Errorf("netgen: malformed binding ID %q", id)
}

// OpenSelections picks k announced prefixes per edge device for the
// Figure 4d control-open workload, deterministically per seed.
func (w *WAN) OpenSelections(seed int64, perDevice int) []header.Prefix {
	r := rand.New(rand.NewSource(seed))
	var out []header.Prefix
	for _, en := range w.EdgeNames {
		ps := w.EdgePrefixes[en]
		k := perDevice
		if k > len(ps) {
			k = len(ps)
		}
		perm := r.Perm(len(ps))
		for i := 0; i < k; i++ {
			out = append(out, ps[perm[i]])
		}
	}
	return out
}
