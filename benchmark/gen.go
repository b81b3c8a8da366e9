package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/lai"
	"jinjing/internal/netgen"
	"jinjing/internal/topo"
)

//go:embed workloads.json
var workloadsJSON []byte

// grid is workloads.json: the fixed experiment grid. Nothing in it
// depends on the seed, and the seed changes nothing in it.
type grid struct {
	BaseSeed int64 `json:"base_seed"`
	Quick    struct {
		Size  string `json:"size"`
		RunMS int    `json:"run_ms"`
	} `json:"quick"`
	Limits struct {
		CLIOpS  int `json:"cli_op_s"`
		HTTPOpS int `json:"http_op_s"`
	} `json:"limits"`
	ValidationSamples int `json:"validation_samples"`
	SetupRepeats      struct {
		Min int `json:"min"`
		Max int `json:"max"`
	} `json:"setup_repeats"`
	MinOps            int        `json:"min_ops"`
	DaemonRSSAfterOps int        `json:"daemon_rss_after_ops"`
	Workloads         []workload `json:"workloads"`
}

// workload is one row of the grid.
type workload struct {
	Name          string         `json:"name"`
	Kind          string         `json:"kind"` // cli | daemon
	Why           string         `json:"why"`
	Size          string         `json:"size"`
	PerturbPct    float64        `json:"perturb_pct"`
	Source        string         `json:"source"`   // cli: "configs" (IOS *.cfg) or "topo" (JSON)
	Generate      string         `json:"generate"` // cli: "", "migration" or "open"
	OpenPerDevice int            `json:"open_per_device"`
	Commands      []string       `json:"commands"`
	Flags         []string       `json:"flags"`
	EditMix       map[string]int `json:"edit_mix"`
}

func loadGrid() (*grid, error) {
	var g grid
	if err := json.Unmarshal(workloadsJSON, &g); err != nil {
		return nil, fmt.Errorf("workloads.json: %v", err)
	}
	return &g, nil
}

func (g *grid) find(name string) *workload {
	for i := range g.Workloads {
		if g.Workloads[i].Name == name {
			return &g.Workloads[i]
		}
	}
	return nil
}

// relabel is the seed's view of the header space: an automorphism of
// the prefix lattice netgen draws from. It maps prefixes to prefixes
// and preserves containment, so a relabelled network poses the engine a
// problem of exactly the same shape with different bits everywhere —
// other FEC order, other witnesses, other solver variable patterns.
//
// The draws that decide how much work an input is (which rules an ACL
// has, which of them an update perturbs, which prefixes are opened) come
// from workloads.json's base_seed instead: across netgen seeds fix cost
// varies 5x and generate cost 2x (README, "Why the seed relabels"),
// which no regression bound the driver admits could absorb.
type relabel struct {
	net  uint32  // first octet replacing netgen's 10.0.0.0/8 pool
	edge []uint8 // permutation of the second octet (the edge index)
	src  uint32  // rotation of netgen's four 172.16-19.0.0/16 sources
}

func newRelabel(r *rand.Rand, edges int) relabel {
	rl := relabel{
		net:  uint32(11 + r.Intn(116)), // 11..126: never 8 (the backbone), 10, 127 or 172
		edge: make([]uint8, 256),
		src:  uint32(r.Intn(4)),
	}
	for i := range rl.edge {
		rl.edge[i] = uint8(i)
	}
	for i, j := range r.Perm(edges) {
		rl.edge[i] = uint8(j)
	}
	return rl
}

func (rl relabel) prefix(p header.Prefix) header.Prefix {
	switch first := p.Addr >> 24; {
	case first == 10 && p.Len >= 8:
		a := p.Addr&0x00ffffff | rl.net<<24
		if p.Len >= 16 {
			a = a&^0x00ff0000 | uint32(rl.edge[a>>16&0xff])<<16
		}
		return header.Prefix{Addr: a, Len: p.Len}
	case first == 172 && p.Len >= 16 && p.Addr>>18&0x3f == 16>>2:
		k := (p.Addr>>16&3 + rl.src) & 3
		return header.Prefix{Addr: p.Addr&^0x00030000 | k<<16, Len: p.Len}
	}
	return p
}

func (rl relabel) acl(a *acl.ACL) *acl.ACL {
	if a == nil {
		return nil
	}
	out := a.Clone()
	for i := range out.Rules {
		out.Rules[i].Match.Src = rl.prefix(out.Rules[i].Match.Src)
		out.Rules[i].Match.Dst = rl.prefix(out.Rules[i].Match.Dst)
	}
	return out
}

// network rebuilds n under the relabelling. Routes are re-installed in
// prefix order (ECMP order within a prefix kept), which also removes
// netgen's map-iteration order from the bytes written to disk.
func (rl relabel) network(n *topo.Network) *topo.Network {
	out := topo.NewNetwork()
	for _, d := range n.SortedDevices() {
		nd := out.Device(d.Name)
		for _, i := range d.SortedInterfaces() {
			ni := nd.Interface(i.Name)
			ni.SetACL(topo.In, rl.acl(i.ACL(topo.In)))
			ni.SetACL(topo.Out, rl.acl(i.ACL(topo.Out)))
		}
		fib := make([]topo.FIBEntry, len(d.FIB))
		for k, e := range d.FIB {
			fib[k] = topo.FIBEntry{Prefix: rl.prefix(e.Prefix), Out: e.Out}
		}
		sort.SliceStable(fib, func(a, b int) bool {
			if fib[a].Prefix.Addr != fib[b].Prefix.Addr {
				return fib[a].Prefix.Addr < fib[b].Prefix.Addr
			}
			return fib[a].Prefix.Len < fib[b].Prefix.Len
		})
		for _, e := range fib {
			nd.AddRoute(e.Prefix, nd.Interface(e.Out.Name))
		}
	}
	for _, d := range n.SortedDevices() {
		for _, i := range d.SortedInterfaces() {
			if peer := n.Peer(i); peer != nil {
				out.AddLink(out.Devices[d.Name].Interfaces[i.Name],
					out.Devices[peer.Device.Name].Interfaces[peer.Name])
			}
		}
	}
	return out
}

// edit is one operator edit of the daemon loop: prepend a deny rule to
// the ACL at a binding of the post-update snapshot.
type edit struct {
	binding string // device:interface (ingress)
	rule    acl.Rule
}

// inputs is everything one run of one workload feeds the program.
type inputs struct {
	wl     *workload
	before *topo.Network // relabelled pre-update network
	after  *topo.Network // relabelled post-update snapshot; nil when the program derives it (generate)
	prog   *lai.Program
	pool   []header.Prefix // relabelled announced prefixes
	edits  []edit          // daemon workloads: the seeded edit sequence, cycled

	netgenMS float64 // what netgen.Build took, part of set-up

	dir  string   // where the files were written
	args []string // jinjing argv (cli workloads)
}

func sizeOf(name string) (netgen.Size, error) {
	var s netgen.Size
	err := s.UnmarshalText([]byte(name))
	return s, err
}

// pats turns netgen binding IDs ("dev:if:in") into ingress patterns.
func pats(ids []string) []lai.IfPattern {
	out := make([]lai.IfPattern, 0, len(ids))
	for _, id := range ids {
		parts := strings.Split(id, ":")
		out = append(out, lai.IfPattern{Device: parts[0], Iface: parts[1], Dir: lai.InOnly})
	}
	return out
}

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// generate builds the inputs of workload wl for seed, in memory.
func (g *grid) generate(wl *workload, seed int64, quick bool) (*inputs, error) {
	sizeName := wl.Size
	if quick {
		sizeName = g.Quick.Size
	}
	size, err := sizeOf(sizeName)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	w := netgen.Build(netgen.DefaultConfig(size, g.BaseSeed))
	netgenMS := ms(time.Since(t0))
	r := rand.New(rand.NewSource(seed))
	rl := newRelabel(r, len(w.EdgeNames))
	in := &inputs{wl: wl, before: rl.network(w.Net), netgenMS: netgenMS}
	for _, p := range w.AllPrefixes() {
		in.pool = append(in.pool, rl.prefix(p))
	}

	prog := &lai.Program{}
	for _, names := range [][]string{w.CoreNames, w.AggNames, w.EdgeNames} {
		for _, n := range names {
			prog.Scope = append(prog.Scope, lai.IfPattern{Device: n, Iface: "*"})
		}
	}
	all := concat(w.EdgeACLs, w.AggACLs, w.CoreACLs)
	switch {
	case wl.Generate == "migration":
		prog.Allow = pats(w.EdgeACLs)
		prog.Modifies = []lai.Modify{{Targets: pats(w.AggACLs), Kind: lai.ToPermitAll}}
	case wl.Generate == "open":
		srcs := concat(w.CoreACLs, w.AggACLs)
		prog.Allow = pats(srcs)
		prog.Modifies = []lai.Modify{{Targets: pats(srcs), Kind: lai.ToPermitAll}}
		var from, to []lai.IfPattern
		for _, cn := range w.CoreNames {
			from = append(from, lai.IfPattern{Device: cn, Iface: "up"})
		}
		for _, en := range w.EdgeNames {
			to = append(to, lai.IfPattern{Device: en, Iface: "ext"})
		}
		for _, p := range w.OpenSelections(g.BaseSeed, wl.OpenPerDevice) {
			prog.Controls = append(prog.Controls, lai.Control{From: from, To: to, Mode: lai.Open, Match: header.DstMatch(rl.prefix(p))})
		}
	default:
		in.after = rl.network(w.Perturb(g.BaseSeed+int64(wl.PerturbPct*10), wl.PerturbPct))
		sites := all
		if wl.Kind != "cli" {
			// The daemon session must name every binding an edit may touch.
			for _, en := range w.EdgeNames {
				sites = append(sites, en+":u0:in")
			}
			in.edits = g.editSequence(wl, w, in.pool)
		}
		prog.Allow = pats(sites)
		prog.Modifies = []lai.Modify{{Targets: pats(sites), Kind: lai.FromUpdated}}
	}
	for _, c := range wl.Commands {
		switch c {
		case "check":
			prog.Commands = append(prog.Commands, lai.Check)
		case "fix":
			prog.Commands = append(prog.Commands, lai.Fix)
		case "generate":
			prog.Commands = append(prog.Commands, lai.Generate)
		}
	}
	if len(prog.Commands) == 0 {
		prog.Commands = []lai.Command{lai.Check} // daemon sessions ignore it; the parser wants one
	}
	in.prog = prog
	return in, nil
}

// editSequence draws the daemon loop's edits: sites rotate through the
// mix in its fixed proportion, and base_seed picks the device and the
// denied traffic of each — how many FECs an edit sends back to the
// solver depends on both, so they are part of the amount of work, not
// of the seed's relabelling. pool is already relabelled.
func (g *grid) editSequence(wl *workload, w *netgen.WAN, pool []header.Prefix) []edit {
	r := rand.New(rand.NewSource(g.BaseSeed))
	var rotation []string
	for _, site := range []string{"edge-uplink", "agg-downlink", "edge-ext"} {
		for k := 0; k < wl.EditMix[site]; k++ {
			rotation = append(rotation, site)
		}
	}
	ports := []uint16{22, 443, 8080}
	const cycle = 120 // edits before the sequence repeats; a multiple of the rotation's length
	edits := make([]edit, 0, cycle)
	for k := 0; k < cycle; k++ {
		var e edit
		switch rotation[k%len(rotation)] {
		case "edge-uplink":
			e.binding = w.EdgeNames[r.Intn(len(w.EdgeNames))] + ":u0"
		case "agg-downlink":
			e.binding = strings.TrimSuffix(w.AggACLs[r.Intn(len(w.AggACLs))], ":in")
		case "edge-ext":
			e.binding = strings.TrimSuffix(w.EdgeACLs[r.Intn(len(w.EdgeACLs))], ":in")
		}
		m := header.DstMatch(pool[r.Intn(len(pool))])
		p := ports[r.Intn(len(ports))]
		m.DstPort = header.PortRange{Lo: p, Hi: p}
		e.rule = acl.Rule{Action: acl.Deny, Match: m}
		edits = append(edits, e)
	}
	return edits
}

// apply performs the edit on snapshot n in place.
func (e edit) apply(n *topo.Network) error {
	iface, err := n.LookupInterface(e.binding)
	if err != nil {
		return err
	}
	a := iface.ACL(topo.In)
	if a == nil {
		a = acl.PermitAll()
	}
	a.Rules = append([]acl.Rule{e.rule}, a.Rules...)
	iface.SetACL(topo.In, a)
	return nil
}

// write puts a cli workload's files under dir and fills in.args. With
// source "configs" both snapshots go through the IOS rendering, and
// the rendering is checked against the network it came from.
func (in *inputs) write(dir string) error {
	in.dir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	progPath := filepath.Join(dir, "program.lai")
	if err := os.WriteFile(progPath, []byte(in.prog.Format()), 0o644); err != nil {
		return err
	}
	if in.wl.Source == "configs" {
		cfgDir := filepath.Join(dir, "cfg")
		linksPath := filepath.Join(dir, "links.json")
		parsed, err := writeIOS(in.before, cfgDir, linksPath)
		if err != nil {
			return err
		}
		if err := sameNetwork(in.before, parsed); err != nil {
			return fmt.Errorf("IOS rendering does not round-trip: %v", err)
		}
		in.before = parsed
		// The update plan comes out of the same config pipeline, so it
		// carries the same explicit catch-all rules as the parsed configs;
		// a JSON-native snapshot would differ from them in every ACL.
		if in.after, err = throughIOS(in.after); err != nil {
			return err
		}
		in.args = []string{"-configs", cfgDir, "-links", linksPath}
	} else {
		topoPath := filepath.Join(dir, "net.json")
		if err := writeNetwork(topoPath, in.before); err != nil {
			return err
		}
		in.args = []string{"-topo", topoPath}
	}
	if in.after != nil {
		afterPath := filepath.Join(dir, "after.json")
		if err := writeNetwork(afterPath, in.after); err != nil {
			return err
		}
		in.args = append(in.args, "-updated", afterPath)
	}
	in.args = append(in.args, "-program", progPath)
	in.args = append(in.args, in.wl.Flags...)
	return nil
}

func writeNetwork(path string, n *topo.Network) error {
	data, err := json.Marshal(n)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
