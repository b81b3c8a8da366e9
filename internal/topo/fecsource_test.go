package topo_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

// oraclePaths is the definition the forwarding index is checked against
// for P_Ω: the walk as it was before the index existed, pruning with the
// unrefined FIB atoms and asking LongestMatchClass at every step.
func oraclePaths(n *topo.Network, s *topo.Scope) []topo.Path {
	var out []topo.Path
	classes := n.EnteringTraffic(s)
	var extend func(in *topo.Interface, visited map[string]bool, hops []topo.Hop, alive []header.Prefix)
	extend = func(in *topo.Interface, visited map[string]bool, hops []topo.Hop, alive []header.Prefix) {
		dev := in.Device
		if visited[dev.Name] || len(hops) >= 12 {
			return
		}
		visited[dev.Name] = true
		defer delete(visited, dev.Name)
		for _, o := range dev.SortedInterfaces() {
			if o == in {
				continue
			}
			var next []header.Prefix
			for _, c := range alive {
				if slices.Contains(dev.LongestMatchClass(c), o) {
					next = append(next, c)
				}
			}
			if len(next) == 0 {
				continue
			}
			cur := append(append([]topo.Hop(nil), hops...), topo.Hop{In: in, Out: o})
			if peer := n.Peer(o); peer == nil || !s.ContainsDevice(peer.Device.Name) {
				out = append(out, topo.Path{Hops: cur})
			} else {
				extend(peer, visited, cur, next)
			}
		}
	}
	for _, entry := range n.BorderInterfaces(s) {
		if !s.AllowsEntry(entry.ID()) {
			continue
		}
		if up := n.Upstream(entry); up != nil && s.ContainsDevice(up.Device.Name) {
			continue
		}
		extend(entry, map[string]bool{}, nil, classes)
	}
	return out
}

// oracleFECs is the definition of Equation 2 the index is checked
// against: ask every (class, path) pair whether the path forwards the
// class, and group classes on the joined keys of their paths.
func oracleFECs(paths []topo.Path, classes []header.Prefix) []topo.FEC {
	groups := make(map[string]*topo.FEC)
	var order []string
	for _, c := range classes {
		fwd := topo.PathsForClass(paths, c)
		if len(fwd) == 0 {
			continue
		}
		keyParts := make([]string, len(fwd))
		for i, p := range fwd {
			keyParts[i] = p.Key()
		}
		key := strings.Join(keyParts, "|")
		g, ok := groups[key]
		if !ok {
			g = &topo.FEC{Paths: fwd}
			groups[key] = g
			order = append(order, key)
		}
		g.Classes = append(g.Classes, c)
	}
	out := make([]topo.FEC, 0, len(groups))
	for _, key := range order {
		out = append(out, *groups[key])
	}
	return out
}

// randomMesh builds a small arbitrary (not layered) network whose
// forwarding tables exercise what the index must get right: ECMP, the
// same FIB entry held twice, /9 splits under a /8, prefixes some devices
// have no route for, and routes pointing back into the mesh so a walk
// reaches a device again through another interface. The scope may leave
// a device out and may restrict the entry interfaces; extra holds
// control-style prefixes coarser than, finer than, and outside the FIB
// atoms.
func randomMesh(r *rand.Rand) (n *topo.Network, s *topo.Scope, extra []header.Prefix) {
	n = topo.NewNetwork()
	nDev := 3 + r.Intn(4)
	devs := make([]*topo.Device, nDev)
	for i := range devs {
		devs[i] = n.Device(fmt.Sprintf("R%d", i))
		for k := 0; k < 1+r.Intn(2); k++ {
			devs[i].Interface(fmt.Sprintf("x%d", k)) // dangling: a network edge
		}
	}
	for i := range devs {
		for j := i + 1; j < nDev; j++ {
			if r.Intn(3) == 0 {
				continue
			}
			a, b := devs[i].Interface(fmt.Sprintf("to%d", j)), devs[j].Interface(fmt.Sprintf("to%d", i))
			n.AddLink(a, b)
			n.AddLink(b, a)
		}
	}
	nPref := 3 + r.Intn(4)
	for _, d := range devs {
		ifaces := d.SortedInterfaces()
		pick := func() *topo.Interface { return ifaces[r.Intn(len(ifaces))] }
		for i := 0; i < nPref; i++ {
			p := header.Prefix{Addr: uint32(10+i) << 24, Len: 8}
			if r.Intn(5) == 0 {
				continue // no route for this prefix here
			}
			o := pick()
			d.AddRoute(p, o)
			switch r.Intn(4) {
			case 0:
				d.AddRoute(p, pick()) // ECMP, or by chance the same entry again
			case 1:
				d.AddRoute(p, o) // the same entry twice
			}
			if r.Intn(3) == 0 {
				half, _ := p.Halves()
				d.AddRoute(half, pick())
			}
		}
	}
	names := make([]string, 0, nDev)
	for i, d := range devs {
		if i > 0 && r.Intn(5) == 0 {
			continue // out of scope: links to it become border interfaces
		}
		names = append(names, d.Name)
	}
	s = topo.NewScope(names...)
	if r.Intn(2) == 0 {
		var entries []string
		for _, b := range n.BorderInterfaces(s) {
			if r.Intn(2) == 0 {
				entries = append(entries, b.ID())
			}
		}
		s.WithEntries(entries...)
	}
	extra = []header.Prefix{
		{Addr: 8 << 24, Len: 6},           // coarser: covers 8/8..11/8
		{Addr: 10<<24 | 64<<16, Len: 10},  // finer: inside 10.0.0.0/9
		{Addr: 11<<24 | 128<<16, Len: 12}, // finer: inside the unsplit half of 11/8
		{Addr: 200 << 24, Len: 8},         // no route anywhere
	}
	return n, s, extra[:r.Intn(len(extra)+1)]
}

// TestFECSourceMatchesComputeFECs pins the forwarding index — the one
// routing-DAG walk and both views that rebuild it from a path slice — to
// the definitional oracles above: the same paths in the same order, the
// same FECs in the same order with the same member classes and paths, on
// the paper network, generated WANs, and random meshes.
func TestFECSourceMatchesComputeFECs(t *testing.T) {
	type scene struct {
		name  string
		net   *topo.Network
		scope *topo.Scope
		extra []header.Prefix
	}
	scenes := []scene{
		{name: "papernet", net: papernet.Build(), scope: papernet.Scope()},
		{name: "papernet+control", net: papernet.Build(), scope: papernet.Scope(),
			extra: []header.Prefix{pfx("1.2.0.0/16"), pfx("0.0.0.0/5"), pfx("99.0.0.0/8")}},
	}
	sizes := []netgen.Size{netgen.Small, netgen.Medium, netgen.Large}
	if testing.Short() {
		sizes = sizes[:2] // the oracle is the classes × paths scan: seconds on large
	}
	for _, size := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			w := netgen.Build(netgen.DefaultConfig(size, seed))
			sc := scene{name: fmt.Sprintf("%v/%d", size, seed), net: w.Net, scope: w.Scope}
			if seed == 3 {
				sc.extra = []header.Prefix{w.External, {Addr: w.External.Addr, Len: w.External.Len + 2}}
			}
			scenes = append(scenes, sc)
			if idx := w.Net.ForwardingIndex(w.Scope, w.Net.EnteringTraffic(w.Scope)); idx.Truncated() != 0 {
				t.Errorf("%s: %d walks truncated on a generated WAN", sc.name, idx.Truncated())
			}
		}
	}
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		n, s, extra := randomMesh(r)
		scenes = append(scenes, scene{fmt.Sprintf("mesh/%d", i), n, s, extra})
	}
	for _, sc := range scenes {
		classes := sc.net.EnteringTraffic(sc.scope, sc.extra...)
		wantPaths := oraclePaths(sc.net, sc.scope)
		want := oracleFECs(wantPaths, classes)

		idx := sc.net.ForwardingIndex(sc.scope, classes)
		samePaths(t, sc.name+": ForwardingIndex", idx.Paths(), wantPaths)
		samePaths(t, sc.name+": AllPaths", sc.net.AllPaths(sc.scope), wantPaths)
		sameFECs(t, sc.name+": ForwardingIndex", idx, want)
		sameFECs(t, sc.name+": NewFECSource", topo.NewFECSource(wantPaths, classes), want)
		sameFEC := func(a, b topo.FEC) bool { return reflect.DeepEqual(a, b) }
		if !slices.EqualFunc(topo.ComputeFECs(wantPaths, classes), want, sameFEC) {
			t.Fatalf("%s: ComputeFECs differs from the oracle", sc.name)
		}
		// FECOf finds a class, and anything inside it, in its FEC.
		for i, f := range want {
			for _, c := range f.Classes {
				sub := c
				if sub.Len < 32 {
					_, sub = c.Halves()
				}
				if idx.FECOf(c) != i || idx.FECOf(sub) != i {
					t.Fatalf("%s: FECOf(%v) = %d, FECOf(%v) = %d, want %d", sc.name, c, idx.FECOf(c), sub, idx.FECOf(sub), i)
				}
			}
		}
		for _, c := range classes {
			if len(topo.PathsForClass(wantPaths, c)) == 0 && idx.FECOf(c) != -1 {
				t.Fatalf("%s: FECOf(%v) = %d for a class no path forwards", sc.name, c, idx.FECOf(c))
			}
		}
		if idx.FECOf(pfx("250.0.0.0/8")) != -1 {
			t.Fatalf("%s: FECOf found a FEC for a prefix in no class", sc.name)
		}
	}
}

func samePaths(t *testing.T, what string, got, want []topo.Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s: path %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func sameFECs(t *testing.T, what string, src *topo.FECSource, want []topo.FEC) {
	t.Helper()
	if src.NumFECs() != len(want) {
		t.Fatalf("%s: NumFECs = %d, want %d", what, src.NumFECs(), len(want))
	}
	for i := range want {
		got := src.Materialize(i)
		if !reflect.DeepEqual(got.Classes, want[i].Classes) {
			t.Fatalf("%s: FEC %d classes = %v, want %v", what, i, got.Classes, want[i].Classes)
		}
		samePaths(t, fmt.Sprintf("%s: FEC %d", what, i), got.Paths, want[i].Paths)
		if len(src.PathIndices(i)) != len(want[i].Paths) {
			t.Fatalf("%s: FEC %d PathIndices = %d, want %d", what, i, len(src.PathIndices(i)), len(want[i].Paths))
		}
	}
}

// TestPathsTruncatedCounted walks a 14-device chain: the route is longer
// than maxPathDevices, so it is missing from the path set — and the
// index must say so instead of dropping it silently.
func TestPathsTruncatedCounted(t *testing.T) {
	build := func(nDev int) (*topo.Network, *topo.Scope) {
		n := topo.NewNetwork()
		names := make([]string, nDev)
		for i := range names {
			names[i] = fmt.Sprintf("C%02d", i)
			d := n.Device(names[i])
			up := d.Interface("up")
			d.AddRoute(pfx("10.0.0.0/8"), d.Interface("down"))
			if i > 0 {
				n.AddLink(n.Device(names[i-1]).Interface("down"), up)
			}
		}
		return n, topo.NewScope(names...).WithEntries(names[0] + ":up")
	}
	n, s := build(12)
	idx := n.ForwardingIndex(s, n.EnteringTraffic(s))
	if len(idx.Paths()) != 1 || idx.Truncated() != 0 {
		t.Fatalf("12-device chain: %d paths, %d truncated, want 1 and 0", len(idx.Paths()), idx.Truncated())
	}
	n, s = build(14)
	idx = n.ForwardingIndex(s, n.EnteringTraffic(s))
	if len(idx.Paths()) != 0 || idx.Truncated() != 1 {
		t.Fatalf("14-device chain: %d paths, %d truncated, want 0 and 1", len(idx.Paths()), idx.Truncated())
	}
}

func TestFECSourceEmpty(t *testing.T) {
	src := topo.NewFECSource(nil, nil)
	if src.NumFECs() != 0 {
		t.Fatalf("NumFECs = %d", src.NumFECs())
	}
	if got := src.All(); len(got) != 0 {
		t.Fatalf("All on empty source = %+v", got)
	}
}
