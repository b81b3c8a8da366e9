package netgen_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/topo"
)

func TestBuildDeterministic(t *testing.T) {
	a := netgen.Build(netgen.DefaultConfig(netgen.Small, 42))
	b := netgen.Build(netgen.DefaultConfig(netgen.Small, 42))
	ap := a.Net.AllPaths(a.Scope)
	bp := b.Net.AllPaths(b.Scope)
	if len(ap) != len(bp) {
		t.Fatalf("same seed produced different path counts: %d vs %d", len(ap), len(bp))
	}
	for i := range ap {
		if ap[i].String() != bp[i].String() {
			t.Fatalf("path %d differs: %v vs %v", i, ap[i], bp[i])
		}
	}
	c := netgen.Build(netgen.DefaultConfig(netgen.Small, 43))
	if len(c.Net.AllPaths(c.Scope)) == 0 {
		t.Fatal("different seed should still build a connected network")
	}
}

func TestLayerStructure(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 1))
	cfg := w.Config
	if len(w.CoreNames) != cfg.Cores || len(w.AggNames) != cfg.Aggs || len(w.EdgeNames) != cfg.Edges {
		t.Fatalf("layer widths wrong: %d/%d/%d", len(w.CoreNames), len(w.AggNames), len(w.EdgeNames))
	}
	if len(w.Net.Devices) != cfg.Cores+cfg.Aggs+cfg.Edges {
		t.Fatalf("device count = %d", len(w.Net.Devices))
	}
	for _, en := range w.EdgeNames {
		if len(w.EdgePrefixes[en]) != cfg.PrefixesPerEdge {
			t.Fatalf("edge %s announces %d prefixes", en, len(w.EdgePrefixes[en]))
		}
	}
	// ACLs on every layer.
	if len(w.EdgeACLs) != cfg.Edges || len(w.AggACLs) != cfg.Aggs || len(w.CoreACLs) != cfg.Cores {
		t.Fatalf("ACL counts: %d/%d/%d", len(w.EdgeACLs), len(w.AggACLs), len(w.CoreACLs))
	}
}

func TestRoutingReachability(t *testing.T) {
	// Every announced prefix must be reachable: some path forwards it to
	// its owner's ext interface, from both another edge and a core
	// uplink.
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 7))
	paths := w.Net.AllPaths(w.Scope)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	for _, en := range w.EdgeNames {
		for _, p := range w.EdgePrefixes[en] {
			fwd := topo.PathsForClass(paths, p)
			var fromEdge, fromCore bool
			for _, path := range fwd {
				if path.Dst().Device.Name != en {
					t.Fatalf("prefix %v of %s forwarded to %s via %v", p, en, path.Dst().ID(), path)
				}
				src := path.Src().Device.Name
				if src[0] == 'e' {
					fromEdge = true
				}
				if src[0] == 'c' {
					fromCore = true
				}
			}
			if !fromEdge || !fromCore {
				t.Errorf("prefix %v of %s: fromEdge=%v fromCore=%v (%d paths)",
					p, en, fromEdge, fromCore, len(fwd))
			}
		}
	}
	// External prefix must leave through core uplinks.
	ext := topo.PathsForClass(paths, w.External)
	if len(ext) == 0 {
		t.Fatal("external prefix unreachable")
	}
	for _, p := range ext {
		if p.Dst().Name != "up" {
			t.Errorf("external traffic should exit a core uplink, got %v", p)
		}
	}
}

func TestPerturb(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 3))
	same := w.Perturb(9, 0)
	changed := w.Perturb(9, 50)
	var origRules, sameRules, changedDiff int
	for _, d := range w.Net.SortedDevices() {
		cd := changed.Devices[d.Name]
		sd := same.Devices[d.Name]
		for _, iface := range d.SortedInterfaces() {
			a := iface.ACL(topo.In)
			if a == nil {
				continue
			}
			origRules += len(a.Rules)
			sameRules += len(sd.Interfaces[iface.Name].ACL(topo.In).Rules)
			ca := cd.Interfaces[iface.Name].ACL(topo.In)
			if ca.String() != a.String() {
				changedDiff++
			}
		}
	}
	if sameRules != origRules {
		t.Error("0% perturbation must not change anything")
	}
	if changedDiff == 0 {
		t.Error("50% perturbation should change some ACLs")
	}
	// Determinism.
	p1 := w.Perturb(11, 5)
	p2 := w.Perturb(11, 5)
	for _, d := range p1.SortedDevices() {
		for _, iface := range d.SortedInterfaces() {
			a1, a2 := iface.ACL(topo.In), p2.Devices[d.Name].Interfaces[iface.Name].ACL(topo.In)
			if (a1 == nil) != (a2 == nil) {
				t.Fatal("perturb nondeterministic")
			}
			if a1 != nil && a1.String() != a2.String() {
				t.Fatal("perturb nondeterministic")
			}
		}
	}
}

func TestOpenSelections(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 5))
	sel := w.OpenSelections(1, 2)
	if len(sel) != 2*len(w.EdgeNames) {
		t.Fatalf("selected %d prefixes, want %d", len(sel), 2*len(w.EdgeNames))
	}
	seen := map[header.Prefix]bool{}
	for _, p := range sel {
		if seen[p] {
			t.Errorf("duplicate selection %v", p)
		}
		seen[p] = true
	}
	// Capped at the announced count.
	all := w.OpenSelections(1, 1000)
	if len(all) != len(w.AllPrefixes()) {
		t.Errorf("over-selection should cap at announced prefixes")
	}
}

func TestBindings(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 5))
	bs, err := netgen.Bindings(w.Net, w.AggACLs)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		if b.Iface.ACL(b.Dir) == nil {
			t.Errorf("binding %s has no ACL", b.ID())
		}
	}
	if _, err := netgen.Bindings(w.Net, []string{"nope"}); err == nil {
		t.Error("malformed ID should fail")
	}
	if _, err := netgen.Bindings(w.Net, []string{"zzz:1:in"}); err == nil {
		t.Error("unknown device should fail")
	}
}

func TestScopeCoversAllDevices(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 5))
	for name := range w.Net.Devices {
		if !w.Scope.ContainsDevice(name) {
			t.Errorf("scope misses %s", name)
		}
	}
	borders := w.Net.BorderInterfaces(w.Scope)
	if len(borders) != w.Config.Edges+w.Config.Cores {
		t.Errorf("borders = %d, want ext+up = %d", len(borders), w.Config.Edges+w.Config.Cores)
	}
}

// TestBuildBytesDeterministic pins that a size and seed write the same
// network bytes every time: every device's FIB is filled in a fixed
// order, so two builds in one process (where map order differs from
// range to range) marshal identically.
func TestBuildBytesDeterministic(t *testing.T) {
	for _, size := range []netgen.Size{netgen.Small, netgen.Medium} {
		cfg := netgen.DefaultConfig(size, 42)
		a, err := json.Marshal(netgen.Build(cfg).Net)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			b, err := json.Marshal(netgen.Build(cfg).Net)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				k := 0
				for k < len(a) && k < len(b) && a[k] == b[k] {
					k++
				}
				t.Fatalf("%v seed 42: two builds differ from byte %d on", size, k)
			}
		}
	}
}
