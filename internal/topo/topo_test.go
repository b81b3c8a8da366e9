package topo_test

import (
	"sort"
	"strings"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

func pfx(s string) header.Prefix { return header.MustParsePrefix(s) }

func TestDeviceInterfaceCreation(t *testing.T) {
	n := topo.NewNetwork()
	d := n.Device("A")
	if n.Device("A") != d {
		t.Fatal("Device should be idempotent")
	}
	i := d.Interface("1")
	if d.Interface("1") != i {
		t.Fatal("Interface should be idempotent")
	}
	if i.ID() != "A:1" {
		t.Fatalf("ID = %q", i.ID())
	}
}

func TestLookupInterface(t *testing.T) {
	n := papernet.Build()
	i, err := n.LookupInterface("A:1")
	if err != nil || i.Name != "1" || i.Device.Name != "A" {
		t.Fatalf("lookup: %v %v", i, err)
	}
	for _, bad := range []string{"A", "Z:1", "A:9"} {
		if _, err := n.LookupInterface(bad); err == nil {
			t.Errorf("LookupInterface(%q) should fail", bad)
		}
	}
}

func TestLongestMatch(t *testing.T) {
	n := topo.NewNetwork()
	d := n.Device("R")
	i1, i2 := d.Interface("1"), d.Interface("2")
	d.AddRoute(pfx("1.0.0.0/8"), i1)
	d.AddRoute(pfx("1.2.0.0/16"), i2)
	if got := d.LongestMatch(0x01020304); len(got) != 1 || got[0] != i2 {
		t.Fatalf("LPM should prefer /16: %v", got)
	}
	if got := d.LongestMatch(0x01990304); len(got) != 1 || got[0] != i1 {
		t.Fatalf("LPM should fall back to /8: %v", got)
	}
	if got := d.LongestMatch(0x09000000); got != nil {
		t.Fatalf("no route should yield nil: %v", got)
	}
	// ECMP.
	d.AddRoute(pfx("1.2.0.0/16"), i1)
	if got := d.LongestMatch(0x01020304); len(got) != 2 {
		t.Fatalf("ECMP should yield both: %v", got)
	}
}

func TestLongestMatchClassAtomicity(t *testing.T) {
	n := topo.NewNetwork()
	d := n.Device("R")
	i1 := d.Interface("1")
	d.AddRoute(pfx("1.2.0.0/16"), i1)
	defer func() {
		if recover() == nil {
			t.Fatal("non-atomic class must panic")
		}
	}()
	d.LongestMatchClass(pfx("1.0.0.0/8")) // strictly contains the /16
}

func TestBorderInterfaces(t *testing.T) {
	n := papernet.Build()
	s := papernet.Scope()
	borders := n.BorderInterfaces(s)
	var ids []string
	for _, b := range borders {
		ids = append(ids, b.ID())
	}
	sort.Strings(ids)
	want := []string{"A:1", "C:3", "D:3"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Fatalf("borders = %v, want %v", ids, want)
	}
}

func TestBorderWithPartialScope(t *testing.T) {
	n := papernet.Build()
	s := topo.NewScope("A", "B") // C and D outside
	borders := n.BorderInterfaces(s)
	var ids []string
	for _, b := range borders {
		ids = append(ids, b.ID())
	}
	sort.Strings(ids)
	// A1 (edge), A3 (links to C, out of scope), A4 (links to D), B2 (links to C).
	want := "A:1,A:3,A:4,B:2"
	if strings.Join(ids, ",") != want {
		t.Fatalf("borders = %v, want %v", ids, want)
	}
}

func TestAllPathsFigure1(t *testing.T) {
	n := papernet.Build()
	paths := n.AllPaths(papernet.Scope())
	got := map[string]bool{}
	for _, p := range paths {
		got[p.String()] = true
		if err := p.Validate(n); err != nil {
			t.Errorf("invalid path %v: %v", p, err)
		}
	}
	// The routing-DAG path set: <A:1, A:2, B:1, B:2, C:2, C:3> is pruned
	// because no entering class is forwarded along it (C routes nothing
	// arriving at C:2 out of C:3).
	want := []string{
		"<A:1, A:4, D:1, D:3>",
		"<A:1, A:3, C:1, C:4, D:2, D:3>",
		"<A:1, A:2, B:1, B:2, C:2, C:4, D:2, D:3>",
		"<A:1, A:3, C:1, C:3>",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d paths %v, want %d", len(got), got, len(want))
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing path %s", w)
		}
	}
}

func TestPathSrcDstAndPermits(t *testing.T) {
	n := papernet.Build()
	paths := n.AllPaths(papernet.Scope())
	for _, p := range paths {
		if p.Src().ID() != "A:1" {
			t.Errorf("path %v should start at A:1", p)
		}
		if d := p.Dst().ID(); d != "C:3" && d != "D:3" {
			t.Errorf("path %v should end at a border", p)
		}
	}
	// c_{p0} on traffic 6 is false (A1 denies 6/8), true on traffic 3.
	var p0 topo.Path
	for _, p := range paths {
		if p.String() == "<A:1, A:4, D:1, D:3>" {
			p0 = p
		}
	}
	pkt6 := header.Packet{DstIP: 6 << 24}
	pkt3 := header.Packet{DstIP: 3 << 24}
	if p0.Permits(pkt6) {
		t.Error("A1 should deny traffic 6 on p0")
	}
	if !p0.Permits(pkt3) {
		t.Error("traffic 3 should pass p0")
	}
	// c_{p1} on traffic 1 is false (D2 denies 1/8).
	for _, p := range paths {
		if p.String() == "<A:1, A:3, C:1, C:4, D:2, D:3>" {
			if p.Permits(header.Packet{DstIP: 1 << 24}) {
				t.Error("D2 should deny traffic 1 on p1")
			}
		}
	}
}

func TestForwardsClass(t *testing.T) {
	n := papernet.Build()
	paths := n.AllPaths(papernet.Scope())
	byStr := map[string]topo.Path{}
	for _, p := range paths {
		byStr[p.String()] = p
	}
	p0 := byStr["<A:1, A:4, D:1, D:3>"]
	p1 := byStr["<A:1, A:3, C:1, C:4, D:2, D:3>"]
	p2 := byStr["<A:1, A:2, B:1, B:2, C:2, C:4, D:2, D:3>"]
	cases := []struct {
		class int
		path  topo.Path
		want  bool
	}{
		{1, p0, true}, {1, p1, false}, {1, p2, false},
		{2, p0, true}, {2, p1, false}, {2, p2, true},
		{3, p2, true},
		{4, p0, true}, {4, p1, true}, {4, p2, false},
		{5, p2, true}, {5, p0, false},
		{7, p1, false},
	}
	for _, c := range cases {
		if got := c.path.ForwardsClass(papernet.Traffic(c.class)); got != c.want {
			t.Errorf("ForwardsClass(traffic %d, %v) = %v, want %v", c.class, c.path, got, c.want)
		}
	}
}

func TestComputeFECsFigure1(t *testing.T) {
	// The paper's §4.1: five FECs, [1]={1}, [2]={2,3}, [4]={4},
	// [5]={5,6}, [7]={7}.
	n := papernet.Build()
	s := papernet.Scope()
	paths := n.AllPaths(s)
	classes := make([]header.Prefix, 0, 7)
	for i := 1; i <= 7; i++ {
		classes = append(classes, papernet.Traffic(i))
	}
	fecs := topo.ComputeFECs(paths, classes)
	if len(fecs) != 5 {
		for _, f := range fecs {
			t.Logf("FEC %v paths %d", f.Classes, len(f.Paths))
		}
		t.Fatalf("got %d FECs, want 5", len(fecs))
	}
	groups := map[string]string{}
	for _, f := range fecs {
		var members []string
		for _, c := range f.Classes {
			members = append(members, c.String())
		}
		groups[f.Classes[0].String()] = strings.Join(members, ",")
	}
	want := map[string]string{
		"1.0.0.0/8": "1.0.0.0/8",
		"2.0.0.0/8": "2.0.0.0/8,3.0.0.0/8",
		"4.0.0.0/8": "4.0.0.0/8",
		"5.0.0.0/8": "5.0.0.0/8,6.0.0.0/8",
		"7.0.0.0/8": "7.0.0.0/8",
	}
	for rep, members := range want {
		if groups[rep] != members {
			t.Errorf("FEC[%s] = %q, want %q (all: %v)", rep, groups[rep], members, groups)
		}
	}
}

func TestEnteringTraffic(t *testing.T) {
	n := papernet.Build()
	s := papernet.Scope()
	classes := n.EnteringTraffic(s)
	if len(classes) != 7 {
		t.Fatalf("entering traffic = %v, want the 7 /8s", classes)
	}
	// With an extra /16 inside traffic 1, atomization splits the /8.
	classes = n.EnteringTraffic(s, pfx("1.2.0.0/16"))
	found16 := false
	for _, c := range classes {
		if c == pfx("1.2.0.0/16") {
			found16 = true
		}
		if c.Contains(pfx("1.2.0.0/16")) && c != pfx("1.2.0.0/16") {
			t.Errorf("class %v not atomic wrt 1.2.0.0/16", c)
		}
	}
	if !found16 {
		t.Error("1.2.0.0/16 should be its own class")
	}
}

func TestAtomizeClasses(t *testing.T) {
	classes := []header.Prefix{pfx("1.0.0.0/8")}
	cuts := []header.Prefix{pfx("1.2.0.0/16"), pfx("1.0.0.0/8")}
	atoms := topo.AtomizeClasses(classes, cuts)
	// Every atom must be inside 1.0.0.0/8, atomic wrt 1.2.0.0/16, and the
	// union must cover the /8 exactly.
	var total uint64
	for _, a := range atoms {
		if !pfx("1.0.0.0/8").Contains(a) {
			t.Errorf("atom %v outside class", a)
		}
		if a.Overlaps(pfx("1.2.0.0/16")) && !pfx("1.2.0.0/16").Contains(a) {
			t.Errorf("atom %v straddles the cut", a)
		}
		total += a.Size()
	}
	if total != pfx("1.0.0.0/8").Size() {
		t.Errorf("atoms cover %d addresses, want %d", total, pfx("1.0.0.0/8").Size())
	}
	// Disjointness.
	for i := range atoms {
		for j := i + 1; j < len(atoms); j++ {
			if atoms[i].Overlaps(atoms[j]) {
				t.Errorf("atoms %v and %v overlap", atoms[i], atoms[j])
			}
		}
	}
}

func TestAtomizeNoCuts(t *testing.T) {
	classes := []header.Prefix{pfx("1.0.0.0/8"), pfx("2.0.0.0/8"), pfx("1.0.0.0/8")}
	atoms := topo.AtomizeClasses(classes, nil)
	if len(atoms) != 2 {
		t.Fatalf("atoms = %v, want dedup to 2", atoms)
	}
}

func TestCloneIndependence(t *testing.T) {
	n := papernet.Build()
	c := n.Clone()
	// Mutating the clone's ACL must not affect the original.
	ci, _ := c.LookupInterface("D:2")
	ci.SetACL(topo.In, acl.PermitAll())
	oi, _ := n.LookupInterface("D:2")
	if oi.ACL(topo.In).IsPermitAll() {
		t.Fatal("clone shares ACLs with original")
	}
	// Structure preserved: same paths.
	p1 := n.AllPaths(papernet.Scope())
	p2 := c.AllPaths(papernet.Scope())
	if len(p1) != len(p2) {
		t.Fatalf("clone has %d paths, original %d", len(p2), len(p1))
	}
	set := map[string]bool{}
	for _, p := range p1 {
		set[p.String()] = true
	}
	for _, p := range p2 {
		if !set[p.String()] {
			t.Errorf("clone path %v missing from original", p)
		}
	}
}

func TestACLGroup(t *testing.T) {
	n := papernet.Build()
	group := n.ACLGroup(papernet.Scope())
	var ids []string
	for _, b := range group {
		ids = append(ids, b.ID())
	}
	want := "A:1:in,C:1:in,D:2:in"
	if strings.Join(ids, ",") != want {
		t.Fatalf("ACL group = %v, want %v", ids, want)
	}
}

func TestScopeEntries(t *testing.T) {
	s := topo.NewScope("A").WithEntries("A:1")
	if !s.AllowsEntry("A:1") || s.AllowsEntry("A:2") {
		t.Error("entry restriction wrong")
	}
	open := topo.NewScope("A")
	if !open.AllowsEntry("anything") {
		t.Error("unrestricted scope should allow all entries")
	}
	if !s.ContainsDevice("A") || s.ContainsDevice("B") {
		t.Error("ContainsDevice wrong")
	}
}

func TestDirectionString(t *testing.T) {
	if topo.In.String() != "in" || topo.Out.String() != "out" {
		t.Error("Direction.String wrong")
	}
}

func TestPathBindings(t *testing.T) {
	n := papernet.Build()
	paths := n.AllPaths(papernet.Scope())
	for _, p := range paths {
		bs := p.Bindings()
		if len(bs) != 2*len(p.Hops) {
			t.Fatalf("bindings count wrong for %v", p)
		}
		if bs[0].Dir != topo.In || bs[1].Dir != topo.Out {
			t.Fatalf("binding directions wrong for %v", p)
		}
	}
}

func TestFECPermitsConsistency(t *testing.T) {
	// Every class inside one FEC must behave identically on every path —
	// the defining property (Equation 2).
	n := papernet.Build()
	s := papernet.Scope()
	paths := n.AllPaths(s)
	classes := n.EnteringTraffic(s)
	fecs := topo.ComputeFECs(paths, classes)
	for _, f := range fecs {
		for _, p := range paths {
			first := p.ForwardsClass(f.Classes[0])
			for _, c := range f.Classes[1:] {
				if p.ForwardsClass(c) != first {
					t.Errorf("FEC %v split by path %v", f.Classes, p)
				}
			}
		}
	}
}
