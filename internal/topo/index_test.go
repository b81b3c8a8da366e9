package topo_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/topo"
)

// wantEgress is the row entry the sweep must produce for a class: the
// trie's LongestMatchClass answer with repeats dropped, in FIB order.
func wantEgress(d *topo.Device, class header.Prefix) []*topo.Interface {
	var out []*topo.Interface
	for _, o := range d.LongestMatchClass(class) {
		if !slices.Contains(out, o) {
			out = append(out, o)
		}
	}
	return out
}

func sameEgress(t *testing.T, what string, d *topo.Device, classes []header.Prefix) {
	t.Helper()
	got := topo.SweepEgress(d, classes)
	for c, class := range classes {
		if want := wantEgress(d, class); !slices.Equal(got[c], want) {
			t.Fatalf("%s: %s class %v egress %v, LongestMatchClass %v", what, d.Name, class, got[c], want)
		}
	}
}

// randomFIB builds one device whose FIB holds what the sweep must get
// right: nested prefixes from /8 to /32, ECMP groups, the same entry
// twice, sometimes a default route, and entries outside every other. The
// classes are its entering traffic refined by extra control prefixes
// (coarser, finer, a /32 and one no entry covers), shuffled out of the
// sorted order EnteringTraffic returns, with a repeat now and then.
func randomFIB(r *rand.Rand) (*topo.Device, []header.Prefix) {
	n := topo.NewNetwork()
	d := n.Device("R")
	ifaces := []*topo.Interface{d.Interface("a"), d.Interface("b"), d.Interface("c"), d.Interface("d")}
	pick := func() *topo.Interface { return ifaces[r.Intn(len(ifaces))] }
	lens := []int{8, 12, 16, 22, 24, 30, 32}
	random := func() header.Prefix {
		addr := 10<<24 | uint32(r.Intn(3))<<16 | uint32(r.Intn(3))<<8 | uint32(r.Intn(6))
		if r.Intn(8) == 0 {
			addr = 172<<24 | uint32(r.Intn(1<<24))
		}
		return header.Prefix{Addr: addr, Len: lens[r.Intn(len(lens))]}.Canonical()
	}
	if r.Intn(2) == 0 {
		d.AddRoute(header.Prefix{}, pick()) // default route
	}
	for i := 0; i < 4+r.Intn(24); i++ {
		p, o := random(), pick()
		d.AddRoute(p, o)
		switch r.Intn(4) {
		case 0:
			d.AddRoute(p, pick()) // ECMP, or by chance the same entry again
		case 1:
			d.AddRoute(p, o) // the same entry twice
		}
	}
	extra := []header.Prefix{random(), random(), {Addr: 10<<24 | uint32(r.Intn(1<<24)), Len: 32}, {Addr: 200 << 24, Len: 8}}
	classes := n.EnteringTraffic(topo.NewScope("R"), extra[:r.Intn(len(extra)+1)]...)
	r.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	if len(classes) > 0 && r.Intn(3) == 0 {
		classes = append(classes, classes[r.Intn(len(classes))])
	}
	return d, classes
}

// TestSweepMatchesLongestMatchClass pins the FIB sweep to the LPM trie:
// every (device, class) egress set equals LongestMatchClass's on the
// generated WANs and on random FIBs.
func TestSweepMatchesLongestMatchClass(t *testing.T) {
	for _, size := range []netgen.Size{netgen.Small, netgen.Medium} {
		for seed := int64(1); seed <= 3; seed++ {
			w := netgen.Build(netgen.DefaultConfig(size, seed))
			classes := w.Net.EnteringTraffic(w.Scope, w.External)
			for _, name := range w.Scope.DeviceNames() {
				sameEgress(t, fmt.Sprintf("%v/%d", size, seed), w.Net.Devices[name], classes)
			}
		}
	}
	r := rand.New(rand.NewSource(44))
	for i := 0; i < 2000; i++ {
		d, classes := randomFIB(r)
		sameEgress(t, fmt.Sprintf("fib/%d", i), d, classes)
	}
}

func panicOf(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return "no panic"
}

// TestSweepNonAtomicPanics: a class with a FIB entry strictly inside it
// has no single longest match, and every route to the row says so with
// LongestMatchClass's message, naming the first such class in class
// order even where the sweep meets another first.
func TestSweepNonAtomicPanics(t *testing.T) {
	n := topo.NewNetwork()
	d := n.Device("R")
	in, out := d.Interface("in"), d.Interface("out")
	d.AddRoute(pfx("0.0.0.0/0"), out)
	d.AddRoute(pfx("10.0.0.0/9"), out)
	d.AddRoute(pfx("12.0.0.0/16"), out)
	s := topo.NewScope("R").WithEntries("R:in")
	paths := []topo.Path{{Hops: []topo.Hop{{In: in, Out: out}}}}
	for _, classes := range [][]header.Prefix{
		{pfx("11.0.0.0/8"), pfx("10.0.0.0/8")},
		{pfx("12.0.0.0/8"), pfx("10.0.0.0/8")}, // both split; 12/8 comes first
		{pfx("0.0.0.0/0")},
	} {
		want := panicOf(func() {
			for _, c := range classes {
				d.LongestMatchClass(c)
			}
		})
		if want == "no panic" {
			t.Fatalf("%v: LongestMatchClass did not panic", classes)
		}
		for what, f := range map[string]func(){
			"SweepEgress":     func() { topo.SweepEgress(d, classes) },
			"ForwardingIndex": func() { n.ForwardingIndex(s, classes) },
			"NewFECSource":    func() { topo.NewFECSource(paths, classes) },
		} {
			if got := panicOf(f); got != want {
				t.Errorf("%v: %s panics %q, LongestMatchClass %q", classes, what, got, want)
			}
		}
	}
}

// TestPathHopsDoNotAlias: the paths share hop arenas, so each Hops must
// be capped at its own end. Appending to any path's Hops leaves every
// other path as it was.
func TestPathHopsDoNotAlias(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 1))
	paths := w.Net.AllPaths(w.Scope)
	before := make([]string, len(paths))
	for i, p := range paths {
		before[i] = p.Key()
	}
	stray := topo.Hop{In: paths[0].Src(), Out: paths[0].Src()}
	for i := range paths {
		paths[i].Hops = append(paths[i].Hops, stray)
		for j, p := range paths {
			if j == i {
				continue
			}
			if p.Key() != before[j] {
				t.Fatalf("appending to path %d changed path %d: %s, was %s", i, j, p.Key(), before[j])
			}
		}
		paths[i].Hops = paths[i].Hops[:len(paths[i].Hops)-1]
	}
}

// TestForwardingIndexAllocs bounds the walk's allocations on the medium
// WAN: one row per device and one arena chunk per 4,096 hops, not one
// slice per path or per (device, class). Measured: 2,179 allocations per
// run (go1.24.0, linux/amd64; cloning each path's hops and resolving
// each (device, class) on a prebuilt LPM trie took 8,890). The bound is
// 1.25× the measured count.
func TestForwardingIndexAllocs(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Medium, 1))
	classes := w.Net.EnteringTraffic(w.Scope)
	const bound = 2723 // 1.25 × 2,179
	if got := testing.AllocsPerRun(5, func() { w.Net.ForwardingIndex(w.Scope, classes) }); got > bound {
		t.Fatalf("ForwardingIndex on the medium WAN: %.0f allocations, bound %d", got, bound)
	}
}
