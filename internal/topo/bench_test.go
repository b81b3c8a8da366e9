package topo_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

func BenchmarkAllPathsFigure1(b *testing.B) {
	n := papernet.Build()
	s := papernet.Scope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := n.AllPaths(s); len(got) != 4 {
			b.Fatalf("paths = %d", len(got))
		}
	}
}

// wanSizes includes the large tier on purpose: the classes × paths term
// the forwarding index removes is invisible at medium.
var wanSizes = []netgen.Size{netgen.Small, netgen.Medium, netgen.Large}

func BenchmarkAllPathsWAN(b *testing.B) {
	for _, size := range wanSizes {
		w := netgen.Build(netgen.DefaultConfig(size, 1))
		b.Run(size.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(w.Net.AllPaths(w.Scope)) == 0 {
					b.Fatal("no paths")
				}
			}
		})
	}
}

func BenchmarkComputeFECs(b *testing.B) {
	for _, size := range wanSizes {
		w := netgen.Build(netgen.DefaultConfig(size, 1))
		paths := w.Net.AllPaths(w.Scope)
		classes := w.Net.EnteringTraffic(w.Scope)
		b.Run(size.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(topo.ComputeFECs(paths, classes)) == 0 {
					b.Fatal("no FECs")
				}
			}
		})
	}
}

// BenchmarkForwardingIndex is what a check pays for the layers the
// operator benchmark reports as topo.paths_ms + topo.fecs_ms: the
// entering traffic, one routing-DAG walk, the FEC grouping, and the
// materialization of every FEC. Each iteration runs on an untimed fresh
// clone of the network, as the CLI runs on a freshly loaded one, so
// nothing a device builds lazily (its LPM trie) carries over.
func BenchmarkForwardingIndex(b *testing.B) {
	for _, size := range wanSizes {
		w := netgen.Build(netgen.DefaultConfig(size, 1))
		b.Run(size.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n := w.Net.Clone()
				b.StartTimer()
				if len(n.ForwardingIndex(w.Scope, n.EnteringTraffic(w.Scope)).All()) == 0 {
					b.Fatal("no FECs")
				}
			}
		})
	}
}

func BenchmarkLPMLookup(b *testing.B) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Medium, 1))
	var dev *topo.Device
	for _, d := range w.Net.SortedDevices() {
		if len(d.FIB) > 50 {
			dev = d
			break
		}
	}
	if dev == nil {
		b.Fatal("no device with a big FIB")
	}
	r := rand.New(rand.NewSource(2))
	addrs := make([]uint32, 1024)
	for i := range addrs {
		addrs[i] = 10<<24 | r.Uint32()&0x00ffffff
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev.LongestMatch(addrs[i%len(addrs)])
	}
}

func BenchmarkAtomizeClasses(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	var classes, cuts []header.Prefix
	for i := 0; i < 500; i++ {
		classes = append(classes, header.Prefix{
			Addr: 10<<24 | uint32(r.Intn(1<<16))<<8, Len: 24,
		}.Canonical())
		cuts = append(cuts, header.Prefix{
			Addr: 10<<24 | uint32(r.Intn(1<<12))<<12, Len: 8 + r.Intn(17),
		}.Canonical())
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo.AtomizeClasses(classes, cuts)
	}
}

func BenchmarkClone(b *testing.B) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Medium, 1))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Net.Clone()
	}
}

// BenchmarkLoadNetwork is topo.load: one snapshot marshaled once, as
// jinjing-netgen writes it, and decoded per iteration through
// UnmarshalJSON, the call the CLI and the daemon make on the bytes of
// a topology, and (the -view arms) through LoadView, the call they
// make on the bytes of an updated snapshot.
func BenchmarkLoadNetwork(b *testing.B) {
	for _, size := range wanSizes {
		data, err := json.Marshal(netgen.Build(netgen.DefaultConfig(size, 1)).Net)
		if err != nil {
			b.Fatal(err)
		}
		for _, arm := range []struct {
			name string
			load func([]byte) (*topo.Network, error)
		}{{"", topo.Load}, {"-view", topo.LoadView}} {
			b.Run(size.String()+arm.name, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := arm.load(data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
