package core_test

import (
	"strconv"
	"sync"
	"testing"

	"jinjing/internal/core"
	"jinjing/internal/netgen"
	"jinjing/internal/obs"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

var (
	mediumOnce sync.Once
	mediumWAN  *netgen.WAN
)

func netgenMediumOnce() *netgen.WAN {
	mediumOnce.Do(func() {
		mediumWAN = netgen.Build(netgen.DefaultConfig(netgen.Medium, 42))
	})
	return mediumWAN
}

func itoa(i int) string { return strconv.Itoa(i) }

func BenchmarkCheckFigure1(b *testing.B) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	for _, mode := range []string{"differential", "basic", "monolithic"} {
		b.Run(mode, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.UseDifferential = mode == "differential"
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := core.New(before, after, papernet.Scope(), opts)
				var consistent bool
				if mode == "monolithic" {
					consistent = e.CheckMonolithic().Consistent
				} else {
					consistent = e.Check().Consistent
				}
				if consistent {
					b.Fatal("must be inconsistent")
				}
			}
		})
	}
}

func BenchmarkFixFigure1(b *testing.B) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
		for _, dev := range []string{"A", "B"} {
			d := before.Devices[dev]
			for _, ifc := range d.SortedInterfaces() {
				e.Allow = append(e.Allow,
					topo.ACLBinding{Iface: ifc, Dir: topo.In},
					topo.ACLBinding{Iface: ifc, Dir: topo.Out})
			}
		}
		res, err := e.Fix()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verified {
			b.Fatal("fix must verify")
		}
	}
}

func BenchmarkGenerateFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, sources := migrationEngine(core.DefaultOptions())
		res, err := e.Generate(sources)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verified {
			b.Fatal("generate must verify")
		}
	}
}

type generateWANCase struct {
	name string
	mk   func(opts core.Options) (*core.Engine, []topo.ACLBinding)
}

// generateWANCases are the two generate setups on the medium WAN: the
// Fig. 4c migration and the Fig. 4d control-open with 4 prefixes per
// edge device.
func generateWANCases() []generateWANCase {
	w := netgenMediumOnce()
	return []generateWANCase{
		{"migration", func(opts core.Options) (*core.Engine, []topo.ACLBinding) { return core.WANMigration(w, opts) }},
		{"open-4", func(opts core.Options) (*core.Engine, []topo.ACLBinding) { return core.WANOpen(w, 4, opts) }},
	}
}

// BenchmarkGenerateWAN is one cold generate on the medium WAN per
// iteration — a fresh engine, so paths, FECs, the per-call index and the
// verification check are all inside the op, as they are for the CLI: the
// two operator-benchmark generate workloads (Fig. 4c migration, Fig. 4d
// control-open with 4 prefixes per edge device) without the process.
func BenchmarkGenerateWAN(b *testing.B) {
	for _, bc := range generateWANCases() {
		b.Run(bc.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			m := obs.NewMetrics()
			opts.Obs = obs.NewObserver(nil, m, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, sources := bc.mk(opts)
				res, err := e.Generate(sources)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Verified {
					b.Fatal("generate must verify")
				}
			}
			snap := m.Snapshot()
			b.ReportMetric(float64(snap.Gauges["generate.path_shapes"]), "path_shapes")
			b.ReportMetric(float64(snap.Gauges["generate.rows"]), "rows")
			b.ReportMetric(float64(snap.Gauges["generate.row_entries"]), "row_entries")
		})
	}
}

// BenchmarkGenerateDeriveWAN times deriveAECs alone on the two
// BenchmarkGenerateWAN setups: the medium WAN's classes grouped into AECs
// by their first-match rule at every original ACL and their control
// membership (Fig. 4c migration, Fig. 4d control-open 4).
func BenchmarkGenerateDeriveWAN(b *testing.B) {
	for _, bc := range generateWANCases() {
		b.Run(bc.name, func(b *testing.B) {
			e, _ := bc.mk(core.DefaultOptions())
			derive, classes, err := core.DeriveAECsOf(e)
			if err != nil {
				b.Fatal(err)
			}
			var aecs int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if aecs, err = derive(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(classes), "classes")
			b.ReportMetric(float64(aecs), "aecs")
		})
	}
}

// BenchmarkGenerateVerifyWAN times generate's verification check alone
// on the two BenchmarkGenerateWAN setups: the snapshot is generated once
// outside the timer, and each iteration checks it afresh, as Generate
// does — on an engine derived from the generating one, so preprocessing,
// the region indexes and every FEC decision are inside the op.
func BenchmarkGenerateVerifyWAN(b *testing.B) {
	for _, bc := range generateWANCases() {
		b.Run(bc.name, func(b *testing.B) {
			e, sources := bc.mk(core.DefaultOptions())
			res, err := e.Generate(sources)
			if err != nil {
				b.Fatal(err)
			}
			verify := core.VerifyCheckOf(e, res)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cr := verify(); !cr.Consistent || !cr.Complete {
					b.Fatal("the generated snapshot must verify")
				}
			}
		})
	}
}

// BenchmarkFixWAN is one cold fix on the medium WAN per iteration — a
// fresh engine, so paths, FECs, the per-call index and the verification
// check are all inside the op, as they are for the CLI: the Fig. 4b
// setup at its two ends, without the process.
func BenchmarkFixWAN(b *testing.B) {
	w := netgenMediumOnce()
	for _, pct := range []float64{1, 5} {
		b.Run("perturb-"+itoa(int(pct)), func(b *testing.B) {
			opts := core.DefaultOptions()
			m := obs.NewMetrics()
			opts.Obs = obs.NewObserver(nil, m, nil)
			var neighborhoods int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.WANFix(w, pct, opts).Fix()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Verified {
					b.Fatalf("fix must verify (%d unfixable)", len(res.Unfixable))
				}
				neighborhoods = len(res.Neighborhoods)
			}
			b.ReportMetric(float64(neighborhoods), "neighborhoods")
			b.ReportMetric(float64(m.Snapshot().Counters["fix.placements"])/float64(b.N), "placements")
			b.ReportMetric(float64(m.Snapshot().Gauges["fix.path_shapes"]), "path_shapes")
		})
	}
}

// BenchmarkCompileShapes is the path walk a check and then a fix make on
// the large WAN at 1%: the check's shapes of every FEC, then fix's index,
// from a fresh path interner per iteration.
func BenchmarkCompileShapes(b *testing.B) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Large, 42))
	compile := core.ShapeCompiler(core.WANFix(w, 1, core.DefaultOptions()))
	var shapes int
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shapes = compile()
	}
	b.ReportMetric(float64(shapes), "shapes")
}
