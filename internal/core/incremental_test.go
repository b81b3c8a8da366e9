package core_test

import (
	"fmt"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

// These tests pin the incremental-verification contract: with a
// VerdictCache installed, a warm re-check after an edit replays cached
// verdicts for every FEC the edit cannot reach, and its result —
// verdict, violations, counterexamples, SolvedFECs — is byte-identical
// to a fresh-engine cold run.

// editAfter clones the network and prepends a deny for the given
// traffic prefix on one binding.
func editAfter(t *testing.T, n *topo.Network, ifaceID string, p header.Prefix) *topo.Network {
	t.Helper()
	out := n.Clone()
	iface, err := out.LookupInterface(ifaceID)
	if err != nil {
		t.Fatal(err)
	}
	a := iface.ACL(topo.In)
	if a == nil {
		a = acl.PermitAll()
	}
	a.Rules = append([]acl.Rule{{Action: acl.Deny, Match: header.DstMatch(p)}}, a.Rules...)
	iface.SetACL(topo.In, a)
	return out
}

func TestWarmRecheckMatchesColdAfterEdit(t *testing.T) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	opts := core.DefaultOptions()
	// Without the Theorem 4.1 skip every FEC is decided, so every FEC
	// the edit misses must replay — the localized-invalidation property
	// this test pins (TestEditRedecidesOnlyCrossingFECs pins it under the
	// default options).
	opts.UseDifferential = false
	opts.FindAllViolations = true
	opts.Verdicts = core.NewVerdictCache()

	warm := core.New(before, after, papernet.Scope(), opts)
	cold0 := warm.Check()
	if cold0.Stats.FECCacheHits != 0 {
		t.Fatalf("first generation replayed %d verdicts from an empty cache", cold0.Stats.FECCacheHits)
	}
	if cold0.Stats.FECCacheMisses == 0 {
		t.Fatal("first generation recorded no cache misses")
	}

	// One extra edit on top of the running-example update.
	edited := editAfter(t, after, "C:1", papernet.Traffic(6))
	warm.UpdateAfter(edited)
	got := warm.Check()

	fresh := core.New(before, edited, papernet.Scope(), func() core.Options {
		o := core.DefaultOptions()
		o.UseDifferential = false
		o.FindAllViolations = true
		return o
	}()).Check()

	if a, b := checkSignature(got), checkSignature(fresh); a != b {
		t.Fatalf("warm re-check diverged from cold:\nwarm:\n%s\ncold:\n%s", a, b)
	}
	if got.SolvedFECs != fresh.SolvedFECs {
		t.Fatalf("warm SolvedFECs=%d, cold=%d", got.SolvedFECs, fresh.SolvedFECs)
	}
	if got.Stats.ChangedBindings != 1 {
		t.Fatalf("one binding was edited, change-impact saw %d", got.Stats.ChangedBindings)
	}
	if got.Stats.AffectedFECs >= got.FECs {
		t.Fatalf("a single-ACL edit affected all %d FECs", got.FECs)
	}
	if got.Stats.FECCacheHits == 0 {
		t.Fatal("warm re-check replayed nothing")
	}
}

func TestWarmRecheckNoEditReplaysVerdicts(t *testing.T) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.Verdicts = core.NewVerdictCache()

	warm := core.New(before, after, papernet.Scope(), opts)
	first := warm.Check()

	// A clone is a different network object with identical contents: every
	// FEC must replay, none may miss.
	warm.UpdateAfter(after.Clone())
	second := warm.Check()
	if a, b := checkSignature(second), checkSignature(first); a != b {
		t.Fatalf("unchanged re-check diverged:\n%s\nvs\n%s", a, b)
	}
	if second.Stats.FECCacheMisses != 0 {
		t.Fatalf("unchanged re-check missed %d times", second.Stats.FECCacheMisses)
	}
	if second.Stats.ChangedBindings != 0 || second.Stats.AffectedFECs != 0 {
		t.Fatalf("unchanged re-check saw impact %+v", second.Stats)
	}
	if second.Stats.FECCacheHits == 0 {
		t.Fatal("unchanged re-check replayed nothing")
	}
	if second.SolvedFECs != first.SolvedFECs {
		t.Fatalf("SolvedFECs drifted: %d vs %d", second.SolvedFECs, first.SolvedFECs)
	}
}

func TestWarmParallelRecheckMatchesCold(t *testing.T) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	for _, findAll := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.FindAllViolations = findAll
		opts.Verdicts = core.NewVerdictCache()
		warm := core.New(before, after, papernet.Scope(), opts)
		checkWorkers(warm, 4)

		edited := editAfter(t, after, "D:2", papernet.Traffic(7))
		warm.UpdateAfter(edited)
		got := checkWorkers(warm, 4)

		coldOpts := core.DefaultOptions()
		coldOpts.FindAllViolations = findAll
		fresh := core.New(before, edited, papernet.Scope(), coldOpts).Check()
		if a, b := checkSignature(got), checkSignature(fresh); a != b {
			t.Fatalf("findAll=%v: warm parallel re-check diverged:\nwarm:\n%s\ncold:\n%s", findAll, a, b)
		}
		if got.SolvedFECs != fresh.SolvedFECs {
			t.Fatalf("findAll=%v: warm SolvedFECs=%d, cold=%d", findAll, got.SolvedFECs, fresh.SolvedFECs)
		}
	}
}

func TestVerdictCacheResetsOnConfigChange(t *testing.T) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	vc := core.NewVerdictCache()

	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.Verdicts = vc
	core.New(before, after, papernet.Scope(), opts).Check()

	// A differently-configured engine (controls present) must not replay
	// the plain-check verdicts: the cache resets, so its first check runs
	// cold and stays correct.
	ctl := opts
	withCtl := core.New(before, after, papernet.Scope(), ctl)
	withCtl.Controls = []core.Control{{ // on no border pair
		Mode: core.Isolate, Match: header.DstMatch(papernet.Traffic(1)),
	}}
	res := withCtl.Check()
	if res.Stats.FECCacheHits != 0 {
		t.Fatalf("config change must reset the cache, yet %d verdicts replayed", res.Stats.FECCacheHits)
	}

	plain := core.New(before, after, papernet.Scope(), func() core.Options {
		o := core.DefaultOptions()
		o.FindAllViolations = true
		return o
	}())
	plain.Controls = withCtl.Controls
	if a, b := checkSignature(res), checkSignature(plain.Check()); a != b {
		t.Fatalf("post-reset check diverged from cold:\n%s\nvs\n%s", a, b)
	}
}

// TestFixSkipsCachedConsistentFECs pins that fix seeks neighborhoods only
// inside the FECs the check loop finds violating, each at least one, in
// the sets the algebra decides them on — cold and after a prior check on
// the same engine, with and without the differential filter. The plan after a check equals the cold plan.
func TestFixSkipsCachedConsistentFECs(t *testing.T) {
	for _, differential := range []bool{true, false} {
		base := core.DefaultOptions()
		base.UseDifferential = differential
		base.FindAllViolations = true
		violating := len(newRunningEngine(t, base).Check().Violations)
		if violating == 0 {
			t.Fatal("the running example must be inconsistent")
		}
		var coldPlan string
		for _, prior := range []bool{false, true} {
			t.Run(fmt.Sprintf("differential=%v/prior-check=%v", differential, prior), func(t *testing.T) {
				opts := base
				opts.Verdicts = core.NewVerdictCache()
				_, _, m := obsHarness(&opts)
				e := newRunningEngine(t, opts)
				if prior {
					e.Check()
				}
				res, err := e.Fix()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Verified {
					t.Fatal("fix did not verify")
				}
				plan := fmt.Sprint(res.Actions)
				if !prior {
					coldPlan = plan
				} else if plan != coldPlan {
					t.Fatalf("plan after a check differs from the cold plan:\n%s\nwant:\n%s", plan, coldPlan)
				}
				if n := m.Snapshot().Counters["fix.neighborhoods"]; n != int64(len(res.Neighborhoods)) || n < int64(violating) {
					t.Fatalf("fix.neighborhoods = %d for %d neighborhoods in %d violating FECs", n, len(res.Neighborhoods), violating)
				}
			})
		}
	}
}

func TestDisjointReorderIsConsistentInPset(t *testing.T) {
	// Reordered disjoint rules change the ACL's content but not its
	// decision model: with the differential filter off, the set algebra
	// must decide every FEC consistent.
	before := papernet.Build()
	after := before.Clone()
	iface, err := after.LookupInterface("D:2")
	if err != nil {
		t.Fatal(err)
	}
	a := iface.ACL(topo.In)
	if a == nil || len(a.Rules) < 2 {
		t.Fatalf("expected a multi-rule ACL on D:2, got %v", a)
	}
	a.Rules[0], a.Rules[1] = a.Rules[1], a.Rules[0]

	opts := core.DefaultOptions()
	opts.UseDifferential = false
	opts.FindAllViolations = true
	opts.Verdicts = core.NewVerdictCache()
	opts.Forensics = true
	res := core.New(before, after, papernet.Scope(), opts).Check()
	if !res.Consistent || !res.Complete {
		t.Fatalf("reordering disjoint rules broke consistency: %v", res.Violations)
	}
	if len(res.Forensics) != res.FECs {
		t.Fatalf("%d forensics entries for %d FECs", len(res.Forensics), res.FECs)
	}
	if res.SolvedFECs != res.FECs {
		t.Fatalf("SolvedFECs=%d, want all %d: no FEC is skipped without the differential filter", res.SolvedFECs, res.FECs)
	}
	for _, f := range res.Forensics {
		if f.Route != "pset" {
			t.Fatalf("FEC %d took route %q, want pset", f.FEC, f.Route)
		}
	}
}

// TestVerdictCacheKeysAreContentExact pins that a cached verdict replays
// only for the same ACL contents. The two ACLs below survive parsing and
// share a 64-bit structural fingerprint, yet decide differently: A only
// adds rules for the unrouted 203.0.113.0/24, so the update stays
// consistent, while B denies 4.0.0.0/8, which reaches D3 through A3 → C1.
// A cache keyed by fingerprints replays A's verdicts for B, warm and
// after a snapshot restore alike.
func TestVerdictCacheKeysAreContentExact(t *testing.T) {
	a := acl.MustParse("deny dst 203.0.113.5/32 dport 461-32949, deny dst 203.0.113.7/32, " +
		"permit src 10.0.0.1/32 dst 203.0.113.9/32, deny dst 7.0.0.0/8, permit all")
	b := acl.MustParse("deny dst 203.0.113.5/32 dport 39-32813, deny dst 4.0.0.0/8, " +
		"permit src 225.30.165.161/32 dst 203.0.113.9/32, deny dst 7.0.0.0/8, permit all")
	if a.Fingerprint() != b.Fingerprint() || a.Equal(b) {
		t.Fatalf("want two different ACLs with one fingerprint, got %#x and %#x", a.Fingerprint(), b.Fingerprint())
	}
	before := papernet.Build()
	withC1 := func(x *acl.ACL) *topo.Network {
		n := before.Clone()
		iface, err := n.LookupInterface("C:1")
		if err != nil {
			t.Fatal(err)
		}
		iface.SetACL(topo.In, x.Clone())
		return n
	}
	afterA, afterB := withC1(a), withC1(b)
	opts := core.DefaultOptions()
	opts.UseDifferential = false
	opts.FindAllViolations = true
	cached := func() core.Options {
		o := opts
		o.Verdicts = core.NewVerdictCache()
		return o
	}
	if res := core.New(before, afterA, papernet.Scope(), opts).Check(); !res.Consistent {
		t.Fatal("A must be consistent")
	}
	cold := core.New(before, afterB, papernet.Scope(), opts).Check()
	if cold.Consistent {
		t.Fatal("B must be inconsistent")
	}
	want := checkSignature(cold)

	t.Run("warm", func(t *testing.T) {
		warm := core.New(before, afterA, papernet.Scope(), cached())
		warm.Check()
		warm.UpdateAfter(afterB)
		got := warm.Check()
		if sig := checkSignature(got); sig != want {
			t.Fatalf("warm re-check of B diverged from cold:\nwarm:\n%s\ncold:\n%s", sig, want)
		}
		if got.Stats.ChangedBindings != 1 {
			t.Fatalf("C:1 changed, change-impact saw %d bindings", got.Stats.ChangedBindings)
		}
	})
	t.Run("restored", func(t *testing.T) {
		warm := core.New(before, afterA, papernet.Scope(), cached())
		warm.Check()
		snap := warm.ExportVerdicts()
		restored := core.New(before.Clone(), afterB.Clone(), papernet.Scope(), cached())
		if err := restored.ImportVerdicts(snap); err != nil {
			t.Fatal(err)
		}
		if sig := checkSignature(restored.Check()); sig != want {
			t.Fatalf("restored check of B diverged from cold:\nrestored:\n%s\ncold:\n%s", sig, want)
		}
	})
}

// TestEditRedecidesOnlyCrossingFECs pins the localized invalidation of
// DESIGN §4c under the default options on the medium WAN at 3%: after
// one binding's ACL is edited, every FEC the first check decided whose
// paths miss that binding replays its verdict from the cache or is
// skipped. A binding's key word names its ACLs as written, so an edit
// elsewhere, which grows the differential rule set, leaves the FEC's key
// as it was.
func TestEditRedecidesOnlyCrossingFECs(t *testing.T) {
	for _, iface := range []string{"agg0:d0", "edge0:ext"} {
		t.Run(iface, func(t *testing.T) {
			w := netgen.Build(netgen.DefaultConfig(netgen.Medium, 42))
			opts := core.DefaultOptions()
			opts.FindAllViolations, opts.Forensics = true, true
			opts.Verdicts = core.NewVerdictCache()
			e := core.WANFix(w, 3, opts)
			decided := map[int]bool{}
			for _, f := range e.Check().Forensics {
				if f.Route == "pset" || f.Route == "pset-split" {
					decided[f.FEC] = true
				}
			}
			e.UpdateAfter(editAfter(t, e.After, iface, w.AllPrefixes()[0]))
			res := e.Check()
			fecs := e.FECs()
			crosses := func(fec topo.FEC) bool {
				for _, p := range fec.Paths {
					for _, h := range p.Hops {
						if h.In.ID() == iface {
							return true
						}
					}
				}
				return false
			}
			away, crossing := 0, 0
			for _, f := range res.Forensics {
				switch {
				case !decided[f.FEC]:
				case crosses(fecs[f.FEC]):
					crossing++
				case f.Route == "cache" || f.Route == "skip":
					away++
				default:
					t.Errorf("FEC %d misses %s:in, yet the re-check decided it again (route %s)", f.FEC, iface, f.Route)
				}
			}
			if away == 0 || crossing == 0 {
				t.Fatalf("%d decided FECs away from the edit, %d crossing it: the case pins nothing", away, crossing)
			}
			if res.Stats.AffectedFECs >= res.FECs {
				t.Errorf("one edited binding affected all %d FECs", res.FECs)
			}
			t.Logf("%d FECs replayed or skipped away from the edit, %d cross it; %d hits, %d of %d FECs affected",
				away, crossing, res.Stats.FECCacheHits, res.Stats.AffectedFECs, res.FECs)
		})
	}
}
