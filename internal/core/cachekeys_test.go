package core

import (
	"testing"
	"unsafe"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
)

// TestCacheKeysOwnTheirStorage pins that no verdict-cache entry's key
// shares backing storage with a generation's key arena (see fecKey). An
// entry holding an arena slice keeps the whole arena — one word per
// binding slot of every FEC's paths — reachable for the cache's
// lifetime, and a daemon session adds one arena per job.
func TestCacheKeysOwnTheirStorage(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 9))
	opts := DefaultOptions()
	opts.Verdicts = NewVerdictCache()
	e := WANFix(w, 3, opts)

	type span struct{ lo, hi uintptr }
	extent := func(s []uint64) span {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
		return span{lo, lo + uintptr(cap(s))*unsafe.Sizeof(uint64(0))}
	}
	var arenas [][]uint64 // holds every arena live until the scan below
	generation := func() {
		if e.ckctx != nil && cap(e.ckctx.keyArena) > 0 {
			arenas = append(arenas, e.ckctx.keyArena)
		}
	}

	if e.Check().Consistent {
		t.Fatal("the perturbed WAN must be inconsistent")
	}
	generation()
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	generation()
	e.UpdateAfter(res.Fixed)
	e.Check()
	generation()
	if len(arenas) == 0 {
		t.Fatal("no generation derived a key arena")
	}

	entries := 0
	for i, m := range opts.Verdicts.byFEC {
		for _, bucket := range m {
			for _, ent := range bucket {
				if cap(ent.key) == 0 {
					continue
				}
				entries++
				k := extent(ent.key)
				for _, a := range arenas {
					if x := extent(a); k.lo < x.hi && x.lo < k.hi {
						t.Fatalf("FEC %d: cached key shares a generation's key arena", i)
					}
				}
			}
		}
	}
	if entries == 0 {
		t.Fatal("the cache holds no keyed entries")
	}
}

// TestEveryReplayIsKeyed pins that a warm re-check replays a verdict only
// after a full content-key comparison. After a one-binding edit on netgen
// small, every FEC the edit cannot reach still replays, through the keyed
// cache, and no FEC reports a route that skips the key. The replay and
// scope counts are the ones the retired change-impact replay produced, so
// retiring it lost no replay.
func TestEveryReplayIsKeyed(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 42))
	opts := DefaultOptions()
	// Unfiltered pairs: an edit changes exactly the edited binding's pair.
	opts.UseDifferential = false
	opts.FindAllViolations = true
	opts.Forensics = true
	opts.Verdicts = NewVerdictCache()
	after := w.Perturb(43, 3)
	e := New(w.Net, after, w.Scope, opts)
	e.Check()

	edited := after.Clone()
	bs, err := netgen.Bindings(edited, w.AggACLs[:1])
	if err != nil {
		t.Fatal(err)
	}
	a := bs[0].Iface.ACL(bs[0].Dir)
	deny := acl.Rule{Action: acl.Deny, Match: header.DstMatch(w.EdgePrefixes[w.EdgeNames[0]][0])}
	a.Rules = append([]acl.Rule{deny}, a.Rules...)
	e.UpdateAfter(edited)
	res := e.Check()

	routes := map[string]int{}
	for _, f := range res.Forensics {
		routes[f.Route]++
		if f.CacheHit != (f.Route == "cache") {
			t.Fatalf("FEC %d: route %q with cache_hit=%v", f.FEC, f.Route, f.CacheHit)
		}
	}
	if routes["impact"] != 0 {
		t.Fatalf("%d FECs replayed without a key comparison (routes %v)", routes["impact"], routes)
	}
	if int64(routes["cache"]) != res.Stats.FECCacheHits {
		t.Fatalf("%d cache routes for %d cache hits", routes["cache"], res.Stats.FECCacheHits)
	}
	got := [3]int{int(res.Stats.FECCacheHits), res.Stats.ChangedBindings, res.Stats.AffectedFECs}
	if want := [3]int{10, 1, 7}; got != want {
		t.Fatalf("hits, changed bindings, affected FECs = %v, want %v (routes %v)", got, want, routes)
	}
}
