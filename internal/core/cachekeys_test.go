package core

import (
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/topo"
)

// TestCacheKeyIsOneWordPerBinding pins the key layout: a cached verdict's
// key holds one word per distinct binding its FEC's paths cross, however
// many paths cross it. After a check and two cumulative edits on netgen
// small, every entry's key is as long as its FEC's distinct on-path
// binding count.
func TestCacheKeyIsOneWordPerBinding(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 42))
	opts := DefaultOptions()
	opts.UseDifferential = false
	opts.FindAllViolations = true
	opts.Verdicts = NewVerdictCache()
	cur := w.Perturb(43, 3)
	e := New(w.Net, cur, w.Scope, opts)
	e.Check()
	for k, id := range w.AggACLs[:2] {
		cur = cur.Clone()
		bs, err := netgen.Bindings(cur, []string{id})
		if err != nil {
			t.Fatal(err)
		}
		a := bs[0].Iface.ACL(bs[0].Dir)
		deny := acl.Rule{Action: acl.Deny, Match: header.DstMatch(w.EdgePrefixes[w.EdgeNames[k]][0])}
		a.Rules = append([]acl.Rule{deny}, a.Rules...)
		e.UpdateAfter(cur)
		e.Check()
	}

	distinct := make([]int, e.NumFECs())
	slots, words := 0, 0
	for i, fec := range e.FECs() {
		seen := map[topo.ACLBinding]bool{}
		for _, p := range fec.Paths {
			for _, b := range p.Bindings() {
				seen[b] = true
				slots++
			}
		}
		distinct[i] = len(seen)
		words += len(seen)
	}
	if slots == words {
		t.Fatalf("no FEC's paths share a binding (%d slots): the layout is untested", slots)
	}
	entries := 0
	for i, m := range opts.Verdicts.byFEC {
		for _, bucket := range m {
			for _, ent := range bucket {
				entries++
				if len(ent.key) != distinct[i] {
					t.Fatalf("FEC %d: key of %d words, want one per distinct binding (%d)", i, len(ent.key), distinct[i])
				}
			}
		}
	}
	if entries <= e.NumFECs() {
		t.Fatalf("%d cached entries over %d FECs: the edits added none", entries, e.NumFECs())
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
