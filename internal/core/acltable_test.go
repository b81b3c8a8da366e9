package core

import (
	"sync"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

// The two texts of TestVerdictCacheKeysAreContentExact: different ACLs,
// one Fingerprint.
const (
	collidingA = "deny dst 203.0.113.5/32 dport 461-32949, deny dst 203.0.113.7/32, " +
		"permit src 10.0.0.1/32 dst 203.0.113.9/32, deny dst 7.0.0.0/8, permit all"
	collidingB = "deny dst 203.0.113.5/32 dport 39-32813, deny dst 4.0.0.0/8, " +
		"permit src 225.30.165.161/32 dst 203.0.113.9/32, deny dst 7.0.0.0/8, permit all"
)

func TestACLTableIdentity(t *testing.T) {
	var tab aclTable
	x := acl.MustParse("deny dst 1.0.0.0/8, permit all")
	a, b := acl.MustParse(collidingA), acl.MustParse(collidingB)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("the colliding pair no longer collides")
	}
	ids := []int32{
		tab.intern(x), tab.intern(x), // same pointer
		tab.intern(x.Clone()),        // equal content
		tab.intern(a), tab.intern(b), // one fingerprint, two contents
		tab.intern(nil), tab.intern(acl.PermitAll()), // nil is permit-all
		tab.intern(acl.MustParse("permit all")),
	}
	want := []int32{0, 0, 0, 1, 2, 3, 3, 3}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs %v, want %v (dense, first-seen order)", ids, want)
		}
	}
	reps := tab.view()
	if len(reps) != 4 || !reps[1].Equal(a) || !reps[2].Equal(b) || !reps[3].Equal(acl.PermitAll()) {
		t.Fatalf("representatives %v", reps)
	}
	// The table keeps its own copy: mutating the interned ACL in place
	// changes neither the ID's content nor what the old content maps to.
	x.Rules[0].Action = acl.Permit
	if got := tab.intern(acl.MustParse("deny dst 1.0.0.0/8, permit all")); got != 0 {
		t.Fatalf("original content re-interned as %d after the caller mutated its copy", got)
	}
	if got := tab.intern(x); got != 4 {
		t.Fatalf("mutated content interned as %d, want the new ID 4", got)
	}
}

// TestACLTableConcurrent runs under -race in the default suite: a verdict
// cache's table is shared by every engine bound to the cache, and the
// cache is documented safe for concurrent use.
func TestACLTableConcurrent(t *testing.T) {
	var tab aclTable
	texts := []string{collidingA, collidingB, "deny dst 1.0.0.0/8, permit all", "permit all"}
	got := make([][]int32, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				for _, s := range texts {
					id := tab.intern(acl.MustParse(s))
					if k == 0 {
						got[g] = append(got[g], id)
					}
					_ = tab.view()[id].Len()
					if a, x := tab.index(id); a != tab.view()[id] || x.FirstContaining(header.MatchAll) > a.Len() {
						t.Errorf("content %d indexed off its representative", id)
					}
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i := range got[g] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutines disagree on IDs: %v", got)
			}
		}
	}
	if n := len(tab.view()); n != len(texts) {
		t.Fatalf("%d IDs for %d contents", n, len(texts))
	}
	for id := range int32(len(texts)) {
		_, x := tab.index(id)
		if _, y := tab.index(id); y != x {
			t.Fatalf("content %d indexed twice", id)
		}
	}

	// Two engines bound to one cache, checking from two goroutines: both
	// must agree with a cold check of their own update.
	before := papernet.Build()
	vc := NewVerdictCache()
	var res [2]*CheckResult
	afters := [2]*topo.Network{before.Clone(), before.Clone()}
	for k, s := range []string{collidingA, collidingB} {
		iface, err := afters[k].LookupInterface("C:1")
		if err != nil {
			t.Fatal(err)
		}
		iface.SetACL(topo.In, acl.MustParse(s))
	}
	opts := DefaultOptions()
	opts.UseDifferential = false
	opts.FindAllViolations = true
	// Walk Before once first: its devices build their lookup tries lazily.
	New(before, before, papernet.Scope(), opts).Paths()
	for k := range afters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opts
			o.Verdicts = vc
			e := New(before, afters[k], papernet.Scope(), o)
			for i := 0; i < 5; i++ {
				// A new generation each time: fresh IDs drawn, keys looked
				// up, and the other engine's generation diffed against.
				e.UpdateAfter(afters[k].Clone())
				res[k] = e.Check()
			}
		}()
	}
	wg.Wait()
	for k := range afters {
		if got, want := res[k].Consistent, New(before, afters[k], papernet.Scope(), opts).Check().Consistent; got != want {
			t.Fatalf("engine %d: consistent=%v sharing a cache, %v cold", k, got, want)
		}
	}
}
