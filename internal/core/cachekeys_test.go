package core

import (
	"testing"
	"unsafe"

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
