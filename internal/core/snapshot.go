package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"jinjing/internal/acl"
)

// This file is the durable-warm-state surface of the verdict cache:
// Export projects a bound cache onto a plain, deterministic value a
// host (the jinjingd daemon, via internal/store) can serialize, and
// Import rebinds that value to a freshly built engine after a process
// restart. The cache's in-memory binding is pointer-based (bind
// compares the engine's Before/Scope pointers), which cannot survive a
// restart; the snapshot instead carries a content digest of everything
// a cached verdict depends on — the encoding mode and control intents
// (cacheConfig), the scoped ACL content of the Before snapshot
// (networkFingerprint), the binding index's structure word (every path's
// binding sequence and every FEC's classes), and the FEC count —
// and Import refuses to bind unless the rebuilt engine digests
// identically. Within a matching configuration every entry still
// self-validates: the snapshot carries the ACL contents its keys name,
// Import interns them by content, and lookups compare full keys, so an
// entry replays only where the rebuilt engine encodes the same contents.
//
// A snapshot holds verdicts only. The change-impact baseline
// (lastPairs) is not carried, so the first post-restore check reports
// no edit scope; unknown verdicts are never cached, in memory or on
// disk; and memoized witnesses are not carried, so a restored violating
// FEC re-derives its counterexample exactly as a cold run does.

// VerdictEntry is one exported cache entry: the FEC's content key and
// the verdict recorded under it. Key words reference the snapshot's
// pair table — one word per distinct binding the FEC's paths cross, in
// first-crossing order, 0 for an unbound binding or w for Pairs[w-1],
// the binding's encoded (before, after) ACL pair.
type VerdictEntry struct {
	Key       []uint64
	Violating bool
}

// VerdictSnapshot is the exportable state of a bound VerdictCache.
// ACLs keep the cache table's order, pairs are sorted by their ACL
// indices, and Entries[i] lists FEC i's cached verdicts sorted by key, so
// exporting the same cache twice yields identical values (and identical
// encoded bytes downstream).
type VerdictSnapshot struct {
	// Config digests the configuration the entries were computed under;
	// Import refuses an engine whose digest differs.
	Config string
	// NFEC is the FEC count of the generation structure (== len(Entries)).
	NFEC int
	// ACLs holds each distinct encoded ACL content the pairs reference,
	// once.
	ACLs []*acl.ACL
	// Pairs is the key alphabet: the (before, after) ACL pairs that
	// Entries' key words reference, as indices into ACLs.
	Pairs [][2]uint32
	// Entries holds each FEC's cached verdicts.
	Entries [][]VerdictEntry
}

// NumEntries counts the verdicts across all FECs.
func (s *VerdictSnapshot) NumEntries() int {
	n := 0
	for _, ents := range s.Entries {
		n += len(ents)
	}
	return n
}

// verdictSnapshotDigest fingerprints everything a cached verdict
// depends on beyond its own content key: the cacheConfig (encoding
// mode + control intents), the scoped ACL content of Before, the binding
// index's structure word (a key word is read against its FEC's distinct
// bindings, and what those bindings mean to Equation 3 rests on every
// path's binding sequence and every FEC's classes), and the FEC count.
// Memoized on the engine: everything digested is fixed at engine
// construction, and a snapshotting daemon recomputes the digest on every
// periodic Export.
func (e *Engine) verdictSnapshotDigest(nfec int) string {
	if e.snapDigest != "" && e.snapDigestN == nfec {
		return e.snapDigest
	}
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0x1f // field separator: "ab"+"c" != "a"+"bc"
		h *= prime64
	}
	mix(e.cacheConfig())
	mix(e.networkFingerprint(e.Before))
	h ^= e.bindingIndex().structure
	h *= prime64
	mix(strconv.Itoa(nfec))
	e.snapDigest, e.snapDigestN = fmt.Sprintf("%016x", h), nfec
	return e.snapDigest
}

// Export snapshots the cache as bound to e, or nil when there is
// nothing exportable: no cache, an unbound (never used) cache, or a
// cache bound to a different engine or configuration.
func (vc *VerdictCache) Export(e *Engine) *VerdictSnapshot {
	if vc == nil || e == nil {
		return nil
	}
	nfec := e.NumFECs()
	digest := e.verdictSnapshotDigest(nfec)
	cfg := e.cacheConfig()
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if !vc.bound || vc.before != e.Before || vc.scope != e.Scope || vc.cfg != cfg || len(vc.byFEC) != nfec {
		return nil
	}
	snap := &VerdictSnapshot{
		Config:  digest,
		NFEC:    nfec,
		Entries: make([][]VerdictEntry, nfec),
	}
	used := map[uint64]bool{}
	for i, m := range vc.byFEC {
		if len(m) == 0 {
			continue
		}
		ents := make([]VerdictEntry, 0, len(m))
		for _, bucket := range m {
			for _, ent := range bucket {
				for _, w := range ent.key {
					if w != 0 {
						used[w] = true
					}
				}
				ents = append(ents, VerdictEntry{
					Key:       append([]uint64(nil), ent.key...),
					Violating: ent.violating,
				})
			}
		}
		snap.Entries[i] = ents
	}
	// Canonicalize the key alphabet: the referenced pairs in key-word order
	// — by (before, after) table IDs — and the ACLs they name in table
	// order. Keys are rewritten to the canonical pair references, then each
	// FEC's entries sort by length and rewritten key. Import interns a
	// snapshot's ACLs in its order, so a fresh cache exports again exactly
	// what it imported.
	words := make([]uint64, 0, len(used))
	for w := range used {
		words = append(words, w)
	}
	slices.Sort(words)
	aclIdx := map[int32]uint32{}
	var ids []int32
	for _, w := range words {
		for _, id := range wordPair(w) {
			if _, ok := aclIdx[id]; !ok {
				aclIdx[id] = 0
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids)
	reps := vc.acls.view()
	snap.ACLs = make([]*acl.ACL, len(ids))
	for n, id := range ids {
		snap.ACLs[n] = reps[id].Clone()
		aclIdx[id] = uint32(n)
	}
	remap := make(map[uint64]uint64, len(words))
	snap.Pairs = make([][2]uint32, len(words))
	for n, w := range words {
		ids := wordPair(w)
		snap.Pairs[n] = [2]uint32{aclIdx[ids[0]], aclIdx[ids[1]]}
		remap[w] = uint64(n + 1)
	}
	for _, ents := range snap.Entries {
		for _, ve := range ents {
			for k, w := range ve.Key {
				if w != 0 {
					ve.Key[k] = remap[w]
				}
			}
		}
		slices.SortFunc(ents, func(a, b VerdictEntry) int {
			return cmp.Or(cmp.Compare(len(a.Key), len(b.Key)), slices.Compare(a.Key, b.Key))
		})
	}
	return snap
}

// Import loads a snapshot into the cache and binds it to e, replacing
// any previous contents. It refuses (leaving the cache reset and bound
// to e, i.e. a cold start) when the snapshot's digest or FEC count does
// not match the engine — a restored cache may only ever miss, never
// replay verdicts computed under another configuration.
func (vc *VerdictCache) Import(e *Engine, snap *VerdictSnapshot) error {
	if vc == nil {
		return errors.New("core: no verdict cache to import into")
	}
	if e == nil {
		return errors.New("core: no engine to bind the imported cache to")
	}
	if snap == nil {
		return errors.New("core: nil verdict snapshot")
	}
	nfec := e.NumFECs()
	cfg := e.cacheConfig()
	vc.mu.Lock()
	defer vc.mu.Unlock()
	// Whatever happens below, the cache ends bound to e with no stale
	// generation state — an import failure is a clean cold start, not a
	// poisoned binding.
	vc.bound = true
	vc.before, vc.scope, vc.cfg = e.Before, e.Scope, cfg
	vc.byFEC = make([]map[uint64][]*fecVerdict, nfec)
	vc.lastPairs = nil
	if snap.NFEC != nfec || len(snap.Entries) != nfec {
		return fmt.Errorf("core: verdict snapshot has %d FECs, engine has %d", snap.NFEC, nfec)
	}
	if want := e.verdictSnapshotDigest(nfec); snap.Config != want {
		return fmt.Errorf("core: verdict snapshot config %s does not match engine %s", snap.Config, want)
	}
	// Intern the snapshot's ACLs by content and rewrite key words to this
	// cache's IDs. remap[i] is the live key word for snapshot pair i.
	ids := make([]int32, len(snap.ACLs))
	for i, a := range snap.ACLs {
		ids[i] = vc.acls.intern(a)
	}
	remap := make([]uint64, len(snap.Pairs))
	for i, pair := range snap.Pairs {
		if int(pair[0]) >= len(ids) || int(pair[1]) >= len(ids) {
			return fmt.Errorf("core: verdict snapshot pair %d references ACL %d of %d", i, max(pair[0], pair[1]), len(ids))
		}
		remap[i] = pairWord([2]int32{ids[pair[0]], ids[pair[1]]})
	}
	// Keys are rewritten into fresh live key words, leaving the snapshot
	// as it was handed over.
	for i, ents := range snap.Entries {
		for _, en := range ents {
			key := make([]uint64, len(en.Key))
			for k, w := range en.Key {
				if w > uint64(len(remap)) {
					// A key word referencing no pair can never equal a
					// genuinely derived key; reject the snapshot rather
					// than carry undefined entries (the cache stays
					// bound and empty — a clean cold start).
					vc.byFEC = make([]map[uint64][]*fecVerdict, nfec)
					return fmt.Errorf("core: verdict snapshot key references pair %d of %d", w, len(snap.Pairs))
				}
				if w != 0 {
					key[k] = remap[w-1]
				}
			}
			vc.insertLocked(i, &fecVerdict{key: key, violating: en.Violating})
		}
	}
	return nil
}

// ExportVerdicts exports the engine's bound verdict cache (nil when
// there is no cache or nothing exportable). See VerdictCache.Export.
func (e *Engine) ExportVerdicts() *VerdictSnapshot {
	if e.Opts.Verdicts == nil {
		return nil
	}
	return e.Opts.Verdicts.Export(e)
}

// ImportVerdicts loads a snapshot into the engine's verdict cache and
// binds it. See VerdictCache.Import.
func (e *Engine) ImportVerdicts(snap *VerdictSnapshot) error {
	if e.Opts.Verdicts == nil {
		return errors.New("core: engine has no verdict cache installed")
	}
	return e.Opts.Verdicts.Import(e, snap)
}
