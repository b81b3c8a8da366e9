package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"jinjing/internal/header"
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
// (networkFingerprint), the structural path set, and the FEC count —
// and Import refuses to bind unless the rebuilt engine digests
// identically. Within a matching configuration every entry still
// self-validates: lookups compare full content keys, so a snapshot can
// at worst miss, never replay a wrong verdict.
//
// Deliberately excluded from the snapshot:
//   - The change-impact generation state (lastPairs/lastGen): adopting
//     a lastGen entry replays it without re-deriving its key, so a
//     tampered-but-well-formed snapshot could otherwise inject wrong
//     verdicts through the one path that skips key validation. The
//     first post-restore check runs key-addressed lookups instead —
//     the same hit rate, one extra key derivation per FEC.
//   - Unknown verdicts: they are never cached in memory either
//     (entries stay nil), so the invariant survives the round trip.
//
// Memoized witnesses ARE carried — as bare packets, never as trusted
// violations. Re-deriving a counterexample costs a solver (or
// set-algebra) pass per violating FEC, which would make the first
// post-restore find-all check nearly as slow as a cold one; instead
// witnessFor validates a restored packet by direct concrete evaluation
// (it must flip a path's desired-vs-after decision inside the FEC's
// class region) and re-derives the flipped-path list itself, falling
// back to full recomputation when validation fails. Stored bytes still
// decide nothing: a damaged or tampered packet is dropped, and an
// accepted one is by construction a genuine counterexample.

// VerdictEntry is one exported cache entry: the FEC's content key and
// the verdict recorded under it. Key words reference the snapshot's
// pair table — one word per binding slot along the FEC's paths, 0 for
// an unbound slot or w for Pairs[w-1], the slot's encoded (before,
// after) ACL fingerprint pair. Witness, when set, is the memoized
// counterexample's packet — only the packet; the flipped-path list is
// re-derived and the packet itself concretely re-validated on first
// use after a restore (see witnessFor).
type VerdictEntry struct {
	Key       []uint64
	HadJob    bool
	Violating bool
	Witness   *header.Packet
}

// VerdictSnapshot is the exportable state of a bound VerdictCache.
// Entries[i] lists FEC i's cached verdicts sorted by key, and the pair
// table is rebuilt in first-reference order over them, so exporting
// the same cache twice yields identical values (and identical encoded
// bytes downstream).
type VerdictSnapshot struct {
	// Config digests the configuration the entries were computed under;
	// Import refuses an engine whose digest differs.
	Config string
	// NFEC is the FEC count of the generation structure (== len(Entries)).
	NFEC int
	// Pairs is the key alphabet: the fingerprint pairs that Entries'
	// key words reference.
	Pairs [][2]uint64
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
// mode + control intents), the scoped ACL content of Before, the
// structural path set (each FEC's key vector is parsed positionally
// against its paths' binding slots, so the path structure is part of
// the addressing scheme), and the FEC count.
// Memoized on the engine: everything digested is fixed at engine
// construction (Before, scope, controls, encoding mode, the
// Before-derived path set), and a snapshotting daemon recomputes the
// digest on every periodic Export.
func (e *Engine) verdictSnapshotDigest(nfec int) string {
	if e.snapDigest != "" && e.snapDigestN == nfec {
		return e.snapDigest
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0x1f // field separator: "ab"+"c" != "a"+"bc"
		h *= prime64
	}
	// One absorb per word: fixed-width values are self-delimiting, so no
	// separator — and no byte loop, since this runs once per slot over
	// tens of thousands of slots.
	mixInt := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(e.cacheConfig())
	mix(e.networkFingerprint(e.Before))
	// The structural part digests the key-addressing scheme itself:
	// every interned binding ID (in dense-index order), each FEC's slot
	// vector, and each FEC's path shape (keys are parsed positionally
	// against the FEC's flattened binding slots, so this is exactly what
	// a cached key's meaning depends on). Mixing the interned index —
	// one ID string per unique binding plus integer slot references — is
	// an order of magnitude less byte-hashing than the per-path hop
	// walk, which matters because Import recomputes the digest from
	// scratch on a freshly built engine after every restart.
	si := e.fecSlotIndex()
	mix(strconv.Itoa(int(si.n)))
	ids := make([]string, si.n)
	for id, j := range si.ids {
		ids[j] = id
	}
	for _, id := range ids {
		mix(id)
	}
	fecs := e.FECs()
	mix(strconv.Itoa(len(fecs)))
	for i, sl := range si.slots {
		mixInt(uint64(len(fecs[i].Paths)))
		for _, p := range fecs[i].Paths {
			mixInt(uint64(len(p.Hops)))
		}
		mixInt(uint64(len(sl)))
		for _, s := range sl {
			mixInt(uint64(s))
		}
	}
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
				ve := VerdictEntry{
					Key:       append([]uint64(nil), ent.key...),
					HadJob:    ent.hadJob,
					Violating: ent.violating,
				}
				// Carry the witness packet: from the memoized violation,
				// or forward a restored-but-never-replayed packet so a
				// snapshot→restore→snapshot cycle does not shed it.
				switch {
				case ent.wit != nil:
					pkt := ent.wit.Packet
					ve.Witness = &pkt
				case ent.witPkt != nil:
					pkt := *ent.witPkt
					ve.Witness = &pkt
				}
				ents = append(ents, ve)
			}
		}
		snap.Entries[i] = ents
	}
	// Canonicalize the key alphabet: the snapshot's pair table holds
	// only the referenced pairs, in value order, independent of the
	// cache's intern history — logically equal caches export identical
	// snapshots. Keys are rewritten to the canonical references, then
	// each FEC's entries sort by rewritten key.
	refs := make([]uint64, 0, len(used))
	for w := range used {
		refs = append(refs, w)
	}
	sort.Slice(refs, func(a, b int) bool {
		return lessPair(vc.pairTab[refs[a]-1], vc.pairTab[refs[b]-1])
	})
	remap := make(map[uint64]uint64, len(refs))
	snap.Pairs = make([][2]uint64, len(refs))
	for n, w := range refs {
		snap.Pairs[n] = vc.pairTab[w-1]
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
		sort.Slice(ents, func(a, b int) bool { return lessKey(ents[a].Key, ents[b].Key) })
	}
	return snap
}

// lessPair orders fingerprint pairs lexicographically.
func lessPair(a, b [2]uint64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// lessKey orders keys by length, then lexicographically by word.
func lessKey(a, b []uint64) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
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
	vc.lastPairs, vc.lastGen = nil, nil
	if snap.NFEC != nfec || len(snap.Entries) != nfec {
		return fmt.Errorf("core: verdict snapshot has %d FECs, engine has %d", snap.NFEC, nfec)
	}
	if want := e.verdictSnapshotDigest(nfec); snap.Config != want {
		return fmt.Errorf("core: verdict snapshot config %s does not match engine %s", snap.Config, want)
	}
	// Re-intern the snapshot's pair table and rewrite key words to this
	// cache's stable references. remap[i] is the live reference for
	// snapshot pair i.
	remap := make([]uint64, len(snap.Pairs))
	for i, pair := range snap.Pairs {
		remap[i] = vc.internPairLocked(pair)
	}
	for i, ents := range snap.Entries {
		for _, en := range ents {
			// The key slice is adopted and rewritten in place, not
			// copied: Import's producers (store.Decode, Export) both
			// hand over freshly built snapshots, and a snapshot must not
			// be mutated after Import.
			for k, w := range en.Key {
				if w == 0 {
					continue
				}
				if w > uint64(len(remap)) {
					// A key word referencing no pair can never equal a
					// genuinely derived key; reject the snapshot rather
					// than carry undefined entries (the cache stays
					// bound and empty — a clean cold start).
					vc.byFEC = make([]map[uint64][]*fecVerdict, nfec)
					return fmt.Errorf("core: verdict snapshot key references pair %d of %d", w, len(snap.Pairs))
				}
				en.Key[k] = remap[w-1]
			}
			ent := &fecVerdict{
				key:       en.Key,
				hadJob:    en.HadJob,
				violating: en.Violating,
			}
			// A restored witness packet stays unvalidated (witPkt, not
			// wit) until witnessFor concretely re-checks it; packets on
			// non-violating entries are meaningless and dropped.
			if en.Witness != nil && en.HadJob && en.Violating {
				pkt := *en.Witness
				ent.witPkt = &pkt
			}
			vc.insertLocked(i, ent)
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
