package store_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/faultinject"
	"jinjing/internal/papernet"
	"jinjing/internal/store"
	"jinjing/internal/topo"
)

// paperUpdate applies a §3.2-style update to a clone of the Figure 1
// network: hoist the D2/C1 denies up to A1 and clear them at the
// originals.
func paperUpdate(n *topo.Network) *topo.Network {
	after := n.Clone()
	a1, _ := after.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse(
		"deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, deny dst 6.0.0.0/8, permit all"))
	c1, _ := after.LookupInterface("C:1")
	c1.SetACL(topo.In, acl.PermitAll())
	return after
}

// buildSnapshot runs the paper's running example warm and exports its
// verdict cache — a realistic snapshot with violating and consistent
// verdicts.
func buildSnapshot(t testing.TB) *core.VerdictSnapshot {
	t.Helper()
	before := papernet.Build()
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.Verdicts = core.NewVerdictCache()
	e := core.New(before, paperUpdate(before), papernet.Scope(), opts)
	e.Check()
	snap := e.ExportVerdicts()
	if snap == nil || snap.NumEntries() == 0 {
		t.Fatal("no exportable snapshot from the running example")
	}
	return snap
}

func TestStoreRoundtrip(t *testing.T) {
	snap := buildSnapshot(t)
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := store.Write(path, snap); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := store.Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatal("round-tripped snapshot differs from the original")
	}
}

func TestStoreEncodeDeterministic(t *testing.T) {
	snap := buildSnapshot(t)
	a, b := store.Encode(snap), store.Encode(snap)
	if string(a) != string(b) {
		t.Fatal("two encodings of the same snapshot differ")
	}
}

func TestStoreReadMissingFile(t *testing.T) {
	_, err := store.Read(filepath.Join(t.TempDir(), "absent.snap"))
	if err == nil {
		t.Fatal("Read of a missing file succeeded")
	}
	if !os.IsNotExist(err) {
		t.Fatalf("want a not-exist error, got %v", err)
	}
	if store.IsCorrupt(err) || store.IsStale(err) {
		t.Fatalf("missing file misreported as corrupt/stale: %v", err)
	}
}

// TestStoreTruncation pins the torn-write story: every proper prefix of
// a valid snapshot file must decode to a corruption error, never to a
// snapshot or a panic.
func TestStoreTruncation(t *testing.T) {
	data := store.Encode(buildSnapshot(t))
	for n := 0; n < len(data); n++ {
		_, err := store.Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(data))
		}
		if !store.IsCorrupt(err) && !store.IsStale(err) {
			t.Fatalf("truncation to %d bytes: unexpected error type %v", n, err)
		}
	}
}

// TestStoreBitFlip pins the checksum story: flipping any single bit
// either fails decoding outright or (for the reserved header bytes the
// checksum deliberately does not cover) decodes to the identical
// snapshot — never to a silently different one.
func TestStoreBitFlip(t *testing.T) {
	snap := buildSnapshot(t)
	data := store.Encode(snap)
	for off := 0; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[off] ^= 1 << bit
			got, err := store.Decode(mut)
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(snap, got) {
				t.Fatalf("bit flip at byte %d bit %d decoded to a different snapshot", off, bit)
			}
		}
	}
}

func TestStoreVersionGate(t *testing.T) {
	data := store.Encode(buildSnapshot(t))
	mut := append([]byte(nil), data...)
	mut[8] = 0x7f // version low byte (little-endian u16 at offset 8)
	_, err := store.Decode(mut)
	if err == nil {
		t.Fatal("future-versioned snapshot decoded successfully")
	}
	if !store.IsStale(err) {
		t.Fatalf("want StaleError, got %v", err)
	}
	if store.IsCorrupt(err) {
		t.Fatal("version mismatch misreported as corruption")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("unhelpful stale error: %v", err)
	}
}

// sealed frames a payload as a snapshot file of the given version, with
// a matching checksum.
func sealed(version uint16, payload []byte) []byte {
	data := []byte("jjvcsnp\n")
	data = binary.LittleEndian.AppendUint16(data, version)
	data = binary.LittleEndian.AppendUint16(data, 0)
	data = binary.LittleEndian.AppendUint64(data, uint64(crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))))
	return append(data, payload...)
}

// onePairPayload is a one-FEC payload whose ACL list and pair table
// hold one "permit all" pair, followed by the given entry bytes.
func onePairPayload(entries ...byte) []byte {
	var p []byte
	p = binary.LittleEndian.AppendUint32(p, 16)
	p = append(p, "0123456789abcdef"...)
	p = binary.LittleEndian.AppendUint32(p, 1) // nfec
	p = binary.LittleEndian.AppendUint32(p, 1) // nacls
	p = append(p, byte(len("permit all")))
	p = append(p, "permit all"...)
	p = binary.LittleEndian.AppendUint32(p, 1) // npairs
	p = append(p, 0, 0)                        // pair (acl 0, acl 0)
	return append(p, entries...)
}

// TestStoreOldVersionsAreStale pins the upgrade path: a snapshot written
// in an earlier layout decodes to a StaleError — its session restores
// cold — never to a snapshot or a CorruptError. Version 1's key alphabet
// was 64-bit fingerprint pairs rather than ACL contents; version 2 had a
// flag bit for verdicts settled without a complete decision procedure;
// version 3 carried witness packets and raw keys.
func TestStoreOldVersionsAreStale(t *testing.T) {
	var v1 []byte
	v1 = binary.LittleEndian.AppendUint32(v1, 16)
	v1 = append(v1, "0123456789abcdef"...)
	v1 = binary.LittleEndian.AppendUint32(v1, 1) // nfec
	v1 = binary.LittleEndian.AppendUint32(v1, 1) // npairs
	v1 = binary.LittleEndian.AppendUint64(v1, 0x733815246a473619)
	v1 = binary.LittleEndian.AppendUint64(v1, 0x733815246a473619)
	v1 = append(v1, 1, 1, 1, 1)      // one entry: had-job, key [1]
	v2 := onePairPayload(1, 1, 1, 1) // one entry: had-job, key [1]
	// One violating entry with a 13-byte witness packet, key [1].
	v3 := onePairPayload(1, 0x03, 10, 0, 0, 1, 10, 0, 0, 2, 0, 80, 1, 187, 6, 1, 1)
	for version, payload := range map[uint16][]byte{1: v1, 2: v2, 3: v3} {
		t.Run(fmt.Sprintf("version=%d", version), func(t *testing.T) {
			snap, err := store.Decode(sealed(version, payload))
			if !store.IsStale(err) || store.IsCorrupt(err) {
				t.Fatalf("version-%d file: got %v, %v; want a StaleError", version, snap, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
				t.Fatalf("stale error does not name the version: %v", err)
			}
		})
	}
}

// TestStoreRejectsRetiredFlags pins that an entry flag other than
// "violating" is corrupt: bits 1 and 2 once announced a witness packet
// and a raw key, and a current snapshot holds verdicts only. Each entry
// below is well-formed under the retired meaning of its flags.
func TestStoreRejectsRetiredFlags(t *testing.T) {
	for _, flags := range []byte{0x00, 0x01} {
		snap, err := store.Decode(sealed(store.Version, onePairPayload(1, flags, 1, 1)))
		if err != nil {
			t.Fatalf("flags %#x: %v", flags, err)
		}
		if got := snap.Entries[0][0].Violating; got != (flags == 0x01) {
			t.Fatalf("flags %#x decoded violating=%v", flags, got)
		}
	}
	witness := []byte{10, 0, 0, 1, 10, 0, 0, 2, 0, 80, 1, 187, 6}
	rawKey := []byte{1, 1, 0, 0, 0, 0, 0, 0, 0} // key length 1, one u64 word
	for name, entry := range map[string][]byte{
		"witness":           append(append([]byte{1, 0x03}, witness...), 1, 1),
		"raw key":           append([]byte{1, 0x04}, rawKey...),
		"witness + raw key": append(append([]byte{1, 0x06}, witness...), rawKey...),
	} {
		snap, err := store.Decode(sealed(store.Version, onePairPayload(entry...)))
		if !store.IsCorrupt(err) || !strings.Contains(err.Error(), "invalid flags") {
			t.Fatalf("%s: got %v, %v; want a CorruptError naming the flags", name, snap, err)
		}
	}
}

// reseal rewrites a snapshot file's checksum to match its payload, so a
// deliberately damaged payload reaches the structural decoder.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) >= 20 {
		binary.LittleEndian.PutUint64(out[12:], uint64(crc32.Checksum(out[20:], crc32.MakeTable(crc32.Castagnoli))))
	}
	return out
}

// aclSection returns the byte range of a valid snapshot file that holds
// its ACL contents and pair table: after the config and the FEC count,
// up to the first FEC's entry list.
func aclSection(snap *core.VerdictSnapshot) (lo, hi int) {
	bare := *snap
	bare.Entries = make([][]core.VerdictEntry, snap.NFEC)
	return 20 + 4 + len(snap.Config) + 4, len(store.Encode(&bare)) - snap.NFEC
}

// TestStoreACLDecodeIsStructured pins that an ACL text that does not
// parse decodes to a CorruptError, never a panic or a snapshot — even
// under a valid checksum.
func TestStoreACLDecodeIsStructured(t *testing.T) {
	snap := buildSnapshot(t)
	if len(snap.ACLs) == 0 || len(snap.Pairs) == 0 {
		t.Fatal("snapshot carries no ACL contents")
	}
	data := store.Encode(snap)
	lo, hi := aclSection(snap)
	// Same-length edits inside the ACL texts keep the framing intact.
	edit := func(old, new string) []byte {
		k := bytes.Index(data[lo:hi], []byte(old))
		if k < 0 {
			t.Fatalf("no %q in the ACL section", old)
		}
		mut := append([]byte(nil), data...)
		copy(mut[lo+k:], new)
		return mut
	}
	long := append([]byte(nil), data...)
	copy(long[lo+4:], []byte{0xff, 0x7f}) // first text length past the payload
	for name, mut := range map[string][]byte{
		"bad action":          edit("deny", "dent"),
		"unknown field":       edit("dst ", "dsx "),
		"bad prefix length":   edit("/", "/x"),
		"length past payload": long,
	} {
		if got, err := store.Decode(reseal(mut)); !store.IsCorrupt(err) {
			t.Fatalf("%s: got %v, %v; want a CorruptError", name, got, err)
		}
	}
	// A pair naming an ACL past the list.
	bad := *snap
	bad.Pairs = append([][2]uint32{{uint32(len(snap.ACLs)), 0}}, snap.Pairs[1:]...)
	if got, err := store.Decode(store.Encode(&bad)); !store.IsCorrupt(err) {
		t.Fatalf("pair past the ACL list: got %v, %v; want a CorruptError", got, err)
	}
}

// TestStoreWriteReplacesAtomically pins that a rewrite replaces the
// previous snapshot wholesale and leaves no temp litter behind.
func TestStoreWriteReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	snap := buildSnapshot(t)
	if err := store.Write(path, snap); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// Mutate and rewrite.
	snap2 := *snap
	snap2.Config = "feedfacefeedface"
	if err := store.Write(path, &snap2); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got, err := store.Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Config != snap2.Config {
		t.Fatalf("read back config %q, want %q", got.Config, snap2.Config)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != "cache.snap" {
			t.Fatalf("leftover file %q after atomic writes", e.Name())
		}
	}
}

// TestFaultSnapshotWriteCrash simulates a crash mid-snapshot: the
// injected panic leaves a torn temp file behind, and the previously
// committed snapshot must read back bit-identically.
func TestFaultSnapshotWriteCrash(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	snap := buildSnapshot(t)
	if err := store.Write(path, snap); err != nil {
		t.Fatalf("Write: %v", err)
	}

	cancel := faultinject.Schedule(faultinject.StoreSnapshotWrite, faultinject.Panic)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduled store.snapshot.write panic did not fire")
			}
		}()
		snap2 := *snap
		snap2.Config = "feedfacefeedface"
		store.Write(path, &snap2) //nolint:errcheck // panics
	}()
	cancel()
	if faultinject.Hits(faultinject.StoreSnapshotWrite) == 0 {
		t.Fatal("store.snapshot.write site never fired")
	}

	got, err := store.Read(path)
	if err != nil {
		t.Fatalf("committed snapshot unreadable after crash-mid-write: %v", err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatal("committed snapshot changed under a crashed rewrite")
	}
	// The torn temp litter must itself be detectably corrupt.
	if _, err := store.Read(path + ".crash-tmp"); err == nil || !store.IsCorrupt(err) {
		t.Fatalf("torn temp file did not read as corrupt: %v", err)
	}
}

// TestFaultSnapshotWriteTransient: a clean injected failure must leave
// the destination untouched.
func TestFaultSnapshotWriteTransient(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "cache.snap")
	snap := buildSnapshot(t)
	if err := store.Write(path, snap); err != nil {
		t.Fatalf("Write: %v", err)
	}
	cancel := faultinject.Schedule(faultinject.StoreSnapshotWrite, faultinject.Transient)
	snap2 := *snap
	snap2.Config = "feedfacefeedface"
	if err := store.Write(path, &snap2); err == nil {
		t.Fatal("injected transient write fault did not surface")
	}
	cancel()
	got, err := store.Read(path)
	if err != nil || got.Config != snap.Config {
		t.Fatalf("destination changed under a failed write: %v", err)
	}
}

// TestFaultRestore: the restore site's injected faults surface as an
// error or a panic the caller can recover from — the daemon's
// rehydration treats both as a cold start.
func TestFaultRestore(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := store.Write(path, buildSnapshot(t)); err != nil {
		t.Fatalf("Write: %v", err)
	}

	cancel := faultinject.Schedule(faultinject.StoreRestore, faultinject.Transient)
	if _, err := store.Read(path); err == nil {
		t.Fatal("injected transient restore fault did not surface")
	}
	cancel()

	cancel = faultinject.Schedule(faultinject.StoreRestore, faultinject.Panic)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduled store.restore panic did not fire")
			}
		}()
		store.Read(path) //nolint:errcheck // panics
	}()
	cancel()

	// With nothing armed the snapshot still reads fine.
	if _, err := store.Read(path); err != nil {
		t.Fatalf("Read after faults: %v", err)
	}
}
