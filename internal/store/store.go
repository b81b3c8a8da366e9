// Package store persists core.VerdictSnapshot values — a daemon
// session's cached verdicts and nothing else — durably: a versioned,
// checksummed binary encoding written atomically (temp file + fsync +
// rename + parent-directory fsync), so a reader sees either
// the previous complete snapshot or the new complete snapshot, never a
// torn one. The decoder is defensive — every length field is validated
// against the remaining payload before allocation, a checksum guards
// the whole payload against truncation and bit flips, and a version
// gate separates "corrupt" from "written by a different release" — so
// hostile or damaged bytes yield a structured error, never a panic or
// a silently wrong cache entry. The jinjingd daemon treats any Read
// error as a cold start.
//
// Wire layout (all little-endian):
//
//	offset  size  field
//	0       8     magic "jjvcsnp\n"
//	8       2     version (currently 4)
//	10      2     reserved (zero)
//	12      8     CRC-32C of the payload (zero-extended)
//	20      ...   payload
//
// Payload:
//
//	u32 len(config) + config bytes
//	u32 nfec
//	u32 nacls, nacls × (uvarint len + ACL text)   ACL contents (ACLs)
//	u32 npairs, npairs × (uvarint, uvarint)      ACL-index pairs (Pairs)
//	per FEC: uvarint count, then per entry:
//	  u8 flags (bit0 violating; other bits invalid)
//	  uvarint nslots, nslots × uvarint key word
//	  (0 = unbound slot, w ≤ npairs = Pairs[w-1])
//
// Each distinct ACL content the keys name is stored once, in the rule
// syntax the network JSON already carries (acl.ACL.String, read back
// with acl.Parse), and a pair names its before and after ACL by index.
// An ACL text that does not parse, or a pair index past the ACL list, is
// corrupt.
//
// Verdict key words are already references into the snapshot's pair
// table (core.VerdictSnapshot.Pairs) — one per binding slot — so each
// slot is one varint. The decoder validates every reference against the
// table; a word past it (which Export never produces) is corrupt.
//
// Version 1 stored 64-bit ACL fingerprint pairs instead of contents, and
// its keys could name two different ACLs alike. Version 2 carried a flag
// for verdicts settled without a complete decision procedure, which no
// entry has any more. Version 3 carried memoized witness packets and an
// escape for key words past the pair table. A file of any of these
// versions decodes to a StaleError: its session restores cold.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/faultinject"
)

// Version is the current snapshot format version. A file carrying any
// other version decodes to a StaleError — the daemon falls back to a
// cold start rather than guessing at another release's layout.
const Version = 4

const (
	magic      = "jjvcsnp\n"
	headerSize = len(magic) + 2 + 2 + 8

	// maxConfigLen bounds the config digest string; the engine emits a
	// 16-hex-char digest, so anything past this is hostile input.
	maxConfigLen = 1 << 12
)

// CorruptError reports a snapshot whose bytes cannot be trusted: bad
// magic, a failed checksum (truncation, bit flip), or a structurally
// invalid payload.
type CorruptError struct{ Reason string }

func (e *CorruptError) Error() string { return "store: corrupt snapshot: " + e.Reason }

// StaleError reports a structurally sound snapshot written under a
// different format version.
type StaleError struct{ Version uint16 }

func (e *StaleError) Error() string {
	return fmt.Sprintf("store: snapshot version %d (want %d)", e.Version, Version)
}

// IsCorrupt reports whether err is a CorruptError.
func IsCorrupt(err error) bool {
	var c *CorruptError
	return errors.As(err, &c)
}

// IsStale reports whether err is a StaleError.
func IsStale(err error) bool {
	var s *StaleError
	return errors.As(err, &s)
}

// flagViolating is an entry's one flag bit.
const flagViolating = 1 << 0

// Encode serializes a snapshot. The encoding is deterministic: equal
// snapshots (core.Export canonicalizes the pair table and sorts each
// FEC's entries) encode to equal bytes. A key word past the pair table,
// which Export never produces, encodes but does not decode.
func Encode(snap *core.VerdictSnapshot) []byte {
	var payload []byte
	u32 := func(v uint32) { payload = binary.LittleEndian.AppendUint32(payload, v) }
	uv := func(v uint64) { payload = binary.AppendUvarint(payload, v) }
	u32(uint32(len(snap.Config)))
	payload = append(payload, snap.Config...)
	u32(uint32(snap.NFEC))
	u32(uint32(len(snap.ACLs)))
	for _, a := range snap.ACLs {
		text := a.String()
		uv(uint64(len(text)))
		payload = append(payload, text...)
	}
	u32(uint32(len(snap.Pairs)))
	for _, pair := range snap.Pairs {
		uv(uint64(pair[0]))
		uv(uint64(pair[1]))
	}
	for _, ents := range snap.Entries {
		uv(uint64(len(ents)))
		for _, ent := range ents {
			var flags byte
			if ent.Violating {
				flags |= flagViolating
			}
			payload = append(payload, flags)
			uv(uint64(len(ent.Key)))
			for _, w := range ent.Key {
				uv(w)
			}
		}
	}

	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint16(out, 0)
	out = binary.LittleEndian.AppendUint64(out, checksum(payload))
	return append(out, payload...)
}

// crcTable is the Castagnoli polynomial, chosen for its hardware
// instruction on the common platforms — the checksum pass must not
// dominate restore time.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum is CRC-32C over the payload, zero-extended into the
// header's 8-byte checksum field.
func checksum(data []byte) uint64 {
	return uint64(crc32.Checksum(data, crcTable))
}

// decoder walks the payload with bounds checks on every read.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) u32(what string) (uint32, error) {
	if d.remaining() < 4 {
		return 0, &CorruptError{Reason: "truncated " + what}
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) byte(what string) (byte, error) {
	if d.remaining() < 1 {
		return 0, &CorruptError{Reason: "truncated " + what}
	}
	v := d.data[d.off]
	d.off++
	return v, nil
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, &CorruptError{Reason: "truncated or overlong " + what}
	}
	d.off += n
	return v, nil
}

// Decode parses snapshot bytes, validating magic, version, checksum,
// and payload structure. Errors are CorruptError or StaleError.
func Decode(data []byte) (*core.VerdictSnapshot, error) {
	if len(data) < headerSize {
		return nil, &CorruptError{Reason: fmt.Sprintf("short file (%d bytes)", len(data))}
	}
	if string(data[:len(magic)]) != magic {
		return nil, &CorruptError{Reason: "bad magic"}
	}
	ver := binary.LittleEndian.Uint16(data[len(magic):])
	if ver != Version {
		return nil, &StaleError{Version: ver}
	}
	sum := binary.LittleEndian.Uint64(data[len(magic)+4:])
	payload := data[headerSize:]
	if checksum(payload) != sum {
		return nil, &CorruptError{Reason: "checksum mismatch"}
	}

	d := &decoder{data: payload}
	clen, err := d.u32("config length")
	if err != nil {
		return nil, err
	}
	if int(clen) > maxConfigLen || int(clen) > d.remaining() {
		return nil, &CorruptError{Reason: fmt.Sprintf("config length %d out of range", clen)}
	}
	cfg := string(d.data[d.off : d.off+int(clen)])
	d.off += int(clen)

	nfec, err := d.u32("fec count")
	if err != nil {
		return nil, err
	}
	// Each FEC contributes at least a 1-byte entry count.
	if int64(nfec) > int64(d.remaining()) {
		return nil, &CorruptError{Reason: fmt.Sprintf("fec count %d exceeds payload", nfec)}
	}
	nacls, err := d.u32("acl count")
	if err != nil {
		return nil, err
	}
	// Each ACL is at least a one-byte text length.
	if int64(nacls) > int64(d.remaining()) {
		return nil, &CorruptError{Reason: fmt.Sprintf("acl count %d exceeds payload", nacls)}
	}
	acls := make([]*acl.ACL, nacls)
	for i := range acls {
		n, err := d.uvarint("acl length")
		if err != nil {
			return nil, err
		}
		if n > uint64(d.remaining()) {
			return nil, &CorruptError{Reason: fmt.Sprintf("acl %d: length %d exceeds payload", i, n)}
		}
		text := string(d.data[d.off : d.off+int(n)])
		d.off += int(n)
		if acls[i], err = acl.Parse(text); err != nil {
			return nil, &CorruptError{Reason: fmt.Sprintf("acl %d: %v", i, err)}
		}
	}
	npairs, err := d.u32("pair table size")
	if err != nil {
		return nil, err
	}
	if int64(npairs)*2 > int64(d.remaining()) {
		return nil, &CorruptError{Reason: fmt.Sprintf("pair table size %d exceeds payload", npairs)}
	}
	table := make([][2]uint32, npairs)
	for i := range table {
		for k := range table[i] {
			v, err := d.uvarint("pair table entry")
			if err != nil {
				return nil, err
			}
			if v >= uint64(nacls) {
				return nil, &CorruptError{Reason: fmt.Sprintf("pair %d references acl %d of %d", i, v, nacls)}
			}
			table[i][k] = uint32(v)
		}
	}
	snap := &core.VerdictSnapshot{
		Config:  cfg,
		NFEC:    int(nfec),
		ACLs:    acls,
		Pairs:   table,
		Entries: make([][]core.VerdictEntry, nfec),
	}
	// All key words go into one arena — per-key allocations dominate
	// decode time otherwise. Every word takes at least one payload byte,
	// so the remaining payload bounds the arena, append never relocates
	// it, and each entry's key is carved out as soon as it is read.
	arena := make([]uint64, 0, d.remaining())
	for i := 0; i < int(nfec); i++ {
		count, err := d.uvarint("entry count")
		if err != nil {
			return nil, err
		}
		// Each entry is at least flags(1) + key/slot length(1) bytes.
		if count*2 > uint64(d.remaining()) {
			return nil, &CorruptError{Reason: fmt.Sprintf("fec %d: entry count %d exceeds payload", i, count)}
		}
		if count == 0 {
			continue
		}
		ents := make([]core.VerdictEntry, 0, count)
		for j := uint64(0); j < count; j++ {
			flags, err := d.byte("flags")
			if err != nil {
				return nil, err
			}
			if flags&^byte(flagViolating) != 0 {
				return nil, &CorruptError{Reason: fmt.Sprintf("fec %d: invalid flags %#x", i, flags)}
			}
			lo := len(arena)
			klen, err := d.uvarint("key length")
			if err != nil {
				return nil, err
			}
			// Each key word is at least 1 byte.
			if klen > uint64(d.remaining()) {
				return nil, &CorruptError{Reason: fmt.Sprintf("fec %d: key length %d exceeds payload", i, klen)}
			}
			for k := uint64(0); k < klen; k++ {
				w, err := d.uvarint("key word")
				if err != nil {
					return nil, err
				}
				if w > uint64(len(table)) {
					return nil, &CorruptError{Reason: fmt.Sprintf("fec %d: key word %d exceeds pair table (%d)", i, w, len(table))}
				}
				arena = append(arena, w)
			}
			ent := core.VerdictEntry{Violating: flags&flagViolating != 0}
			if hi := len(arena); hi > lo {
				ent.Key = arena[lo:hi:hi]
			}
			ents = append(ents, ent)
		}
		snap.Entries[i] = ents
	}
	if d.remaining() != 0 {
		return nil, &CorruptError{Reason: fmt.Sprintf("%d trailing payload bytes", d.remaining())}
	}
	return snap, nil
}

// Write encodes snap and writes it to path atomically. On any error
// (or a crash at any point) the previous file at path — if one existed
// — remains intact and readable.
func Write(path string, snap *core.VerdictSnapshot) error {
	data := Encode(snap)
	switch faultinject.Fire(faultinject.StoreSnapshotWrite) {
	case faultinject.Panic:
		// Crash mid-snapshot: a torn temp file is on disk, the committed
		// file is untouched. Restart-recovery tests assert the stray temp
		// never shadows or corrupts the real snapshot.
		os.WriteFile(path+".crash-tmp", data[:len(data)/2], 0o644) //nolint:errcheck // crashing anyway
		panic("faultinject: injected store.snapshot.write crash")
	case faultinject.Transient, faultinject.Timeout:
		return fmt.Errorf("store: injected transient snapshot-write fault")
	}
	return WriteFileAtomic(path, data)
}

// Read loads and decodes the snapshot at path. Besides decode errors
// it returns the underlying *PathError when the file cannot be read
// (notably fs.ErrNotExist, which callers treat as "no snapshot" rather
// than corruption).
func Read(path string) (*core.VerdictSnapshot, error) {
	switch faultinject.Fire(faultinject.StoreRestore) {
	case faultinject.Panic:
		panic("faultinject: injected store.restore crash")
	case faultinject.Transient, faultinject.Timeout:
		return nil, fmt.Errorf("store: injected transient restore fault")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// WriteFileAtomic writes data to path through a same-directory temp
// file, fsync, rename, and parent-directory fsync — the
// all-or-nothing discipline every durable file in the state directory
// (snapshots, session manifests) goes through.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()        //nolint:errcheck // already failing
		os.Remove(tmpName) //nolint:errcheck // best-effort
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName) //nolint:errcheck // best-effort
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName) //nolint:errcheck // best-effort
		return err
	}
	// Persist the rename itself. Some platforms/filesystems refuse
	// directory fsync; the rename is still atomic, so best-effort.
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // best-effort durability of the rename
		d.Close()
	}
	return nil
}
