package store_test

import (
	"strings"
	"sync"
	"testing"

	"jinjing/internal/core"
	"jinjing/internal/papernet"
	"jinjing/internal/store"
)

// The restore path's safety contract, fuzzed: arbitrary bytes — and,
// more adversarially, mutations of a valid snapshot — fed to
// Decode+Import must yield a cold start (a structured error) or a
// cache whose replayed verdicts are byte-identical to a cold check.
// Never a panic, and never an entry that changes a verdict. This is
// the same agreement surface the PR 4 incremental fuzz harness pins
// for in-memory warm engines (checkSignature equality against a fresh
// cold engine), applied to the durable path.

var fuzzBaseline struct {
	once sync.Once
	// valid is the canonical encoded snapshot used to seed mutations, and
	// [aclLo, aclHi) its ACL contents and pair table.
	valid        []byte
	aclLo, aclHi int
	// want is the cold check signature every successful restore must
	// reproduce.
	want string
}

func baseline(tb testing.TB) ([]byte, string) {
	fuzzBaseline.once.Do(func() {
		before := papernet.Build()
		after := paperUpdate(before)
		opts := core.DefaultOptions()
		opts.FindAllViolations = true
		opts.Verdicts = core.NewVerdictCache()
		warm := core.New(before, after, papernet.Scope(), opts)
		warm.Check()
		snap := warm.ExportVerdicts()
		if snap == nil {
			tb.Fatal("no baseline snapshot")
		}
		fuzzBaseline.valid = store.Encode(snap)
		fuzzBaseline.aclLo, fuzzBaseline.aclHi = aclSection(snap)

		coldOpts := core.DefaultOptions()
		coldOpts.FindAllViolations = true
		cold := core.New(before.Clone(), after.Clone(), papernet.Scope(), coldOpts).Check()
		fuzzBaseline.want = restoreSignature(cold)
	})
	return fuzzBaseline.valid, fuzzBaseline.want
}

// restoreSignature canonicalizes a check result the way the PR 4
// harness does: verdict, completeness, every violation packet with its
// classes and divergent paths, every unknown.
func restoreSignature(res *core.CheckResult) string {
	var b strings.Builder
	b.WriteString("consistent=")
	if res.Consistent {
		b.WriteString("t")
	} else {
		b.WriteString("f")
	}
	b.WriteString(" complete=")
	if res.Complete {
		b.WriteString("t")
	} else {
		b.WriteString("f")
	}
	b.WriteString("\n")
	for _, v := range res.Violations {
		b.WriteString("pkt=" + v.Packet.String() + " classes=")
		for _, c := range v.Classes {
			b.WriteString(c.String() + ",")
		}
		b.WriteString(" paths=[")
		for _, p := range v.Paths {
			b.WriteString(p.Key() + " ")
		}
		b.WriteString("]\n")
	}
	for _, u := range res.Unknown {
		b.WriteString("unknown reason=" + u.Reason + "\n")
	}
	return b.String()
}

// restoreAndCheck runs the full restore path on raw snapshot bytes:
// decode, import into a freshly built engine, and — when both succeed
// — a warm check whose signature must equal the cold baseline. It
// reports whether the bytes restored successfully.
func restoreAndCheck(t *testing.T, data []byte, want string) bool {
	t.Helper()
	snap, err := store.Decode(data)
	if err != nil {
		return false // cold start; exactly what damaged bytes must yield
	}
	before := papernet.Build()
	after := paperUpdate(before)
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.Verdicts = core.NewVerdictCache()
	restored := core.New(before, after, papernet.Scope(), opts)
	if err := restored.ImportVerdicts(snap); err != nil {
		// Refused: must still leave a usable cold engine.
		res := restored.Check()
		if got := restoreSignature(res); got != want {
			t.Fatalf("post-refusal cold check diverged:\ngot:\n%s\nwant:\n%s", got, want)
		}
		return false
	}
	res := restored.Check()
	if got := restoreSignature(res); got != want {
		t.Fatalf("restored check diverged from cold baseline:\ngot:\n%s\nwant:\n%s", got, want)
	}
	return true
}

// FuzzSnapshotRestore feeds arbitrary bytes to the restore path. The
// checksum turns almost every mutation into a CorruptError before the
// payload is parsed, so each input is also decoded resealed — with a
// checksum matching its payload — which must not panic either, through
// the ACL section, the pair table and the entries, Import and a check.
// A resealed input is a deliberate forgery the checksum cannot catch, so
// its verdicts are not held to the cold baseline.
func FuzzSnapshotRestore(f *testing.F) {
	valid, _ := baseline(f)
	lo, hi := fuzzBaseline.aclLo, fuzzBaseline.aclHi
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:20]) // header only, payload gone
	mut := append([]byte(nil), valid...)
	mut[8] = 0x7f // version bump
	f.Add(mut)
	mut2 := append([]byte(nil), valid...)
	mut2[len(mut2)-1] ^= 0x40 // payload bit flip
	f.Add(mut2)
	f.Add(reseal(valid[:(lo+hi)/2])) // cut inside the ACL section
	mut3 := append([]byte(nil), valid...)
	mut3[lo+4] = 2 // first ACL's text cut to two bytes
	f.Add(reseal(mut3))
	mut4 := append([]byte(nil), valid...)
	mut4[hi-1] ^= 0x01 // last pair's after-ACL index
	f.Add(reseal(mut4))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, want := baseline(t)
		restoreAndCheck(t, data, want)
		snap, err := store.Decode(reseal(data))
		if err != nil {
			if !store.IsCorrupt(err) && !store.IsStale(err) {
				t.Fatalf("resealed input: unstructured error %v", err)
			}
			return
		}
		before := papernet.Build()
		opts := core.DefaultOptions()
		opts.FindAllViolations = true
		opts.Verdicts = core.NewVerdictCache()
		e := core.New(before, paperUpdate(before), papernet.Scope(), opts)
		e.ImportVerdicts(snap) //nolint:errcheck // a refusal is a cold start
		e.Check()
	})
}

// TestSnapshotRestoreMutationSweep is the deterministic arm of the same
// contract, run on every `go test`: the valid snapshot itself must
// restore and replay byte-identically; every truncation and a sweep of
// bit flips must yield cold start or an identical replay. The flips in
// the ACL section and the pair table are also swept resealed, so they
// reach the structural decoder. There a flip fails to decode, leaves the
// content a key names as it was (acl.Parse canonicalizes a prefix with
// host bits set), or changes it, which can only make the key miss — the
// baseline holds one entry per FEC, so no key can become another entry's.
func TestSnapshotRestoreMutationSweep(t *testing.T) {
	valid, want := baseline(t)
	if !restoreAndCheck(t, valid, want) {
		t.Fatal("the canonical valid snapshot failed to restore")
	}
	for n := 0; n < len(valid); n += 7 {
		restoreAndCheck(t, valid[:n], want)
	}
	for off := 0; off < len(valid); off++ {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 1 << (off % 8)
		restoreAndCheck(t, mut, want)
	}
	restored, corrupt := 0, 0
	for off := fuzzBaseline.aclLo; off < fuzzBaseline.aclHi; off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 1 << bit
			if restoreAndCheck(t, reseal(mut), want) {
				restored++
			} else {
				corrupt++
			}
		}
	}
	if restored == 0 || corrupt == 0 {
		t.Fatalf("resealed ACL-section flips: %d restored, %d refused; the sweep should see both", restored, corrupt)
	}
}
