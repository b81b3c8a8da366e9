package declog

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestAppendParseRoundTrip writes records through the logger and reads
// them back, checking the stamped fields and the typed payload.
func TestAppendParseRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok := true
	rec := &Record{
		Primitive:    "check",
		ConfigBefore: "00000000deadbeef",
		ConfigAfter:  "00000000cafef00d",
		Consistent:   &ok,
		Complete:     &ok,
		FECs:         5,
		SolvedFECs:   3,
		FECLog: []FECDecision{
			{FEC: 0, Verdict: "consistent", Route: "skip"},
			{FEC: 1, Verdict: "consistent", Route: "pset", SolveNS: 123},
			{FEC: 2, Verdict: "unknown", Route: "sat-bailout", Reason: "deadline"},
		},
		Unknown: []FECDecision{{FEC: 2, Verdict: "unknown", Route: "sat-bailout", Reason: "deadline"}},
		WallNS:  42,
	}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Primitive: "fix", Error: "refused"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, skipped, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("%d damaged lines in a clean ledger", skipped)
	}
	if len(recs) != 2 {
		t.Fatalf("want 2 records, got %d", len(recs))
	}
	got := recs[0]
	if got.Type != "decision" || got.Seq != 1 || got.Time.IsZero() {
		t.Fatalf("stamped fields wrong: %+v", got)
	}
	if got.Primitive != "check" || got.ConfigBefore != "00000000deadbeef" ||
		got.Consistent == nil || !*got.Consistent || got.FECs != 5 {
		t.Fatalf("payload lost: %+v", got)
	}
	if len(got.FECLog) != 3 || got.FECLog[1].SolveNS != 123 || got.FECLog[2].Reason != "deadline" {
		t.Fatalf("fec log lost: %+v", got.FECLog)
	}
	if recs[1].Seq != 2 || recs[1].Error != "refused" {
		t.Fatalf("second record wrong: %+v", recs[1])
	}
}

// TestAppendAfterReopen continues the file rather than truncating it,
// and a closed logger refuses appends.
func TestAppendAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Primitive: "check"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append(&Record{Primitive: "check"}); err == nil {
		t.Fatal("append after close must fail")
	}

	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(&Record{Primitive: "generate"}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	recs, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Primitive != "check" || recs[1].Primitive != "generate" {
		t.Fatalf("reopen must append: %+v", recs)
	}
}

// TestRotation drives the size threshold: the live file rotates into
// path.1, path.2, ... capped at MaxBackups, and every surviving file
// still parses.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "decisions.jsonl")
	l, err := Open(path, Options{MaxBytes: 200, MaxBackups: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Each record is ~90 bytes; 10 appends force several rotations.
	for i := 0; i < 10; i++ {
		if err := l.Append(&Record{Primitive: "check", ConfigBefore: "0123456789abcdef"}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	for _, p := range []string{path, path + ".1", path + ".2"} {
		recs, skipped, err := ReadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if skipped != 0 {
			t.Fatalf("%s: %d damaged lines after rotation", p, skipped)
		}
		if len(recs) == 0 {
			t.Fatalf("%s: empty after rotation", p)
		}
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Fatalf("backup beyond MaxBackups must not exist: %v", err)
	}

	// Sequence numbers stay monotonic across rotations within one logger.
	recs, _, _ := ReadFile(path)
	prev := int64(0)
	for _, r := range recs {
		if r.Seq <= prev {
			t.Fatalf("seq not monotonic: %d after %d", r.Seq, prev)
		}
		prev = r.Seq
	}
}

// TestTornTail simulates a crash mid-append: the final line is cut at
// every possible byte offset, and the replay must return every complete
// record with exactly the torn line counted as skipped — never an error
// and never a lost complete record.
func TestTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(&Record{Primitive: "check", ConfigBefore: "0123456789abcdef"}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the start of the final record's line.
	tail := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '\n') + 1
	for cut := tail + 1; cut < len(data)-1; cut++ {
		recs, skipped := Parse(data[:cut])
		if len(recs) != 2 {
			t.Fatalf("cut at %d: want the 2 complete records, got %d", cut, len(recs))
		}
		if skipped != 1 {
			t.Fatalf("cut at %d: want 1 skipped (the torn tail), got %d", cut, skipped)
		}
	}
	// The undamaged file replays everything.
	recs, skipped, err := ReadFile(path)
	if err != nil || skipped != 0 || len(recs) != 3 {
		t.Fatalf("clean replay: recs=%d skipped=%d err=%v", len(recs), skipped, err)
	}
	// Damage in the middle skips only that record.
	mid := append([]byte(nil), data...)
	lines := bytes.SplitAfter(data, []byte("\n"))
	mid = append(append(append([]byte(nil), lines[0]...), []byte("{\"type\": gar bage}\n")...), lines[2]...)
	recs, skipped = Parse(mid)
	if len(recs) != 2 || skipped != 1 {
		t.Fatalf("mid-file damage: recs=%d skipped=%d", len(recs), skipped)
	}
}

// TestRotationConcurrentWriters hammers one logger from many goroutines
// with rotation forced often (tiny MaxBytes): no append may fail, and
// every surviving file must parse with zero damaged lines — rotation
// must never tear a record. Run under -race this is also the data-race
// check on the rotate path.
func TestRotationConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "decisions.jsonl")
	l, err := Open(path, Options{MaxBytes: 256, MaxBackups: 4})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers*each)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append(&Record{Primitive: "check", ConfigBefore: "0123456789abcdef"}); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	l.Close()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append failed: %v", err)
	}
	total := 0
	for _, p := range []string{path, path + ".1", path + ".2", path + ".3", path + ".4"} {
		recs, skipped, err := ReadFile(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if skipped != 0 {
			t.Fatalf("%s: %d torn records under concurrent rotation", p, skipped)
		}
		total += len(recs)
	}
	if total == 0 {
		t.Fatal("no records survived at all")
	}
	// Rotation with a small backup cap may discard old files wholesale —
	// but the files that survive must account for a prefix of appends,
	// and the live file's final record must be the last sequence issued.
	recs, _, err := ReadFile(path)
	if err != nil || len(recs) == 0 {
		t.Fatalf("live file unreadable: %v", err)
	}
	if recs[len(recs)-1].Seq != writers*each {
		t.Fatalf("last record seq=%d, want %d", recs[len(recs)-1].Seq, writers*each)
	}
}

// TestNilSafety checks the no-op contracts.
func TestNilSafety(t *testing.T) {
	var l *Logger
	if err := l.Append(&Record{}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(filepath.Join(t.TempDir(), "x.jsonl"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(nil); err != nil {
		t.Fatal(err)
	}
}
