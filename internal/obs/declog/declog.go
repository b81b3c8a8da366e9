// Package declog implements the decision ledger: an append-only,
// size-rotated JSONL audit log with one structured record per
// check/fix/generate run. The ledger is the "what was decided and why"
// companion to the metrics/trace surface in internal/obs — each record
// carries the config fingerprints the verdict was computed over, the
// per-FEC verdict/route/solve-time forensics, the witnesses, and the
// resource story (budgets hit, wall/CPU time), so a run can be audited
// or replayed long after the process exited.
package declog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// FECDecision is one FEC's entry in a decision record: the verdict and
// the route that established it this run.
type FECDecision struct {
	FEC int `json:"fec"`
	// Verdict is "consistent", "violating", or "unknown".
	Verdict string `json:"verdict"`
	// Route names how the verdict was established: "skip" (differential
	// fast path), "cache" (verdict-cache replay under a full key match),
	// "pset" (the set algebra on the FEC's flip region whole), or
	// "pset-split" (the region overflowed the cube budget and was decided
	// piece by piece).
	Route string `json:"route"`
	// CacheHit reports the verdict was replayed without solving.
	CacheHit bool `json:"cache_hit,omitempty"`
	// SolveNS is the set algebra's decision time, every piece of a split
	// region included; 0 for replayed verdicts.
	SolveNS int64 `json:"solve_ns,omitempty"`
	// Reason explains an "unknown" verdict (deadline, budget, fault).
	Reason string `json:"reason,omitempty"`
}

// Witness is one concrete violating packet with its evidence.
type Witness struct {
	FEC     int      `json:"fec"`
	Packet  string   `json:"packet"`
	Classes []string `json:"classes,omitempty"`
	Paths   []string `json:"paths,omitempty"`
}

// Record is one decision-ledger entry. Exactly one record is appended
// per top-level check/fix/generate call; verification checks run inside
// fix/generate are covered by the parent record, not logged separately.
type Record struct {
	Type      string    `json:"type"` // always "decision"
	Seq       int64     `json:"seq"`
	Time      time.Time `json:"time"`
	Primitive string    `json:"primitive"` // "check" | "fix" | "generate"

	// ConfigBefore/ConfigAfter fingerprint the encoded ACL content of
	// the two snapshots the decision was computed over (%016x FNV-1a
	// over the sorted per-binding fingerprints).
	ConfigBefore string `json:"config_before,omitempty"`
	ConfigAfter  string `json:"config_after,omitempty"`

	// Check outcome.
	Consistent *bool         `json:"consistent,omitempty"`
	Complete   *bool         `json:"complete,omitempty"`
	FECs       int           `json:"fecs,omitempty"`
	SolvedFECs int           `json:"solved_fecs,omitempty"`
	FECLog     []FECDecision `json:"fec_log,omitempty"`
	Witnesses  []Witness     `json:"witnesses,omitempty"`
	Unknown    []FECDecision `json:"unknown,omitempty"`

	// Fix / generate outcome.
	Verified      *bool    `json:"verified,omitempty"`
	Actions       []string `json:"actions,omitempty"`
	Neighborhoods int      `json:"neighborhoods,omitempty"`
	Unfixable     int      `json:"unfixable,omitempty"`
	Classes       int      `json:"classes,omitempty"`
	AECs          int      `json:"aecs,omitempty"`
	Rules         int      `json:"rules,omitempty"`

	// Resource story.
	WallNS int64  `json:"wall_ns"`
	CPUNS  int64  `json:"cpu_ns,omitempty"`
	Error  string `json:"error,omitempty"`

	// Memory story: the check's sampled live heap (every ledgered check
	// samples it once, at the end of the call).
	PeakHeapBytes int64 `json:"peak_heap_bytes,omitempty"`
}

// Options configures a ledger file.
type Options struct {
	// MaxBytes rotates the file when an append would push it past this
	// size. 0 means 16 MiB; negative disables rotation.
	MaxBytes int64
	// MaxBackups is how many rotated files (path.1 .. path.N) are kept.
	// 0 means 3.
	MaxBackups int
}

const (
	defaultMaxBytes   = 16 << 20
	defaultMaxBackups = 3
)

// Logger appends records to a rotating JSONL file. All methods are safe
// for concurrent use; a nil *Logger no-ops.
type Logger struct {
	mu   sync.Mutex
	path string
	opts Options
	f    *os.File
	size int64
	seq  int64
}

// Open opens (creating or appending to) the ledger at path.
func Open(path string, opts Options) (*Logger, error) {
	if opts.MaxBytes == 0 {
		opts.MaxBytes = defaultMaxBytes
	}
	if opts.MaxBackups == 0 {
		opts.MaxBackups = defaultMaxBackups
	}
	l := &Logger{path: path, opts: opts}
	if err := l.openLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Logger) openLocked() error {
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, st.Size()
	return nil
}

// Append writes one record as a JSON line, stamping Seq (monotonic per
// logger) and Time (now, UTC) when unset, and rotating first if the
// line would push the file past MaxBytes.
func (l *Logger) Append(r *Record) error {
	if l == nil || r == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("declog: logger closed")
	}
	l.seq++
	if r.Seq == 0 {
		r.Seq = l.seq
	}
	if r.Time.IsZero() {
		r.Time = time.Now().UTC()
	}
	if r.Type == "" {
		r.Type = "decision"
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if l.opts.MaxBytes > 0 && l.size > 0 && l.size+int64(len(line)) > l.opts.MaxBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := l.f.Write(line)
	l.size += int64(n)
	return err
}

// rotateLocked shifts path.N-1 -> path.N ... path -> path.1 and reopens
// a fresh file at path.
func (l *Logger) rotateLocked() error {
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f = nil
	for i := l.opts.MaxBackups - 1; i >= 1; i-- {
		os.Rename(backupName(l.path, i), backupName(l.path, i+1)) //nolint:errcheck // best-effort shift
	}
	if l.opts.MaxBackups > 0 {
		if err := os.Rename(l.path, backupName(l.path, 1)); err != nil {
			return err
		}
	} else {
		if err := os.Remove(l.path); err != nil {
			return err
		}
	}
	return l.openLocked()
}

func backupName(path string, i int) string { return fmt.Sprintf("%s.%d", path, i) }

// Close flushes and closes the ledger file.
func (l *Logger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ReadFile parses every decision record in a ledger file, for replay
// and audit tooling. Alongside the records it reports how many damaged
// lines were skipped (see Parse); the error is reserved for failing to
// read the file at all.
func ReadFile(path string) ([]Record, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	recs, skipped := Parse(data)
	return recs, skipped, nil
}

// Parse decodes JSONL ledger content into records, one line at a time.
// A crash can tear the final append mid-line (the ledger is appended
// without fsync), and bit rot can damage any line; an undecodable line
// is skipped and counted, never failing the whole replay — an audit
// trail that survives the crash minus one record beats no audit trail.
// The skipped count is the caller's signal that the ledger lost data.
func Parse(data []byte) (recs []Record, skipped int) {
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			skipped++
			continue
		}
		recs = append(recs, r)
	}
	return recs, skipped
}
