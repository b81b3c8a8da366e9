package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"jinjing/internal/core"
)

// Wire formats of the /v1 API. Decoding is strict — unknown fields,
// trailing garbage, and out-of-range knobs are rejected with a
// structured error rather than silently clamped to something the
// operator did not ask for — and every decode path is covered by
// FuzzSessionRequest.

// Hard validation ceilings. Requests beyond these are refused outright;
// softer per-server caps (Config.MaxDeadline and friends) clamp within
// them.
const (
	// MaxBodyBytes bounds a request body (topology JSON dominates).
	MaxBodyBytes = 64 << 20
	// MaxWorkersLimit bounds a job's requested worker count.
	MaxWorkersLimit = 1024
	// MaxDeadlineLimit bounds a job's requested wall-clock deadline.
	MaxDeadlineLimit = 24 * time.Hour
	// maxSessionName bounds session name length.
	maxSessionName = 64
)

// JobOverrides carries the per-job knobs mapped onto core.Options. All
// fields are optional; absent fields inherit the session defaults set
// at PUT time (which in turn inherit the server configuration). The
// parsed forms are filled in by validate.
type JobOverrides struct {
	// Deadline is a Go duration string ("30s", "2m") bounding the job's
	// wall-clock time (core.Options.Deadline). Empty inherits.
	Deadline string `json:"deadline,omitempty"`
	// Workers fans a fix or generate job's per-FEC/per-AEC loop out
	// (core.Options.Workers); check ignores it.
	Workers *int `json:"workers,omitempty"`
	// AllViolations toggles one-violation-per-FEC enumeration
	// (core.Options.FindAllViolations).
	AllViolations *bool `json:"all_violations,omitempty"`

	// Parsed forms (set by validate).
	deadline    time.Duration
	hasDeadline bool
}

// validate range-checks and parses the overrides in place.
func (o *JobOverrides) validate() error {
	if o == nil {
		return nil
	}
	if o.Deadline != "" {
		d, err := time.ParseDuration(o.Deadline)
		if err != nil {
			return fmt.Errorf("deadline: %v", err)
		}
		if d <= 0 {
			return fmt.Errorf("deadline: must be positive, got %v", d)
		}
		if d > MaxDeadlineLimit {
			return fmt.Errorf("deadline: %v exceeds the %v limit", d, MaxDeadlineLimit)
		}
		o.deadline, o.hasDeadline = d, true
	}
	if o.Workers != nil && (*o.Workers < 0 || *o.Workers > MaxWorkersLimit) {
		return fmt.Errorf("workers: must be in [0, %d], got %d", MaxWorkersLimit, *o.Workers)
	}
	return nil
}

// apply layers the overrides onto opts (absent fields leave opts
// untouched). Call validate first.
func (o *JobOverrides) apply(opts *core.Options) {
	if o == nil {
		return
	}
	if o.hasDeadline {
		opts.Deadline = o.deadline
	}
	if o.Workers != nil {
		opts.Workers = *o.Workers
	}
	if o.AllViolations != nil {
		opts.FindAllViolations = *o.AllViolations
	}
}

// SessionRequest is the PUT /v1/sessions/{name} body: the network the
// session verifies, the LAI program configuring scope/allow/modify (its
// command lines are ignored — each POST names the primitive), an
// optional post-update snapshot for "modify X" statements, and session
// defaults for per-job options.
type SessionRequest struct {
	Topology json.RawMessage `json:"topology"`
	Program  string          `json:"program"`
	Updated  json.RawMessage `json:"updated,omitempty"`
	Defaults *JobOverrides   `json:"defaults,omitempty"`
}

// JobRequest is the POST /v1/sessions/{name}/{check|fix|generate} body.
// Updated, when present, replaces the session's post-update snapshot —
// the operator's latest edit — and stays in effect for subsequent jobs
// until replaced. The embedded overrides apply to this job only.
type JobRequest struct {
	Updated json.RawMessage `json:"updated,omitempty"`
	JobOverrides
}

// decodeStrict unmarshals into v rejecting unknown fields and trailing
// content.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing content after JSON body")
	}
	return nil
}

// DecodeSessionRequest parses and validates a PUT session body.
func DecodeSessionRequest(data []byte) (*SessionRequest, error) {
	var req SessionRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if len(req.Topology) == 0 {
		return nil, fmt.Errorf("topology: required")
	}
	if req.Program == "" {
		return nil, fmt.Errorf("program: required")
	}
	if err := req.Defaults.validate(); err != nil {
		return nil, fmt.Errorf("defaults: %v", err)
	}
	return &req, nil
}

// DecodeJobRequest parses and validates a POST job body. An empty body
// is a valid job with no overrides.
func DecodeJobRequest(data []byte) (*JobRequest, error) {
	var req JobRequest
	if len(bytes.TrimSpace(data)) == 0 {
		return &req, nil
	}
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if err := req.JobOverrides.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// validSessionName reports whether a session name is well-formed:
// 1-64 chars of [A-Za-z0-9._-], not starting with a dot or dash (so
// names compose into decision-log file names safely).
func validSessionName(name string) bool {
	if len(name) == 0 || len(name) > maxSessionName {
		return false
	}
	if name[0] == '.' || name[0] == '-' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// APIError is the structured error payload of every non-2xx response.
type APIError struct {
	// Code is a stable machine-readable cause: "bad_request",
	// "not_found", "conflict", "saturated", "quota_exhausted",
	// "unknown_verdicts", "job_panic", "transient_fault", "canceled",
	// "draining" (the daemon is shutting down; retry against its
	// replacement after RetryAfterSec), or "internal".
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSec mirrors the Retry-After header on 429/503 responses.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
	// Blocking names the FECs or AECs that blocked a refused fix or
	// generate plan (code "unknown_verdicts").
	Blocking []string `json:"blocking,omitempty"`
}

type errorBody struct {
	Error APIError `json:"error"`
}

// SessionInfo describes one session in GET responses.
type SessionInfo struct {
	Name      string    `json:"name"`
	CreatedAt time.Time `json:"created_at"`
	// Devices/Paths/FECs describe the session's network and scope
	// (derived once at PUT time, which warms the engine).
	Devices int `json:"devices"`
	Paths   int `json:"paths"`
	FECs    int `json:"fecs"`
	// Jobs counts jobs this session has executed.
	Jobs int64 `json:"jobs"`
	// CacheVerdicts is the warm verdict-cache size (core.VerdictCache).
	CacheVerdicts int `json:"cache_verdicts"`
	// DecisionLog is the session's ledger path, when attached.
	DecisionLog string `json:"decision_log,omitempty"`
}

// SessionList is the GET /v1/sessions body.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}

// Witness is one violating counterexample packet with its evidence,
// rendered in the same textual forms the CLI prints.
type Witness struct {
	Packet  string   `json:"packet"`
	Classes []string `json:"classes,omitempty"`
	Paths   []string `json:"paths,omitempty"`
}

// UnknownVerdict is one FEC left undecided by a bounded check.
type UnknownVerdict struct {
	FEC     int      `json:"fec"`
	Classes []string `json:"classes,omitempty"`
	Reason  string   `json:"reason"`
}

// CheckResponse is the POST .../check body: the JSON projection of
// core.CheckResult plus the exact human-readable report the one-shot
// CLI would print for the same check — the byte-identity surface the
// e2e suite pins against `jinjing`.
type CheckResponse struct {
	Job        string           `json:"job"`
	Session    string           `json:"session"`
	Consistent bool             `json:"consistent"`
	Complete   bool             `json:"complete"`
	FECs       int              `json:"fecs"`
	SolvedFECs int              `json:"solved_fecs"`
	Violations []Witness        `json:"violations,omitempty"`
	Unknown    []UnknownVerdict `json:"unknown,omitempty"`
	Stats      core.CacheStats  `json:"stats"`
	Report     string           `json:"report"`
	WallNS     int64            `json:"wall_ns"`
}

// FixResponse is the POST .../fix body.
type FixResponse struct {
	Job           string          `json:"job"`
	Session       string          `json:"session"`
	Verified      bool            `json:"verified"`
	Actions       []string        `json:"actions,omitempty"`
	Neighborhoods int             `json:"neighborhoods"`
	Unfixable     int             `json:"unfixable"`
	Stats         core.CacheStats `json:"stats"`
	Report        string          `json:"report"`
	// Topology is the fixed post-update network snapshot.
	Topology json.RawMessage `json:"topology,omitempty"`
	WallNS   int64           `json:"wall_ns"`
}

// GenerateResponse is the POST .../generate body.
type GenerateResponse struct {
	Job      string `json:"job"`
	Session  string `json:"session"`
	Verified bool   `json:"verified"`
	Classes  int    `json:"classes"`
	AECs     int    `json:"aecs"`
	Rules    int    `json:"rules"`
	// ACLs maps target binding IDs to the synthesized ACL text.
	ACLs   map[string]string `json:"acls,omitempty"`
	Report string            `json:"report"`
	// Topology is the generated network snapshot.
	Topology json.RawMessage `json:"topology,omitempty"`
	WallNS   int64           `json:"wall_ns"`
}
