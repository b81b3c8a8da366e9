package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"jinjing/internal/core"
	"jinjing/internal/topo"
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

	// The plain reads decodeOnce made of Topology and Updated; nil for a
	// member it left to decodeStrict.
	topology, updated *topo.Plain
}

// JobRequest is the POST /v1/sessions/{name}/{check|fix|generate} body.
// Updated, when present, replaces the session's post-update snapshot —
// the operator's latest edit — and stays in effect for subsequent jobs
// until replaced. The embedded overrides apply to this job only.
type JobRequest struct {
	Updated json.RawMessage `json:"updated,omitempty"`
	JobOverrides

	// The plain read decodeOnce made of Updated; nil when it left the
	// member to decodeStrict.
	updated *topo.Plain
}

// loadNetwork builds the network raw holds: from plain, the read
// decodeOnce made of raw, when there is one, or else by a load of raw.
// The build is left to where the request is used (newSession,
// runLocked; a job's after admission), so a decoded request holds no
// built network.
func loadNetwork(raw json.RawMessage, plain *topo.Plain) (*topo.Network, error) {
	if plain != nil {
		return plain.Build()
	}
	n := topo.NewNetwork()
	if err := n.UnmarshalJSON(raw); err != nil {
		return nil, err
	}
	return n, nil
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

// netMember is a member splitMembers cuts out of a body: its key, and for
// a network member of a request type the field holding its value's bytes
// and the field holding its plain read.
type netMember struct {
	key   string
	raw   *json.RawMessage
	plain **topo.Plain
}

// decodeOnce decodes a request body into *v as decode (decodeStrict, or
// json.Unmarshal for a stored manifest's request) does, but reads each
// network member's value once, where it sits in the body: splitMembers
// has topo's plain reader read each, and decode decodes the rest of the
// body with those values replaced by null. The raw fields then hold
// copies of the values' bytes, as decode leaves them (a copy, so a
// request kept as a session's recipe does not keep the whole body), and
// the plain fields the reads.
//
// A body splitMembers cannot vouch for, or whose spliced envelope
// decode refuses, is decoded by decode whole, so every error is the one
// decode gives for the body.
func decodeOnce[T any](data []byte, v *T, decode func([]byte, any) error, members ...netMember) error {
	plains := make([]*topo.Plain, len(members))
	envelope, spans, ok := splitMembers(data, members, func(k, at int) (int, bool) {
		p, end, ok := topo.ReadPlainAt(data, at)
		plains[k] = p
		return end, ok
	})
	if ok && spans != nil {
		if decode(envelope, v) == nil {
			for k, m := range members {
				if sp := spans[k]; sp[1] > 0 {
					*m.raw = bytes.Clone(data[sp[0]:sp[1]])
					*m.plain = plains[k]
				}
			}
			return nil
		}
		var zero T
		*v = zero
	}
	return decode(data, v)
}

// splitMembers scans the members of a JSON object's top level, has read
// read the value of each member whose key is members[k]'s (matched as
// encoding/json matches keys, ignoring case; the last of repeated keys
// wins) and say where it ends, and returns the object with those values
// replaced by null, with per member where its value sat (spans is nil
// when the object holds none of them, and [0, 0) for one it lacks). The
// envelope is data itself when spans is nil or ok is false.
//
// The other members' values are skipped, not checked: the caller decodes
// the envelope, and a well-formed envelope means the scan read the
// object right. ok is false for data the scan cannot vouch for: data
// that is not an object, a key with an escape or a non-ASCII byte (it
// might be one of the keys once decoded), or a value read refuses.
func splitMembers(data []byte, members []netMember, read func(k, at int) (end int, ok bool)) (envelope []byte, spans [][2]int, ok bool) {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return data, nil, false
	}
	last := 0
	for first := true; ; first = false {
		i = skipSpace(data, i+1)
		if first && i < len(data) && data[i] == '}' {
			break
		}
		key, next, ok := plainKey(data, i)
		if !ok {
			return data, nil, false
		}
		k := slices.IndexFunc(members, func(m netMember) bool { return strings.EqualFold(m.key, key) })
		if k < 0 {
			i = skipValue(data, next)
		} else {
			end, ok := read(k, next)
			if !ok {
				return data, nil, false
			}
			if spans == nil {
				spans = make([][2]int, len(members))
			}
			spans[k] = [2]int{next, end}
			envelope = append(append(envelope, data[last:next]...), "null"...)
			last, i = end, end
		}
		i = skipSpace(data, i)
		if i >= len(data) || data[i] != ',' && data[i] != '}' {
			return data, nil, false
		}
		if data[i] == '}' {
			break
		}
	}
	if spans == nil {
		return data, nil, true
	}
	return append(envelope, data[last:]...), spans, true
}

// skipSpace returns the offset of the first non-whitespace byte of
// data at or after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// plainKey reads the member key at data[i], a string of printable
// ASCII with no escapes, and its colon, returning the offset of the
// member's value.
func plainKey(data []byte, i int) (key string, next int, ok bool) {
	if i == len(data) || data[i] != '"' {
		return "", 0, false
	}
	j := i + 1
	for j < len(data) && data[j] >= ' ' && data[j] <= '~' && data[j] != '"' && data[j] != '\\' {
		j++
	}
	if j == len(data) || data[j] != '"' {
		return "", 0, false
	}
	next = skipSpace(data, j+1)
	if next == len(data) || data[next] != ':' {
		return "", 0, false
	}
	return string(data[i+1 : j]), skipSpace(data, next+1), true
}

// skipValue returns the offset just past the JSON value at data[i],
// or, for a number or a literal, of the byte that ends it. It trusts
// the value to be well formed; on other input its answer is some
// offset, and decodeStrict refuses the envelope.
func skipValue(data []byte, i int) int {
	depth := 0
	for ; i < len(data); i++ {
		switch data[i] {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
			if depth == 0 {
				return min(i+1, len(data))
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',':
			if depth == 0 {
				return i
			}
		}
	}
	return i
}

// validate checks a decoded session request's required fields and
// defaults.
func (req *SessionRequest) validate() error {
	if len(req.Topology) == 0 {
		return fmt.Errorf("topology: required")
	}
	if req.Program == "" {
		return fmt.Errorf("program: required")
	}
	if err := req.Defaults.validate(); err != nil {
		return fmt.Errorf("defaults: %v", err)
	}
	return nil
}

// DecodeSessionRequest parses and validates a PUT session body.
func DecodeSessionRequest(data []byte) (*SessionRequest, error) {
	return decodeSessionRequest(data, decodeStrict)
}

// decodeSessionRequest is DecodeSessionRequest with the envelope decoded
// by decode.
func decodeSessionRequest(data []byte, decode func([]byte, any) error) (*SessionRequest, error) {
	var req SessionRequest
	if err := decodeOnce(data, &req, decode,
		netMember{"topology", &req.Topology, &req.topology},
		netMember{"updated", &req.Updated, &req.updated}); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
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
	if err := decodeOnce(data, &req, decodeStrict, netMember{"updated", &req.Updated, &req.updated}); err != nil {
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
	// "payload_too_large" (a body declared longer than MaxBodyBytes),
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
