package serve

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Job states.
const (
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobInfo is one job's public record (GET /v1/jobs/{id}).
type JobInfo struct {
	ID        string    `json:"id"`
	Session   string    `json:"session"`
	Kind      string    `json:"kind"` // "check" | "fix" | "generate"
	State     string    `json:"state"`
	StartedAt time.Time `json:"started_at"`
	WallNS    int64     `json:"wall_ns,omitempty"`
	Error     *APIError `json:"error,omitempty"`
	// Result is the job's response body once done (a CheckResponse,
	// FixResponse, or GenerateResponse), compact, while the registry
	// retains it (see maxRetainedResultBytes).
	Result json.RawMessage `json:"result,omitempty"`
}

// jobEvent is the "job" SSE payload published on every state
// transition.
type jobEvent struct {
	Type    string `json:"type"` // always "job"
	ID      string `json:"id"`
	Session string `json:"session"`
	Kind    string `json:"kind"`
	State   string `json:"state"`
	WallNS  int64  `json:"wall_ns,omitempty"`
	Error   string `json:"error,omitempty"`
}

// maxRetainedJobs bounds the registry: the oldest finished jobs are
// evicted first so a long-lived daemon cannot grow without bound.
const maxRetainedJobs = 1024

// maxRetainedResultBytes bounds the encoded results the registry keeps:
// a fix or generate result embeds a network (0.9 MB for the large
// netgen WAN), so maxRetainedJobs of them would pin about a gigabyte.
// Past it the oldest results are dropped; their jobs keep their summaries.
const maxRetainedResultBytes = 64 << 20

// jobRegistry assigns job IDs and retains recent job records.
type jobRegistry struct {
	mu    sync.Mutex
	next  int64
	byID  map[string]*JobInfo
	order []string // insertion order, for eviction and listing
}

func newJobRegistry() *jobRegistry {
	return &jobRegistry{byID: map[string]*JobInfo{}}
}

// begin registers a new running job and returns its ID.
func (r *jobRegistry) begin(session, kind string) *JobInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	j := &JobInfo{
		ID:        fmt.Sprintf("job-%d", r.next),
		Session:   session,
		Kind:      kind,
		State:     JobRunning,
		StartedAt: time.Now().UTC(),
	}
	r.byID[j.ID] = j
	r.order = append(r.order, j.ID)
	r.evictLocked()
	return j
}

// evictLocked drops the oldest finished jobs past the retention bound.
// Running jobs are never evicted.
func (r *jobRegistry) evictLocked() {
	for len(r.byID) > maxRetainedJobs {
		i := slices.IndexFunc(r.order, func(id string) bool { return r.byID[id].State != JobRunning })
		if i < 0 {
			return // everything running; let it grow
		}
		delete(r.byID, r.order[i])
		r.order = slices.Delete(r.order, i, i+1)
	}
}

// finish records a job's terminal state: with no error, result is the
// response body, compact.
func (r *jobRegistry) finish(id string, wallNS int64, result []byte, apiErr *APIError) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.byID[id]
	if j == nil {
		return
	}
	j.WallNS = wallNS
	if apiErr != nil {
		j.State = JobFailed
		j.Error = apiErr
	} else {
		j.State = JobDone
		j.Result = result
	}
	// The newest results that fit stay; the first that does not, and
	// every older one, go.
	kept := 0
	for i := len(r.order) - 1; i >= 0; i-- {
		if j := r.byID[r.order[i]]; j != nil {
			if kept += len(j.Result); kept > maxRetainedResultBytes {
				j.Result = nil
			}
		}
	}
}

// get returns a snapshot of the job record, or nil.
func (r *jobRegistry) get(id string) *JobInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.byID[id]
	if j == nil {
		return nil
	}
	cp := *j
	return &cp
}

// list returns summaries (no results) of every retained job, newest
// first.
func (r *jobRegistry) list() []JobInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobInfo, 0, len(r.order))
	for i := len(r.order) - 1; i >= 0; i-- {
		if j := r.byID[r.order[i]]; j != nil {
			cp := *j
			cp.Result = nil
			out = append(out, cp)
		}
	}
	return out
}

// eventJSON renders the job's SSE transition payload.
func eventJSON(j *JobInfo, state string, apiErr *APIError) string {
	ev := jobEvent{Type: "job", ID: j.ID, Session: j.Session, Kind: j.Kind, State: state, WallNS: j.WallNS}
	if apiErr != nil {
		ev.Error = apiErr.Code
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return ""
	}
	return string(data)
}
