package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestJobRegistryBoundsResultBytes finishes jobs whose results are an
// eighth of the result budget each: the registry keeps every summary,
// keeps the newest results that fit, drops the oldest first, and a
// dropped result's job answers GET with its summary and no result.
func TestJobRegistryBoundsResultBytes(t *testing.T) {
	const n, size = 20, maxRetainedResultBytes / 8
	// One backing array serves every job: the registry counts lengths.
	big := bytes.Repeat([]byte{' '}, size)
	big[0], big[size-1] = '"', '"'

	r := newJobRegistry()
	var ids []string
	for range n {
		j := r.begin("s", "fix")
		r.finish(j.ID, 1, big, nil)
		ids = append(ids, j.ID)
		retained := 0
		for _, id := range ids {
			retained += len(r.get(id).Result)
		}
		if retained > maxRetainedResultBytes {
			t.Fatalf("after %d jobs: %d result bytes retained, budget %d", len(ids), retained, maxRetainedResultBytes)
		}
	}
	for k, id := range ids {
		j := r.get(id)
		if j.State != JobDone || j.WallNS != 1 {
			t.Fatalf("%s lost its summary: %+v", id, j)
		}
		if kept, want := j.Result != nil, k >= n-8; kept != want {
			t.Fatalf("%s (job %d of %d): result retained %v, want %v", id, k+1, n, kept, want)
		}
	}
	if got := len(r.list()); got != n {
		t.Fatalf("list has %d jobs, want %d", got, n)
	}

	srv := &Server{jobs: r}
	for k, id := range []string{ids[0], ids[n-1]} {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
		req.SetPathValue("id", id)
		srv.handleJobGet(w, req)
		var body map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", id, w.Code, err)
		}
		if _, has := body["result"]; has != (k == 1) {
			t.Fatalf("GET %s: result present %v, want %v", id, has, k == 1)
		}
		if string(body["state"]) != fmt.Sprintf("%q", JobDone) {
			t.Fatalf("GET %s: state %s", id, body["state"])
		}
	}
}
