package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"jinjing/internal/faultinject"
)

// The faultinject registry is process-global, so these tests must not
// run in parallel with each other; each defers Reset.

// TestFaultDaemonPanicKeepsSessionUsable injects a panic into the
// first admitted job: the daemon must answer a structured 500, and the
// session must stay fully usable — the next job runs normally on the
// same warm engine.
func TestFaultDaemonPanicKeepsSessionUsable(t *testing.T) {
	defer faultinject.Reset()
	_, ts := newTestDaemon(t, Config{})
	putSession(t, ts, "fig1", edit1)

	cancel := faultinject.Schedule(faultinject.ServeJob, faultinject.Panic, 1)
	defer cancel()
	status, data := do(t, http.MethodPost, ts.URL+"/v1/sessions/fig1/check", nil, nil)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking job: status %d, body %s", status, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != "job_panic" {
		t.Fatalf("want structured job_panic error, got %s", data)
	}

	// The session lock was released during the unwind; the next job runs.
	status, r, raw := postCheck(t, ts, "fig1", nil)
	if status != http.StatusOK {
		t.Fatalf("check after panic: status %d, body %s", status, raw)
	}
	if r.Consistent || !r.Complete {
		t.Fatalf("check after panic should solve normally, got %+v", r)
	}
	// The registry recorded both the failure and the recovery.
	status, data = do(t, http.MethodGet, ts.URL+"/v1/jobs/job-1", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("get panicked job: status %d", status)
	}
	var job JobInfo
	if err := json.Unmarshal(data, &job); err != nil || job.State != JobFailed || job.Error == nil || job.Error.Code != "job_panic" {
		t.Fatalf("panicked job record: %s", data)
	}
}

// TestFaultDaemonTransientRetryable injects a transient fault: the
// daemon answers 503 with a Retry-After hint and the immediate retry
// succeeds.
func TestFaultDaemonTransientRetryable(t *testing.T) {
	defer faultinject.Reset()
	_, ts := newTestDaemon(t, Config{})
	putSession(t, ts, "fig1", edit1)

	cancel := faultinject.Schedule(faultinject.ServeJob, faultinject.Transient, 1)
	defer cancel()
	status, data := do(t, http.MethodPost, ts.URL+"/v1/sessions/fig1/check", nil, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("transient job: status %d, body %s", status, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != "transient_fault" || eb.Error.RetryAfterSec <= 0 {
		t.Fatalf("want transient_fault with retry hint, got %s", data)
	}
	if status, _, _ := postCheck(t, ts, "fig1", nil); status != http.StatusOK {
		t.Fatalf("retry after transient fault: status %d", status)
	}
}

// TestFaultDaemonTimeoutNeverPoisonsCache runs the first job under an
// injected already-expired context: the check must report undecided
// FECs, and none of those unknown verdicts may enter the session's
// warm cache — the never-cache-Unknown invariant, observed through the
// session's cache_verdicts counter and a subsequent clean run.
func TestFaultDaemonTimeoutNeverPoisonsCache(t *testing.T) {
	defer faultinject.Reset()
	_, ts := newTestDaemon(t, Config{})
	putSession(t, ts, "fig1", edit1)

	cancel := faultinject.Schedule(faultinject.ServeJob, faultinject.Timeout, 1)
	defer cancel()
	status, r, raw := postCheck(t, ts, "fig1", nil)
	if status != http.StatusOK {
		t.Fatalf("expired-context check: status %d, body %s", status, raw)
	}
	if r.Complete || len(r.Unknown) == 0 {
		t.Fatalf("expired-context check should report undecided FECs, got %+v", r)
	}

	var info SessionInfo
	status, data := do(t, http.MethodGet, ts.URL+"/v1/sessions/fig1", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("GET session: status %d", status)
	}
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.CacheVerdicts != 0 {
		t.Fatalf("unknown verdicts must never be cached, found %d cached", info.CacheVerdicts)
	}

	// A clean run decides everything and only then warms the cache.
	status, r2, raw := postCheck(t, ts, "fig1", nil)
	if status != http.StatusOK {
		t.Fatalf("clean check after timeout: status %d, body %s", status, raw)
	}
	if !r2.Complete || r2.Consistent {
		t.Fatalf("clean check should be complete and inconsistent, got %+v", r2)
	}
	status, data = do(t, http.MethodGet, ts.URL+"/v1/sessions/fig1", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("GET session: status %d", status)
	}
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.CacheVerdicts == 0 {
		t.Fatal("clean check should warm the cache")
	}
}

// TestFaultDaemonUnknownVerdictsNameJobKeys runs a fix job under an
// injected already-expired context: the refusal must tell an HTTP
// client which job keys raise its limits, not the CLI's flags.
func TestFaultDaemonUnknownVerdictsNameJobKeys(t *testing.T) {
	defer faultinject.Reset()
	_, ts := newTestDaemon(t, Config{})
	putSession(t, ts, "fig1", edit1)

	cancel := faultinject.Schedule(faultinject.ServeJob, faultinject.Timeout, 1)
	defer cancel()
	status, data := do(t, http.MethodPost, ts.URL+"/v1/sessions/fig1/fix", nil, nil)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("expired-context fix: status %d, body %s", status, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != "unknown_verdicts" || len(eb.Error.Blocking) == 0 {
		t.Fatalf("want unknown_verdicts naming its blocking FECs, got %s", data)
	}
	msg := eb.Error.Message
	if !strings.Contains(msg, "deadline") {
		t.Errorf("message %q does not name the job key deadline", msg)
	}
	if strings.Contains(msg, "-timeout") {
		t.Errorf("message %q names a CLI flag", msg)
	}
}
