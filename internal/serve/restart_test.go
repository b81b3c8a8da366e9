package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jinjing/internal/core"
	"jinjing/internal/faultinject"
	"jinjing/internal/lai"
)

// These tests pin the crash-safety contract of the daemon: durable
// sessions survive a restart with their verdict caches warm, a drain
// refuses new work with a structured retryable error, and damaged
// state on disk degrades to a cold start — counted, never a wrong
// verdict and never a panic.

// restartDaemon builds a daemon + test listener whose lifetime the test
// controls explicitly (restart tests close and re-open daemons over one
// state directory mid-test).
func restartDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	if srv.stateErr != nil {
		t.Fatalf("state dir: %v", srv.stateErr)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close() //nolint:errcheck // second Close on restarted daemons is a no-op
	})
	return srv, ts
}

// coldReport runs a cold one-shot engine over the Figure-1 network with
// the given edits and renders the exact report the daemon must produce.
func coldReport(t *testing.T, edits map[string]string) string {
	t.Helper()
	prog, err := lai.Parse(daemonProgram)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := lai.Resolve(prog, figure1(), lai.ResolveOptions{Updated: editNet(t, edits)})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	res := core.FromResolved(resolved, opts).CheckContext(context.Background())
	var b bytes.Buffer
	(&core.Report{Checks: []*core.CheckResult{res}}).Print(&b)
	return b.String()
}

// warmSessionThenClose loads a session, runs the two-edit warm loop,
// and closes the daemon gracefully — leaving a manifest and a verdict
// snapshot for edit2's generation in dir.
func warmSessionThenClose(t *testing.T, dir string) {
	t.Helper()
	srv, ts := restartDaemon(t, Config{StateDir: dir})
	putSession(t, ts, "fig1", edit1)
	if status, _, raw := postCheck(t, ts, "fig1", nil); status != http.StatusOK {
		t.Fatalf("cold check: status %d, body %s", status, raw)
	}
	status, warm, raw := postCheck(t, ts, "fig1", &JobRequest{Updated: marshalNet(t, editNet(t, edit2))})
	if status != http.StatusOK {
		t.Fatalf("warm re-check: status %d, body %s", status, raw)
	}
	if warm.Stats.FECCacheHits == 0 {
		t.Fatalf("pre-restart re-check must be warm, stats %+v", warm.Stats)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	for _, f := range []string{"fig1.json", "fig1.snap"} {
		if _, err := os.Stat(filepath.Join(dir, "sessions", f)); err != nil {
			t.Fatalf("graceful close did not persist %s: %v", f, err)
		}
	}
}

// TestDaemonRestartWarm is the tentpole's acceptance path: a restarted
// daemon rehydrates a persisted session lazily on first use and the
// re-check replays verdicts (FECCacheHits > 0) with a report
// byte-identical to a cold engine over the same inputs.
func TestDaemonRestartWarm(t *testing.T) {
	dir := t.TempDir()
	warmSessionThenClose(t, dir)

	srv2, ts2 := restartDaemon(t, Config{StateDir: dir})
	// Nothing is loaded eagerly; the first request rehydrates.
	status, data := do(t, http.MethodGet, ts2.URL+"/v1/sessions/fig1", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("GET after restart: status %d, body %s", status, data)
	}
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.CacheVerdicts == 0 {
		t.Fatal("rehydrated session has an empty verdict cache")
	}
	status, res, raw := postCheck(t, ts2, "fig1", &JobRequest{Updated: marshalNet(t, editNet(t, edit2))})
	if status != http.StatusOK {
		t.Fatalf("post-restart check: status %d, body %s", status, raw)
	}
	if res.Stats.FECCacheHits == 0 {
		t.Fatalf("post-restart re-check ran cold, stats %+v", res.Stats)
	}
	if want := coldReport(t, edit2); res.Report != want {
		t.Fatalf("restored daemon diverges from cold engine:\nrestored:\n%s\ncold:\n%s", res.Report, want)
	}
	if n := srv2.observer.Counter("daemon.restore.ok").Value(); n != 1 {
		t.Fatalf("daemon.restore.ok = %d, want 1", n)
	}
	if n := srv2.observer.Counter("daemon.restore.corrupt").Value(); n != 0 {
		t.Fatalf("daemon.restore.corrupt = %d, want 0", n)
	}
}

// TestRestartKeepsStickyUpdated pins that a restart keeps the updated
// snapshot a job made sticky, not the one the PUT loaded: after PUT
// (edit1), a POST of edit2 and a drain, a bodyless re-check on the
// restarted daemon reports edit2, exactly as a cold run on edit2 does.
func TestRestartKeepsStickyUpdated(t *testing.T) {
	want, put := coldReport(t, edit2), coldReport(t, edit1)
	if want == put {
		t.Fatal("edit1 and edit2 must report differently")
	}
	dir := t.TempDir()
	warmSessionThenClose(t, dir)

	_, ts2 := restartDaemon(t, Config{StateDir: dir})
	status, res, raw := postCheck(t, ts2, "fig1", &JobRequest{})
	if status != http.StatusOK {
		t.Fatalf("post-restart check: status %d, body %s", status, raw)
	}
	if res.Report != want {
		t.Fatalf("restart reverted the sticky updated snapshot:\ngot:\n%s\nwant (edit2):\n%s", res.Report, want)
	}
}

// TestDaemonRestartKillRecovery simulates a SIGKILL: the daemon is
// never closed — only the periodic snapshot pass has run — and a second
// daemon over the same directory must still restore warm.
func TestDaemonRestartKillRecovery(t *testing.T) {
	dir := t.TempDir()
	_, ts := restartDaemon(t, Config{StateDir: dir, SnapshotInterval: 10 * time.Millisecond})
	putSession(t, ts, "fig1", edit1)
	if status, _, raw := postCheck(t, ts, "fig1", nil); status != http.StatusOK {
		t.Fatalf("check: status %d, body %s", status, raw)
	}
	snapPath := filepath.Join(dir, "sessions", "fig1.snap")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(snapPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshot pass never wrote the session snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// "Kill": abandon the first daemon without Close and restore from
	// whatever the periodic pass committed.
	srv2, ts2 := restartDaemon(t, Config{StateDir: dir})
	status, res, raw := postCheck(t, ts2, "fig1", nil)
	if status != http.StatusOK {
		t.Fatalf("post-kill check: status %d, body %s", status, raw)
	}
	if res.Stats.FECCacheHits == 0 {
		t.Fatalf("post-kill re-check ran cold, stats %+v", res.Stats)
	}
	if want := coldReport(t, edit1); res.Report != want {
		t.Fatalf("post-kill restore diverges from cold engine:\nrestored:\n%s\ncold:\n%s", res.Report, want)
	}
	if n := srv2.observer.Counter("daemon.restore.ok").Value(); n != 1 {
		t.Fatalf("daemon.restore.ok = %d, want 1", n)
	}
}

// TestDaemonRestartCorruptSnapshot flips a payload bit in the persisted
// snapshot: the restart must come up cold — correct verdicts, zero
// cache hits — with daemon.restore.corrupt counting the damage.
func TestDaemonRestartCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	warmSessionThenClose(t, dir)

	snapPath := filepath.Join(dir, "sessions", "fig1.snap")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x10
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := restartDaemon(t, Config{StateDir: dir})
	status, res, raw := postCheck(t, ts2, "fig1", &JobRequest{Updated: marshalNet(t, editNet(t, edit2))})
	if status != http.StatusOK {
		t.Fatalf("check over corrupt snapshot: status %d, body %s", status, raw)
	}
	if res.Stats.FECCacheHits != 0 {
		t.Fatalf("corrupt snapshot replayed %d verdicts", res.Stats.FECCacheHits)
	}
	if want := coldReport(t, edit2); res.Report != want {
		t.Fatalf("cold fallback still must be correct:\ngot:\n%s\nwant:\n%s", res.Report, want)
	}
	if n := srv2.observer.Counter("daemon.restore.corrupt").Value(); n != 1 {
		t.Fatalf("daemon.restore.corrupt = %d, want 1", n)
	}
}

// TestDaemonRestartTruncatedSnapshot tears the snapshot file in half —
// the torn-write shape a crash mid-rename cannot produce but a damaged
// disk can — and expects the same cold, counted fallback.
func TestDaemonRestartTruncatedSnapshot(t *testing.T) {
	dir := t.TempDir()
	warmSessionThenClose(t, dir)

	snapPath := filepath.Join(dir, "sessions", "fig1.snap")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := restartDaemon(t, Config{StateDir: dir})
	status, res, raw := postCheck(t, ts2, "fig1", nil)
	if status != http.StatusOK {
		t.Fatalf("check over truncated snapshot: status %d, body %s", status, raw)
	}
	if res.Stats.FECCacheHits != 0 {
		t.Fatalf("truncated snapshot replayed %d verdicts", res.Stats.FECCacheHits)
	}
	if n := srv2.observer.Counter("daemon.restore.corrupt").Value(); n != 1 {
		t.Fatalf("daemon.restore.corrupt = %d, want 1", n)
	}
}

// TestDaemonRestartStaleSnapshot bumps the snapshot's format version:
// a future format restores cold and is counted as stale, distinctly
// from corruption.
func TestDaemonRestartStaleSnapshot(t *testing.T) {
	dir := t.TempDir()
	warmSessionThenClose(t, dir)

	snapPath := filepath.Join(dir, "sessions", "fig1.snap")
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 0x7f // version low byte
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := restartDaemon(t, Config{StateDir: dir})
	status, res, raw := postCheck(t, ts2, "fig1", nil)
	if status != http.StatusOK {
		t.Fatalf("check over stale snapshot: status %d, body %s", status, raw)
	}
	if res.Stats.FECCacheHits != 0 {
		t.Fatalf("stale snapshot replayed %d verdicts", res.Stats.FECCacheHits)
	}
	if n := srv2.observer.Counter("daemon.restore.stale").Value(); n != 1 {
		t.Fatalf("daemon.restore.stale = %d, want 1", n)
	}
	if n := srv2.observer.Counter("daemon.restore.corrupt").Value(); n != 0 {
		t.Fatalf("version mismatch miscounted as corruption (%d)", n)
	}
}

// TestDaemonRestartDamagedManifest damages the manifest itself: the
// session cannot be rebuilt at all, so requests answer 404 (no session)
// and the damage is counted — the daemon must not crash or serve a
// half-trusted recipe.
func TestDaemonRestartDamagedManifest(t *testing.T) {
	dir := t.TempDir()
	warmSessionThenClose(t, dir)

	manPath := filepath.Join(dir, "sessions", "fig1.json")
	if err := os.WriteFile(manPath, []byte(`{"version":1,"request":{"program":`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := restartDaemon(t, Config{StateDir: dir})
	if status, _, _ := postCheck(t, ts2, "fig1", nil); status != http.StatusNotFound {
		t.Fatalf("check over damaged manifest: status %d, want 404", status)
	}
	if n := srv2.observer.Counter("daemon.restore.corrupt").Value(); n == 0 {
		t.Fatal("damaged manifest not counted in daemon.restore.corrupt")
	}
}

// TestDaemonRestartRetiredBackendDefault restores a manifest saved while
// job defaults could still carry a backend, a retry count and a per-FEC
// conflict budget. The wire decoder now refuses all three keys, but the manifest's lenient first decode
// drops them, so the session must restore uncounted as corrupt and check
// exactly as a fresh PUT of the same inputs does.
func TestDaemonRestartRetiredBackendDefault(t *testing.T) {
	dir := t.TempDir()
	warmSessionThenClose(t, dir)

	manPath := filepath.Join(dir, "sessions", "fig1.json")
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	const defaults = `"defaults":{`
	if bytes.Count(data, []byte(defaults)) != 1 {
		t.Fatalf("manifest has no single defaults object: %s", data)
	}
	data = bytes.Replace(data, []byte(defaults), []byte(defaults+`"backend":"sat","max_retries":3,"per_fec_budget":100000,`), 1)
	if err := os.WriteFile(manPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := restartDaemon(t, Config{StateDir: dir})
	status, restored, raw := postCheck(t, ts2, "fig1", nil)
	if status != http.StatusOK {
		t.Fatalf("check over a manifest with a backend default: status %d, body %s", status, raw)
	}
	if n := srv2.observer.Counter("daemon.sessions.restored").Value(); n != 1 {
		t.Fatalf("daemon.sessions.restored = %d, want 1", n)
	}
	if n := srv2.observer.Counter("daemon.restore.corrupt").Value(); n != 0 {
		t.Fatalf("daemon.restore.corrupt = %d, want 0", n)
	}

	_, ts3 := newTestDaemon(t, Config{})
	putSession(t, ts3, "fig1", edit2)
	status, fresh, raw := postCheck(t, ts3, "fig1", nil)
	if status != http.StatusOK {
		t.Fatalf("fresh check: status %d, body %s", status, raw)
	}
	if restored.Report != fresh.Report {
		t.Fatalf("restored session diverges from a fresh PUT:\nrestored:\n%s\nfresh:\n%s", restored.Report, fresh.Report)
	}
}

// TestDaemonRestartFaultInjectedRestore arms the store.restore fault
// site with a panic: rehydration must recover, come up cold, and count
// the failure.
func TestDaemonRestartFaultInjectedRestore(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	warmSessionThenClose(t, dir)

	cancel := faultinject.Schedule(faultinject.StoreRestore, faultinject.Panic)
	srv2, ts2 := restartDaemon(t, Config{StateDir: dir})
	status, res, raw := postCheck(t, ts2, "fig1", nil)
	cancel()
	if status != http.StatusOK {
		t.Fatalf("check under injected restore panic: status %d, body %s", status, raw)
	}
	if res.Stats.FECCacheHits != 0 {
		t.Fatalf("restore panicked yet %d verdicts replayed", res.Stats.FECCacheHits)
	}
	if n := srv2.observer.Counter("daemon.restore.corrupt").Value(); n != 1 {
		t.Fatalf("daemon.restore.corrupt = %d, want 1", n)
	}
	// With the fault disarmed the snapshot on disk is intact: the next
	// daemon restores warm. The in-memory cold session does not block a
	// later restart.
	_, ts3 := restartDaemon(t, Config{StateDir: dir})
	status, res, raw = postCheck(t, ts3, "fig1", &JobRequest{Updated: marshalNet(t, editNet(t, edit2))})
	if status != http.StatusOK {
		t.Fatalf("check after disarm: status %d, body %s", status, raw)
	}
	if res.Stats.FECCacheHits == 0 {
		t.Fatal("snapshot intact on disk but restore ran cold after disarm")
	}
}

// TestDaemonDeleteForgetsDurably: DELETE must remove persisted state —
// including for a session that was never rehydrated this run — so a
// restart cannot resurrect it.
func TestDaemonDeleteForgetsDurably(t *testing.T) {
	dir := t.TempDir()
	warmSessionThenClose(t, dir)

	_, ts2 := restartDaemon(t, Config{StateDir: dir})
	// Not loaded yet; DELETE still answers 204 and removes the files.
	if status, body := do(t, http.MethodDelete, ts2.URL+"/v1/sessions/fig1", nil, nil); status != http.StatusNoContent {
		t.Fatalf("DELETE persisted session: status %d, body %s", status, body)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "fig1.json")); !os.IsNotExist(err) {
		t.Fatalf("manifest survived DELETE: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "fig1.snap")); !os.IsNotExist(err) {
		t.Fatalf("snapshot survived DELETE: %v", err)
	}
	if status, _ := do(t, http.MethodGet, ts2.URL+"/v1/sessions/fig1", nil, nil); status != http.StatusNotFound {
		t.Fatalf("GET after durable DELETE: status %d, want 404", status)
	}
	// A repeat DELETE has nothing to forget.
	if status, _ := do(t, http.MethodDelete, ts2.URL+"/v1/sessions/fig1", nil, nil); status != http.StatusNotFound {
		t.Fatalf("second DELETE: status %d, want 404", status)
	}
}

// TestDaemonDrainRefusesStructured drives the graceful-shutdown path:
// with one job held in flight, Close sets the drain flag; new job POSTs
// and session PUTs must get the structured "draining" 503 with a
// jittered Retry-After, the held job must finish normally, and Close
// must complete without a drain timeout.
func TestDaemonDrainRefusesStructured(t *testing.T) {
	srv, ts := restartDaemon(t, Config{DrainTimeout: 5 * time.Second})
	srv.retryJitter = func(n int) int { return n - 1 } // deterministic: max jitter
	putSession(t, ts, "fig1", edit1)

	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testGate = func(string, string) {
		close(entered)
		<-release
	}
	jobDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sessions/fig1/check", "application/json", nil)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("held job finished with %s", resp.Status)
			}
		}
		jobDone <- err
	}()
	<-entered
	srv.testGate = nil

	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Close never set the drain flag")
		}
		time.Sleep(time.Millisecond)
	}

	// New work is refused with the structured draining error.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/fig1/check", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("job POST during drain: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job POST during drain: status %d, body %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != "draining" {
		t.Fatalf("want structured draining error, got %s", body)
	}
	// Base 1s + overridden jitter (span-1 = 2) = 3, mirrored in the header.
	if eb.Error.RetryAfterSec != 3 {
		t.Fatalf("RetryAfterSec = %d, want 3 (base 1 + jitter 2)", eb.Error.RetryAfterSec)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After header = %q, want \"3\"", got)
	}
	// PUTs are refused the same way.
	putReq, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/sessions/other", bytes.NewReader([]byte("{}")))
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatalf("PUT during drain: %v", err)
	}
	putBody, _ := io.ReadAll(putResp.Body)
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("PUT during drain: status %d, body %s", putResp.StatusCode, putBody)
	}

	// Release the held job: it must complete normally and the drain must
	// then finish inside its deadline.
	close(release)
	if err := <-jobDone; err != nil {
		t.Fatalf("in-flight job failed during drain: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := srv.observer.Counter("daemon.drain.timeouts").Value(); n != 0 {
		t.Fatalf("drain timed out (%d) despite the job finishing", n)
	}
	if n := srv.observer.Counter("daemon.drain.started").Value(); n != 1 {
		t.Fatalf("daemon.drain.started = %d, want 1", n)
	}
	if n := srv.observer.Counter("daemon.drain.completed").Value(); n != 1 {
		t.Fatalf("daemon.drain.completed = %d, want 1", n)
	}
	if n := srv.observer.Counter("daemon.jobs.drained_rejected").Value(); n != 2 {
		t.Fatalf("daemon.jobs.drained_rejected = %d, want 2", n)
	}
}

// TestDaemonDrainTimeout pins the bounded-drain story without a real
// wedged job: an in-flight count that never reaches zero must trip
// daemon.drain.timeouts rather than hanging Close.
func TestDaemonDrainTimeout(t *testing.T) {
	srv := New(Config{DrainTimeout: 30 * time.Millisecond})
	srv.inflight.Add(1)
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung past its drain timeout")
	}
	if n := srv.observer.Counter("daemon.drain.timeouts").Value(); n != 1 {
		t.Fatalf("daemon.drain.timeouts = %d, want 1", n)
	}
	srv.inflight.Add(-1)
}

// TestDaemonRetryAfterJitter pins the anti-stampede satellite: 429s
// from the saturation and quota gates carry jittered Retry-After
// values drawn from [base, base+span).
func TestDaemonRetryAfterJitter(t *testing.T) {
	srv, ts := restartDaemon(t, Config{MaxInFlight: 1})
	jit := 0
	srv.retryJitter = func(n int) int { return jit % n }
	putSession(t, ts, "fig1", edit1)

	entered := make(chan struct{})
	release := make(chan struct{})
	srv.testGate = func(string, string) {
		close(entered)
		<-release
	}
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sessions/fig1/check", "application/json", nil)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()
	<-entered
	srv.testGate = nil
	defer close(release)

	for _, want := range []int{1, 2, 3} { // jitter 0,1,2 over base 1
		jit = want - 1
		status, body := do(t, http.MethodPost, ts.URL+"/v1/sessions/fig1/check", nil, nil)
		if status != http.StatusTooManyRequests {
			t.Fatalf("saturated POST: status %d, body %s", status, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != "saturated" {
			t.Fatalf("want saturated error, got %s", body)
		}
		if eb.Error.RetryAfterSec != want {
			t.Fatalf("RetryAfterSec = %d, want %d", eb.Error.RetryAfterSec, want)
		}
	}
}

// TestLoadManifestRefusesDamage writes manifests with a wrong version, no
// request, a null request, a damaged network and a truncated body: each
// is refused with an error naming the manifest, and an intact one loads.
func TestLoadManifestRefusesDamage(t *testing.T) {
	st, err := newStateStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	net := string(marshalNet(t, figure1()))
	for _, c := range []struct {
		manifest string
		ok       bool
	}{
		{`{"version":1,"request":{"topology":` + net + `,"program":"check"}}`, true},
		{`{"request":{"topology":` + net + `,"program":"check"},"version":1}`, true},
		{`{"version":2,"request":{"topology":` + net + `,"program":"check"}}`, false},
		{`{"version":1}`, false},
		{`{"version":1,"request":null}`, false},
		{`{"version":1,"request":{"topology":{"devices":[}],"program":"check"}}`, false},
		{`{"version":1,"request":{"topology":` + net + `,"program":""}}`, false},
		{`{"version":1,"request":{"topology":` + net, false},
	} {
		if err := os.WriteFile(st.manifestPath("m"), []byte(c.manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		req, err := st.loadManifest("m")
		if c.ok != (err == nil) || !c.ok && !strings.HasPrefix(err.Error(), "manifest m: ") {
			t.Errorf("%.60s...: loaded %v, error %v", c.manifest, req != nil, err)
		}
		if c.ok && req.topology == nil {
			t.Errorf("%.60s...: the topology was not read where it sits", c.manifest)
		}
	}
}
