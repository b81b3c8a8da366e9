package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/lai"
	"jinjing/internal/topo"
)

// figure1 builds the paper's running-example network (§3.2, Figure 1):
// routers A–D, ingress ACLs on A1/C1/D2, destination routing for the
// seven classes 1.0.0.0/8 … 7.0.0.0/8. Small enough that a full
// check/fix runs in milliseconds, rich enough to exercise the warm
// cache (multiple FECs, only some touched by an edit).
func figure1() *topo.Network {
	n := topo.NewNetwork()
	a, b, c, d := n.Device("A"), n.Device("B"), n.Device("C"), n.Device("D")
	a1, a2, a3, a4 := a.Interface("1"), a.Interface("2"), a.Interface("3"), a.Interface("4")
	b1, b2 := b.Interface("1"), b.Interface("2")
	c1, c2, c3, c4 := c.Interface("1"), c.Interface("2"), c.Interface("3"), c.Interface("4")
	d1, d2, d3 := d.Interface("1"), d.Interface("2"), d.Interface("3")

	n.AddLink(a2, b1)
	n.AddLink(b2, c2)
	n.AddLink(a3, c1)
	n.AddLink(a4, d1)
	n.AddLink(c4, d2)

	a1.SetACL(topo.In, acl.MustParse("deny dst 6.0.0.0/8, permit all"))
	c1.SetACL(topo.In, acl.MustParse("deny dst 7.0.0.0/8, permit all"))
	d2.SetACL(topo.In, acl.MustParse("deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, permit all"))

	t := func(i int) header.Prefix {
		return header.MustParsePrefix(fmt.Sprintf("%d.0.0.0/8", i))
	}
	a.AddRoute(t(1), a4)
	a.AddRoute(t(2), a4)
	a.AddRoute(t(2), a2)
	a.AddRoute(t(3), a4)
	a.AddRoute(t(3), a2)
	a.AddRoute(t(4), a4)
	a.AddRoute(t(4), a3)
	a.AddRoute(t(5), a2)
	a.AddRoute(t(6), a2)
	a.AddRoute(t(7), a3)
	for i := 1; i <= 7; i++ {
		b.AddRoute(t(i), b2)
		d.AddRoute(t(i), d3)
		if i == 7 {
			c.AddRoute(t(i), c3)
		} else {
			c.AddRoute(t(i), c4)
		}
	}
	return n
}

// daemonProgram is the session's LAI intent: examine edits to the A:1
// and C:1 ingress ACLs, taken from whatever post-update snapshot the
// job posts (the bare "modify X" form).
const daemonProgram = `
scope A:*, B:*, C:*, D:*
entry A:1
allow A:*
modify A:1, C:1
check
`

// editNet returns the Figure-1 network with the given interfaces'
// ingress ACLs replaced — the operator's edit.
func editNet(t *testing.T, edits map[string]string) *topo.Network {
	t.Helper()
	n := figure1().Clone()
	for id, text := range edits {
		i, err := n.LookupInterface(id)
		if err != nil {
			t.Fatal(err)
		}
		i.SetACL(topo.In, acl.MustParse(text))
	}
	return n
}

func marshalNet(t *testing.T, n *topo.Network) json.RawMessage {
	t.Helper()
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newTestDaemon mounts a daemon under an httptest server.
func newTestDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close() //nolint:errcheck // test teardown
	})
	return srv, ts
}

// do issues one request and returns status plus body.
func do(t *testing.T, method, url string, body []byte, header map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// The two-step operator edit the warm tests replay. Edit 1 touches
// only A:1 (drop 5.0.0.0/8 — inconsistent, the before network
// delivered that traffic). Edit 2 keeps A:1 as edited and additionally
// drops 4.0.0.0/8 at C:1. The verdict cache keys per FEC over binding
// contents, so the re-check re-solves only the FECs through C:1 and
// replays the A:1-only FECs (5/8 among them) from the warm cache.
var (
	edit1 = map[string]string{
		"A:1": "deny dst 5.0.0.0/8, deny dst 6.0.0.0/8, permit all",
	}
	edit2 = map[string]string{
		"A:1": "deny dst 5.0.0.0/8, deny dst 6.0.0.0/8, permit all",
		"C:1": "deny dst 4.0.0.0/8, deny dst 7.0.0.0/8, permit all",
	}
)

func boolPtr(b bool) *bool { return &b }

// putSession loads a Figure-1 session whose post-update snapshot
// applies the given ingress-ACL edits. AllViolations is on by default
// so checks enumerate (and cache) every FEC rather than stopping at
// the first witness.
func putSession(t *testing.T, ts *httptest.Server, name string, edits map[string]string) SessionInfo {
	t.Helper()
	body, err := json.Marshal(SessionRequest{
		Topology: marshalNet(t, figure1()),
		Program:  daemonProgram,
		Updated:  marshalNet(t, editNet(t, edits)),
		Defaults: &JobOverrides{AllViolations: boolPtr(true)},
	})
	if err != nil {
		t.Fatal(err)
	}
	status, data := do(t, http.MethodPut, ts.URL+"/v1/sessions/"+name, body, nil)
	if status != http.StatusCreated {
		t.Fatalf("PUT session: status %d, body %s", status, data)
	}
	var info SessionInfo
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatalf("PUT session body: %v", err)
	}
	return info
}

func postCheck(t *testing.T, ts *httptest.Server, name string, req *JobRequest) (int, *CheckResponse, []byte) {
	t.Helper()
	var body []byte
	if req != nil {
		var err error
		body, err = json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
	}
	status, data := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+name+"/check", body, nil)
	if status != http.StatusOK {
		return status, nil, data
	}
	var resp CheckResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("check body: %v\n%s", err, data)
	}
	return status, &resp, data
}

// TestDaemonWarmSessionE2E is the end-to-end warm-session lane: load a
// session, check, edit one ACL, re-check — the re-check must run warm
// (verdict-cache hits) and agree with a cold one-shot engine on the
// same inputs, byte-for-byte on the report.
func TestDaemonWarmSessionE2E(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	info := putSession(t, ts, "fig1", edit1)
	if info.FECs == 0 || info.Paths == 0 || info.Devices != 4 {
		t.Fatalf("session info not derived at PUT time: %+v", info)
	}

	// Cold check of the first edit: dropping 5.0.0.0/8 is inconsistent,
	// and solving it caches the touched FEC's verdict.
	status, r1, raw := postCheck(t, ts, "fig1", nil)
	if status != http.StatusOK {
		t.Fatalf("first check: status %d, body %s", status, raw)
	}
	if r1.Consistent || !r1.Complete {
		t.Fatalf("dropping 5.0.0.0/8 should be inconsistent+complete, got %+v", r1)
	}

	// The operator's second edit additionally drops 4.0.0.0/8. Its diff
	// touches only C:1; the A:1-only FEC verdicts replay warm.
	edited := editNet(t, edit2)
	status, r2, raw := postCheck(t, ts, "fig1", &JobRequest{Updated: marshalNet(t, edited)})
	if status != http.StatusOK {
		t.Fatalf("warm re-check: status %d, body %s", status, raw)
	}
	if r2.Consistent {
		t.Fatal("dropping 4.0.0.0/8 and 5.0.0.0/8 must be reported inconsistent")
	}
	if !r2.Complete || len(r2.Violations) == 0 {
		t.Fatalf("warm re-check should be complete with a witness, got %+v", r2)
	}
	if r2.Stats.FECCacheHits == 0 {
		t.Fatalf("re-check after a one-ACL edit must replay warm verdicts, stats %+v", r2.Stats)
	}

	// A cold engine over the same inputs must agree exactly.
	prog, err := lai.Parse(daemonProgram)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := lai.Resolve(prog, figure1(), lai.ResolveOptions{Updated: edited})
	if err != nil {
		t.Fatal(err)
	}
	coldOpts := core.DefaultOptions()
	coldOpts.FindAllViolations = true
	ref := core.FromResolved(resolved, coldOpts).CheckContext(context.Background())
	var want bytes.Buffer
	(&core.Report{Checks: []*core.CheckResult{ref}}).Print(&want)
	if r2.Report != want.String() {
		t.Fatalf("warm daemon report diverges from cold engine:\nwarm:\n%s\ncold:\n%s", r2.Report, want.String())
	}
	if len(r2.Violations) != len(ref.Violations) {
		t.Fatalf("witness count: daemon %d, cold %d", len(r2.Violations), len(ref.Violations))
	}
	for i, v := range ref.Violations {
		if r2.Violations[i].Packet != v.Packet.String() {
			t.Fatalf("witness %d: daemon %q, cold %q", i, r2.Violations[i].Packet, v.Packet)
		}
	}

	// The session accounted both jobs and retains warm verdicts.
	status, data := do(t, http.MethodGet, ts.URL+"/v1/sessions/fig1", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("GET session: status %d", status)
	}
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.Jobs != 2 {
		t.Fatalf("session should have run 2 jobs, got %d", info.Jobs)
	}
	if info.CacheVerdicts == 0 {
		t.Fatal("session verdict cache should be warm after two checks")
	}
}

// TestDaemonMatchesColdCLI pins the acceptance bar: the warm daemon
// re-check and a cold one-shot `jinjing` CLI run over the same edited
// network print byte-identical reports, while the daemon's CacheStats
// confirm the re-check actually ran warm.
func TestDaemonMatchesColdCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the jinjing binary; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "jinjing")
	out, err := exec.Command("go", "build", "-o", bin, "jinjing/cmd/jinjing").CombinedOutput()
	if err != nil {
		t.Fatalf("building jinjing: %v\n%s", err, out)
	}

	_, ts := newTestDaemon(t, Config{})
	putSession(t, ts, "fig1", edit1)
	if status, _, raw := postCheck(t, ts, "fig1", nil); status != http.StatusOK {
		t.Fatalf("cold check: status %d, body %s", status, raw)
	}
	edited := editNet(t, edit2)
	status, warm, raw := postCheck(t, ts, "fig1", &JobRequest{Updated: marshalNet(t, edited)})
	if status != http.StatusOK {
		t.Fatalf("warm re-check: status %d, body %s", status, raw)
	}
	if warm.Stats.FECCacheHits == 0 {
		t.Fatalf("re-check must be warm, stats %+v", warm.Stats)
	}

	dir := t.TempDir()
	topoPath := filepath.Join(dir, "net.json")
	updatedPath := filepath.Join(dir, "updated.json")
	progPath := filepath.Join(dir, "prog.lai")
	if err := os.WriteFile(topoPath, marshalNet(t, figure1()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(updatedPath, marshalNet(t, edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(progPath, []byte(daemonProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	// The CLI exits 1 for an inconsistent check by design; its stdout is
	// still the full report.
	cold, err := exec.Command(bin, "-all-violations",
		"-topo", topoPath, "-program", progPath, "-updated", updatedPath).Output()
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("cold jinjing run: %v", err)
		}
	}
	if warm.Report != string(cold) {
		t.Fatalf("warm daemon and cold CLI disagree:\nwarm:\n%s\ncold:\n%s", warm.Report, cold)
	}
}

// TestUpdatedReadForACLsOnly: an updated snapshot is read for the ACLs
// of modified bindings only. One whose route prefix is malformed and
// whose link dangles gets the report the clean snapshot gets, from the
// CLI's -updated and from a daemon job; a bad ACL text is still
// refused, with exit 2 from the CLI and a 400 starting "updated:" from
// the daemon.
func TestUpdatedReadForACLsOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the jinjing binary; skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "jinjing")
	if out, err := exec.Command("go", "build", "-o", bin, "jinjing/cmd/jinjing").CombinedOutput(); err != nil {
		t.Fatalf("building jinjing: %v\n%s", err, out)
	}
	clean := marshalNet(t, editNet(t, edit2))
	// replace damages one thing in clean, which the full load refuses.
	replace := func(in []byte, from, to string) []byte {
		t.Helper()
		out := bytes.Replace(in, []byte(from), []byte(to), 1)
		if _, err := topo.Load(bytes.Replace(clean, []byte(from), []byte(to), 1)); bytes.Equal(out, in) || err == nil {
			t.Fatalf("replacing %s with %s: not in the snapshot, or the full load accepts it", from, to)
		}
		return out
	}
	dirty := replace(clean, `"prefix":"7.0.0.0/8"`, `"prefix":"7.0.0.999/8"`)
	dirty = replace(dirty, `"links":[`, `"links":[{"from":"A:1","to":"Z:9"},`)
	badACL := replace(clean, `"deny dst 4.0.0.0/8`, `"frobnicate dst 4.0.0.0/8`)
	topoPath, progPath := filepath.Join(dir, "net.json"), filepath.Join(dir, "prog.lai")
	if err := os.WriteFile(topoPath, marshalNet(t, figure1()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(progPath, []byte(daemonProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	// cli runs a check against snap and returns its stdout and exit code.
	cli := func(name string, snap []byte) (string, int) {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "-all-violations", "-topo", topoPath, "-program", progPath, "-updated", path).Output()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return string(out), ee.ExitCode()
		} else if err != nil {
			t.Fatalf("jinjing: %v", err)
		}
		return string(out), 0
	}

	_, ts := newTestDaemon(t, Config{})
	putSession(t, ts, "fig1", edit1)
	want, code := cli("clean", clean)
	if code != 1 || want == "" {
		t.Fatalf("clean snapshot: exit %d, report %q; want an inconsistent check", code, want)
	}
	for _, snap := range []struct {
		name string
		data []byte
	}{{"clean", clean}, {"dirty", dirty}} {
		status, resp, raw := postCheck(t, ts, "fig1", &JobRequest{Updated: snap.data})
		if status != http.StatusOK || resp.Report != want {
			t.Errorf("daemon, %s snapshot: status %d, body %s; want the report\n%s", snap.name, status, raw, want)
		}
		if got, code := cli(snap.name, snap.data); got != want || code != 1 {
			t.Errorf("CLI, %s snapshot: exit %d, report\n%s\nwant exit 1 and\n%s", snap.name, code, got, want)
		}
	}

	if _, code := cli("bad-acl", badACL); code != 2 {
		t.Errorf("CLI, bad ACL text: exit %d, want 2", code)
	}
	status, _, raw := postCheck(t, ts, "fig1", &JobRequest{Updated: badACL})
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || status != http.StatusBadRequest || !strings.HasPrefix(eb.Error.Message, "updated: ") {
		t.Errorf("daemon, bad ACL text: status %d, body %s; want a 400 starting \"updated: \"", status, raw)
	}
}

// TestDaemonSessionLifecycle covers load/inspect/replace/unload and the
// not-found and bad-name paths.
func TestDaemonSessionLifecycle(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})

	if status, _ := do(t, http.MethodGet, ts.URL+"/v1/sessions/none", nil, nil); status != http.StatusNotFound {
		t.Fatalf("GET missing session: status %d", status)
	}
	if status, _ := do(t, http.MethodDelete, ts.URL+"/v1/sessions/none", nil, nil); status != http.StatusNotFound {
		t.Fatalf("DELETE missing session: status %d", status)
	}
	if status, _, _ := postCheck(t, ts, "none", nil); status != http.StatusNotFound {
		t.Fatalf("POST to missing session: status %d", status)
	}
	if status, body := do(t, http.MethodPut, ts.URL+"/v1/sessions/.dotfile", []byte("{}"), nil); status != http.StatusBadRequest {
		t.Fatalf("PUT bad name: status %d, body %s", status, body)
	}

	putSession(t, ts, "fig1", edit1)
	status, data := do(t, http.MethodGet, ts.URL+"/v1/sessions", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("list sessions: status %d", status)
	}
	var list SessionList
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].Name != "fig1" {
		t.Fatalf("session list: %+v", list)
	}

	// Replacing an existing session answers 200, not 201.
	base := figure1()
	body, _ := json.Marshal(SessionRequest{Topology: marshalNet(t, base), Program: daemonProgram, Updated: marshalNet(t, base)})
	if status, _ := do(t, http.MethodPut, ts.URL+"/v1/sessions/fig1", body, nil); status != http.StatusOK {
		t.Fatalf("PUT replace: status %d", status)
	}

	if status, _ := do(t, http.MethodDelete, ts.URL+"/v1/sessions/fig1", nil, nil); status != http.StatusNoContent {
		t.Fatalf("DELETE session: status %d", status)
	}
	if status, _ := do(t, http.MethodGet, ts.URL+"/v1/sessions/fig1", nil, nil); status != http.StatusNotFound {
		t.Fatalf("GET deleted session: status %d", status)
	}
}

// TestDaemonJobRecords checks the job registry endpoints.
func TestDaemonJobRecords(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	putSession(t, ts, "fig1", edit1)
	if status, _, raw := postCheck(t, ts, "fig1", nil); status != http.StatusOK {
		t.Fatalf("check: status %d, body %s", status, raw)
	}

	status, data := do(t, http.MethodGet, ts.URL+"/v1/jobs", nil, nil)
	if status != http.StatusOK {
		t.Fatalf("list jobs: status %d", status)
	}
	var list struct {
		Jobs []JobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].State != JobDone || list.Jobs[0].Kind != "check" {
		t.Fatalf("job list: %+v", list.Jobs)
	}

	status, data = do(t, http.MethodGet, ts.URL+"/v1/jobs/"+list.Jobs[0].ID, nil, nil)
	if status != http.StatusOK {
		t.Fatalf("get job: status %d", status)
	}
	if !strings.Contains(string(data), `"consistent": false`) {
		t.Fatalf("job record should retain the check result, got %s", data)
	}
	if status, _ = do(t, http.MethodGet, ts.URL+"/v1/jobs/job-999", nil, nil); status != http.StatusNotFound {
		t.Fatalf("get missing job: status %d", status)
	}
}

// TestDaemonRejectsMalformedRequests covers the strict-decode surface
// the fuzzer explores: every malformed body must produce a structured
// 400, never a 500 or a loaded session.
func TestDaemonRejectsMalformedRequests(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	put := func(body string) (int, []byte) {
		return do(t, http.MethodPut, ts.URL+"/v1/sessions/s", []byte(body), nil)
	}
	cases := []string{
		"not json",
		"{}",                              // topology+program required
		`{"program":"check"}`,             // topology required
		`{"topology":{},"program":"x"} 1`, // trailing content
		`{"topology":{},"program":"x","bogus":1}`,                                  // unknown field
		`{"topology":{},"program":"x","defaults":{"deadline":"-3s"}}`,              // negative deadline
		`{"topology":{},"program":"x","defaults":{"deadline":"2000h"}}`,            // absurd deadline
		`{"topology":{},"program":"x","defaults":{"workers":100000}}`,              // absurd workers
		`{"topology":{},"program":"x","defaults":{"per_fec_budget":100000}}`,       // retired budget key: unknown field
		`{"topology":{},"program":"x","defaults":{"backend":"quantum"}}`,           // retired backend key: unknown field
		`{"topology":{},"program":"x","defaults":{"backend":"sat"}}`,               // retired backend key, once valid
		`{"topology":{"devices":0},"program":"scope A:*\nentry A:1\ncheck"}`,       // bad topology shape
		`{"topology":{},"program":"scope Q:*\nentry Q:1\nmodify Q:1 to broken {"}`, // bad program
	}
	for _, c := range cases {
		status, data := put(c)
		if status != http.StatusBadRequest {
			t.Errorf("PUT %q: status %d, body %s", c, status, data)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != "bad_request" {
			t.Errorf("PUT %q: want structured bad_request, got %s", c, data)
		}
	}
	// None of those may have loaded a session.
	if status, data := do(t, http.MethodGet, ts.URL+"/v1/sessions/s", nil, nil); status != http.StatusNotFound {
		t.Fatalf("malformed PUTs must not create sessions: status %d, body %s", status, data)
	}

	putSession(t, ts, "fig1", edit1)
	for _, c := range []string{"not json", `{"bogus":1}`, `{"deadline":"nope"}`, `{} {}`, `{"backend":"sat"}`, `{"backend":"auto"}`} {
		status, data := do(t, http.MethodPost, ts.URL+"/v1/sessions/fig1/check", []byte(c), nil)
		var eb errorBody
		if status != http.StatusBadRequest || json.Unmarshal(data, &eb) != nil || eb.Error.Code != "bad_request" {
			t.Errorf("POST %q: status %d, body %s; want a structured 400 bad_request", c, status, data)
		}
	}
	// The session survives malformed jobs.
	if status, _, _ := postCheck(t, ts, "fig1", nil); status != http.StatusOK {
		t.Fatalf("session should still run jobs after malformed requests, status %d", status)
	}
}

// TestDaemonQuota exercises per-tenant token-bucket admission over
// HTTP with a deterministic clock.
func TestDaemonQuota(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{Quota: Quota{Rate: 0.5, Burst: 1}})
	// Freeze the quota clock so no tokens accrue mid-test.
	frozen := time.Now()
	srv.quotas.now = func() time.Time { return frozen }

	putSession(t, ts, "fig1", edit1)
	hdr := map[string]string{"X-Jinjing-Tenant": "alice"}
	if status, data := do(t, http.MethodPost, ts.URL+"/v1/sessions/fig1/check", nil, hdr); status != http.StatusOK {
		t.Fatalf("first job within burst: status %d, body %s", status, data)
	}
	status, data := do(t, http.MethodPost, ts.URL+"/v1/sessions/fig1/check", nil, hdr)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second job should exhaust alice's bucket: status %d, body %s", status, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code != "quota_exhausted" || eb.Error.RetryAfterSec <= 0 {
		t.Fatalf("want quota_exhausted with retry hint, got %s", data)
	}
	// A different tenant has its own bucket.
	if status, data := do(t, http.MethodPost, ts.URL+"/v1/sessions/fig1/check", nil,
		map[string]string{"X-Jinjing-Tenant": "bob"}); status != http.StatusOK {
		t.Fatalf("bob's first job: status %d, body %s", status, data)
	}
	// Advance the clock past the refill point: alice admits again.
	frozen = frozen.Add(3 * time.Second)
	if status, data := do(t, http.MethodPost, ts.URL+"/v1/sessions/fig1/check", nil, hdr); status != http.StatusOK {
		t.Fatalf("alice after refill: status %d, body %s", status, data)
	}
}

// TestQuotaBucketMath unit-tests the refill arithmetic with a fake
// clock.
func TestQuotaBucketMath(t *testing.T) {
	now := time.Unix(1000, 0)
	q := newTenantQuotas(Quota{Rate: 2, Burst: 4}, func() time.Time { return now })
	for i := 0; i < 4; i++ {
		if ok, _ := q.admit("t"); !ok {
			t.Fatalf("burst admit %d refused", i)
		}
	}
	ok, retry := q.admit("t")
	if ok {
		t.Fatal("empty bucket should refuse")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint out of range: %v", retry)
	}
	now = now.Add(time.Second) // +2 tokens
	if ok, _ := q.admit("t"); !ok {
		t.Fatal("refilled bucket should admit")
	}
	if ok, _ := q.admit("t"); !ok {
		t.Fatal("second refilled token should admit")
	}
	if ok, _ := q.admit("t"); ok {
		t.Fatal("third token should not exist yet")
	}
	// Disabled quota admits everything.
	open := newTenantQuotas(Quota{}, nil)
	for i := 0; i < 100; i++ {
		if ok, _ := open.admit("x"); !ok {
			t.Fatal("disabled quota refused")
		}
	}
}

// TestClampOptions pins the ceiling semantics: requested values clamp,
// and unbounded jobs inherit the server's bounds.
func TestClampOptions(t *testing.T) {
	caps := jobCaps{maxDeadline: time.Minute, maxWorkers: 4}
	opts := core.DefaultOptions()
	opts.Deadline = time.Hour
	opts.Workers = 64
	clampOptions(&opts, caps)
	if opts.Deadline != time.Minute || opts.Workers != 4 {
		t.Fatalf("over-cap values should clamp: %+v", opts)
	}
	opts = core.DefaultOptions()
	opts.Deadline = 0
	clampOptions(&opts, caps)
	if opts.Deadline != time.Minute {
		t.Fatalf("unbounded jobs should inherit the caps: %+v", opts)
	}
	opts = core.DefaultOptions()
	opts.Deadline = time.Second
	opts.Workers = 2
	clampOptions(&opts, caps)
	if opts.Deadline != time.Second || opts.Workers != 2 {
		t.Fatalf("within-cap values should pass through: %+v", opts)
	}
}
