package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Process-level chaos: these tests run the real jinjingd binary,
// SIGTERM it (graceful drain) and SIGKILL it (crash) against one
// -state-dir, and pin that a restarted daemon recovers — warm when the
// snapshot survived, cold but correct otherwise, byte-identical to the
// cold one-shot `jinjing` CLI either way. `make daemon-test` runs them
// under the race detector; -short skips them.

var chaosBins struct {
	once     sync.Once
	dir      string
	jinjingd string
	jinjing  string
	err      error
}

// chaosBinaries builds jinjingd and the jinjing CLI once per test
// process.
func chaosBinaries(t *testing.T) (daemon, cli string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries and drives real processes; skipped in -short mode")
	}
	chaosBins.once.Do(func() {
		dir, err := os.MkdirTemp("", "jinjing-chaos-bin-")
		if err != nil {
			chaosBins.err = err
			return
		}
		chaosBins.dir = dir
		chaosBins.jinjingd = filepath.Join(dir, "jinjingd")
		chaosBins.jinjing = filepath.Join(dir, "jinjing")
		for _, b := range []struct{ out, pkg string }{
			{chaosBins.jinjingd, "jinjing/cmd/jinjingd"},
			{chaosBins.jinjing, "jinjing/cmd/jinjing"},
		} {
			if out, err := exec.Command("go", "build", "-o", b.out, b.pkg).CombinedOutput(); err != nil {
				chaosBins.err = fmt.Errorf("building %s: %v\n%s", b.pkg, err, out)
				return
			}
		}
	})
	if chaosBins.err != nil {
		t.Fatal(chaosBins.err)
	}
	return chaosBins.jinjingd, chaosBins.jinjing
}

// daemonProc is one running jinjingd child process.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
}

// startDaemonProc launches jinjingd with the given extra flags on a
// free port and waits for its "serving on" banner.
func startDaemonProc(t *testing.T, bin string, extra ...string) *daemonProc {
	t.Helper()
	args := append([]string{"-listen", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill() //nolint:errcheck // idempotent teardown
			cmd.Wait()         //nolint:errcheck
		}
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "serving on "); ok {
				select {
				case addrCh <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &daemonProc{cmd: cmd, addr: addr}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatal("jinjingd never announced its address")
		return nil
	}
}

func (d *daemonProc) url(path string) string { return "http://" + d.addr + path }

// sigterm sends SIGTERM and waits for a clean exit.
func (d *daemonProc) sigterm(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("jinjingd did not exit cleanly on SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		t.Fatal("jinjingd hung on SIGTERM past the drain deadline")
	}
}

// sigkill kills the process outright — the crash the state dir must
// survive.
func (d *daemonProc) sigkill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait() //nolint:errcheck // exit status is "killed" by design
}

// chaosPut loads the Figure-1 session over real HTTP.
func chaosPut(t *testing.T, d *daemonProc, edits map[string]string) {
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
	status, data := do(t, http.MethodPut, d.url("/v1/sessions/fig1"), body, nil)
	if status != http.StatusCreated {
		t.Fatalf("PUT session: status %d, body %s", status, data)
	}
}

// chaosCheck posts a check, optionally with an updated snapshot.
func chaosCheck(t *testing.T, d *daemonProc, edits map[string]string) *CheckResponse {
	t.Helper()
	var body []byte
	if edits != nil {
		var err error
		body, err = json.Marshal(&JobRequest{Updated: marshalNet(t, editNet(t, edits))})
		if err != nil {
			t.Fatal(err)
		}
	}
	status, data := do(t, http.MethodPost, d.url("/v1/sessions/fig1/check"), body, nil)
	if status != http.StatusOK {
		t.Fatalf("POST check: status %d, body %s", status, data)
	}
	var resp CheckResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("check body: %v\n%s", err, data)
	}
	return &resp
}

// coldCLIReport runs the one-shot jinjing CLI over the same inputs and
// returns its stdout — the byte-identity reference.
func coldCLIReport(t *testing.T, cli string, edits map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	topoPath := filepath.Join(dir, "net.json")
	updatedPath := filepath.Join(dir, "updated.json")
	progPath := filepath.Join(dir, "prog.lai")
	if err := os.WriteFile(topoPath, marshalNet(t, figure1()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(updatedPath, marshalNet(t, editNet(t, edits)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(progPath, []byte(daemonProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(cli, "-all-violations",
		"-topo", topoPath, "-program", progPath, "-updated", updatedPath).Output()
	if err != nil {
		// Exit 1 is the CLI's "inconsistent" verdict, not a failure.
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("cold jinjing run: %v", err)
		}
	}
	return string(out)
}

// scrapeMetric fetches /metrics and returns the value line for the
// given Prometheus family name ("" if absent).
func scrapeMetric(t *testing.T, d *daemonProc, family string) string {
	t.Helper()
	resp, err := http.Get(d.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, family+" ") {
			return line
		}
	}
	return ""
}

// waitForFile polls until path exists.
func waitForFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never appeared", path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosSIGTERMRestart is the graceful arm of the acceptance
// criterion: warm up a real daemon, SIGTERM it (drain + shutdown
// snapshot), restart against the same -state-dir, and pin that the
// re-check replays verdicts (FECCacheHits > 0) with a report
// byte-identical to the cold one-shot CLI.
func TestChaosSIGTERMRestart(t *testing.T) {
	daemonBin, cli := chaosBinaries(t)
	state := t.TempDir()

	d1 := startDaemonProc(t, daemonBin, "-state-dir", state)
	chaosPut(t, d1, edit1)
	chaosCheck(t, d1, nil)
	warm := chaosCheck(t, d1, edit2)
	if warm.Stats.FECCacheHits == 0 {
		t.Fatalf("pre-restart re-check must be warm, stats %+v", warm.Stats)
	}
	d1.sigterm(t)
	waitForFile(t, filepath.Join(state, "sessions", "fig1.snap"))

	d2 := startDaemonProc(t, daemonBin, "-state-dir", state)
	res := chaosCheck(t, d2, edit2)
	if res.Stats.FECCacheHits == 0 {
		t.Fatalf("post-restart re-check ran cold, stats %+v", res.Stats)
	}
	if cold := coldCLIReport(t, cli, edit2); res.Report != cold {
		t.Fatalf("restarted daemon diverges from cold CLI:\ndaemon:\n%s\ncold:\n%s", res.Report, cold)
	}
	if line := scrapeMetric(t, d2, "daemon_restore_ok"); line != "daemon_restore_ok 1" {
		t.Fatalf("daemon_restore_ok metric: %q", line)
	}
	d2.sigterm(t)
}

// TestChaosSIGKILLMidJobRestart crashes the daemon with jobs possibly
// mid-flight and mid-snapshot (a very short -snapshot-interval keeps
// the write path busy), then restarts: whatever instant the kill hit,
// the state dir must come back as a working session whose check result
// is byte-identical to the cold CLI. The final cycle waits for a
// committed snapshot first, so at least one recovery is provably warm.
func TestChaosSIGKILLMidJobRestart(t *testing.T) {
	daemonBin, cli := chaosBinaries(t)
	state := t.TempDir()
	cold := coldCLIReport(t, cli, edit1)
	snapPath := filepath.Join(state, "sessions", "fig1.snap")

	d := startDaemonProc(t, daemonBin, "-state-dir", state, "-snapshot-interval", "2ms")
	chaosPut(t, d, edit1)
	chaosCheck(t, d, nil)

	const cycles = 3
	for i := 0; i < cycles; i++ {
		last := i == cycles-1
		// Fire a job and kill while it may still be running; the tiny
		// snapshot interval keeps the store's write path hot, so kills
		// land mid-snapshot too.
		// The URL is read here: the loop reassigns d while the POST may
		// still be running.
		url := d.url("/v1/sessions/fig1/check")
		go func() {
			body, _ := json.Marshal(&JobRequest{})
			http.Post(url, "application/json", bytes.NewReader(body)) //nolint:errcheck
		}()
		if last {
			waitForFile(t, snapPath)
		} else {
			time.Sleep(time.Duration(i) * 3 * time.Millisecond)
		}
		d.sigkill(t)

		d = startDaemonProc(t, daemonBin, "-state-dir", state, "-snapshot-interval", "2ms")
		res := chaosCheck(t, d, nil)
		if res.Report != cold {
			t.Fatalf("cycle %d: post-kill daemon diverges from cold CLI:\ndaemon:\n%s\ncold:\n%s", i, res.Report, cold)
		}
		if last && res.Stats.FECCacheHits == 0 {
			t.Fatalf("cycle %d: snapshot was committed before the kill yet the restore ran cold, stats %+v", i, res.Stats)
		}
	}
	// The drained shutdown still works after all that abuse.
	d.sigterm(t)
}

// TestChaosDrain503 pins the operator-visible drain semantics on the
// real binary: during a SIGTERM drain with a job in flight, new job
// POSTs get the structured "draining" 503 with a Retry-After header.
func TestChaosDrain503(t *testing.T) {
	daemonBin, _ := chaosBinaries(t)
	d := startDaemonProc(t, daemonBin, "-drain-timeout", "10s")
	chaosPut(t, d, edit1)
	chaosCheck(t, d, nil)

	// Hold a slow-ish job in flight (a full re-check with a fresh edit),
	// signal, then immediately probe.
	go func() {
		body, _ := json.Marshal(&JobRequest{Updated: marshalNet(t, editNet(t, edit2))})
		http.Post(d.url("/v1/sessions/fig1/check"), "application/json", bytes.NewReader(body)) //nolint:errcheck
	}()
	time.Sleep(5 * time.Millisecond)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Probe until the drain gate answers or the process exits.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(d.url("/v1/sessions/fig1/check"), "application/json", nil)
		if err != nil {
			break // listener closed: drain finished before we could probe
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != "draining" {
				t.Fatalf("want structured draining error, got %s", body)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("draining 503 without a Retry-After header")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed the draining 503")
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("jinjingd did not exit cleanly after drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("jinjingd hung after drain")
	}
}
