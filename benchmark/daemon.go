package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"jinjing/internal/serve"
	"jinjing/internal/topo"
)

const sessionName = "wan"

// daemon is one jinjingd subprocess and the single connection to it.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	client   *http.Client
	stateDir string
	startMS  float64 // spawn to "serving on"
	cpuMS    float64 // set by stop: the whole process's user+sys
	rssMB    float64 // set by stop
}

// startDaemon spawns jinjingd on a free loopback port and waits until
// it announces its address.
func startDaemon(e env, stateDir string, limit time.Duration) (*daemon, error) {
	cmd := exec.Command(filepath.Join(e.bin, "jinjingd"),
		"-listen", "127.0.0.1:0", "-state-dir", stateDir,
		// The 30 s periodic snapshot pass would fire in some runs and not
		// in others; drain still snapshots every session.
		"-snapshot-interval", "-1s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stateDir: stateDir}
	ready := make(chan string, 1)
	go func() {
		// Runs until the daemon closes stderr at exit; stop waits for
		// the process, which ends this goroutine.
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "jinjingd: serving on "); ok && !announced {
				announced = true
				ready <- rest
			}
		}
		if !announced {
			close(ready)
		}
	}()
	select {
	case addr, ok := <-ready:
		if !ok {
			cmd.Wait() //nolint:errcheck // reporting the start failure instead
			return nil, fmt.Errorf("jinjingd exited before serving")
		}
		d.base = "http://" + addr
	case <-time.After(limit):
		cmd.Process.Kill() //nolint:errcheck // already failing
		cmd.Wait()         //nolint:errcheck
		return nil, fmt.Errorf("jinjingd did not start serving within %v", limit)
	}
	d.startMS = ms(time.Since(t0))
	d.client = &http.Client{
		Timeout:   limit,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	return d, nil
}

// stop sends SIGTERM, waits for the drain to finish and the process to
// exit, and records the process's rusage. It returns the drain time.
func (d *daemon) stop() (drainMS float64, err error) {
	t0 := time.Now()
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	werr := d.cmd.Wait()
	drainMS = ms(time.Since(t0))
	d.cpuMS, d.rssMB = usage(d.cmd.ProcessState)
	if werr != nil {
		return drainMS, fmt.Errorf("jinjingd exit: %v", werr)
	}
	return drainMS, nil
}

// peakRSSNow reads the live process's resident-set high-water mark.
func (d *daemon) peakRSSNow() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// cpuNow reads the live process's user+sys CPU from /proc (clock ticks
// of 10 ms).
func (d *daemon) cpuNow() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line.
	rest := data[bytes.LastIndexByte(data, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat line")
	}
	return (ut + st) * 10, nil
}

// do sends one request and reads the whole response: request write to
// response read.
func (d *daemon) do(method, path string, body []byte) (wallMS float64, status int, resp []byte, err error) {
	req, err := http.NewRequestWithContext(context.Background(), method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	t0 := time.Now()
	r, err := d.client.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	resp, err = io.ReadAll(r.Body)
	r.Body.Close() //nolint:errcheck // read to EOF already
	return ms(time.Since(t0)), r.StatusCode, resp, err
}

// counter reads one counter from the daemon's Prometheus /metrics page.
func (d *daemon) counter(name string) (float64, error) {
	_, status, text, err := d.do("GET", "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, nil // a counter never incremented is not exported
}

// session is the client side of one warm daemon session: the inputs, the
// operator's current snapshot, and where in the edit sequence it is.
type session struct {
	in       *inputs
	x        *expectation
	snapshot *topo.Network // the post-update snapshot, edits applied so far
	next     int           // next edit
	fecs     int           // what the session said at PUT

	putMS, coldMS float64 // the PUT and the cold check that opened it
}

// putBody is the PUT /v1/sessions/{name} body.
func (in *inputs) putBody() ([]byte, error) {
	topoJSON, err := json.Marshal(in.before)
	if err != nil {
		return nil, err
	}
	afterJSON, err := json.Marshal(in.after)
	if err != nil {
		return nil, err
	}
	all := true
	return json.Marshal(serve.SessionRequest{
		Topology: topoJSON, Program: in.prog.Format(), Updated: afterJSON,
		Defaults: &serve.JobOverrides{AllViolations: &all},
	})
}

// open PUTs the session and runs the first, cold check.
func (d *daemon) open(in *inputs, x *expectation) (*session, error) {
	body, err := in.putBody()
	if err != nil {
		return nil, err
	}
	putMS, status, resp, err := d.do("PUT", "/v1/sessions/"+sessionName, body)
	if err != nil || status/100 != 2 {
		return nil, fmt.Errorf("PUT session: status %d: %v %s", status, err, resp)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(resp, &info); err != nil {
		return nil, err
	}
	s := &session{in: in, x: x, snapshot: in.after.Clone(), fecs: info.FECs, putMS: putMS}
	var cr *serve.CheckResponse
	if s.coldMS, cr, err = d.check(s, []byte("{}")); err != nil {
		return nil, fmt.Errorf("cold check: %v", err)
	}
	if cr.Stats.FECCacheHits != 0 {
		return nil, fmt.Errorf("cold check had %d cache hits", cr.Stats.FECCacheHits)
	}
	return s, nil
}

// nextBody applies the next edit to the operator's snapshot and returns
// the POST body carrying it. Untimed: the operator's editor, not the
// daemon.
func (s *session) nextBody() ([]byte, error) {
	e := s.in.edits[s.next%len(s.in.edits)]
	s.next++
	if err := e.apply(s.snapshot); err != nil {
		return nil, err
	}
	snap, err := json.Marshal(s.snapshot)
	if err != nil {
		return nil, err
	}
	// serve.JobRequest{Updated: snap}, without json.Marshal's second pass
	// over the megabyte it embeds.
	return append(append([]byte(`{"updated":`), snap...), '}'), nil
}

// check POSTs one check job and applies the per-op acceptance test:
// 2xx, complete, the session's FEC count, and a verdict line that agrees
// with the JSON fields.
func (d *daemon) check(s *session, body []byte) (float64, *serve.CheckResponse, error) {
	wallMS, status, resp, err := d.do("POST", "/v1/sessions/"+sessionName+"/check", body)
	if err != nil {
		return wallMS, nil, err
	}
	if status != http.StatusOK {
		return wallMS, nil, fmt.Errorf("status %d: %s", status, resp)
	}
	var cr serve.CheckResponse
	if err := json.Unmarshal(resp, &cr); err != nil {
		return wallMS, nil, err
	}
	verdict := "check: INCONSISTENT "
	if cr.Consistent {
		verdict = "check: consistent "
	}
	switch {
	case !cr.Complete:
		return wallMS, &cr, fmt.Errorf("check incomplete: %d unknown", len(cr.Unknown))
	case cr.FECs != s.fecs:
		return wallMS, &cr, fmt.Errorf("%d FECs, session has %d", cr.FECs, s.fecs)
	case !strings.HasPrefix(cr.Report, verdict):
		return wallMS, &cr, fmt.Errorf("report %q disagrees with consistent=%v", firstLine(cr.Report), cr.Consistent)
	}
	return wallMS, &cr, nil
}

func firstLine(s string) string {
	if k := strings.IndexByte(s, '\n'); k >= 0 {
		return s[:k]
	}
	return s
}

// judgeAgainstCLI validates a warm re-check in full: the reference
// evaluator replays every counterexample on the operator's current
// snapshot, and a cold one-shot `jinjing` run over the same files must
// print the identical report.
func (s *session) judgeAgainstCLI(e env, g *grid, rep string) error {
	s.x.after = s.snapshot
	if err := s.x.judge(rep, s.in.pool); err != nil {
		return err
	}
	dir := filepath.Join(e.work, "crosscheck")
	cold := &inputs{wl: &workload{Source: "topo", Flags: []string{"-all-violations"}},
		before: s.in.before, after: s.snapshot, prog: s.in.prog}
	if err := cold.write(dir); err != nil {
		return err
	}
	_, out, _, err := cliOp(e, cold.args, time.Duration(g.Limits.CLIOpS)*time.Second)
	if err != nil {
		return err
	}
	if string(out) != rep {
		return fmt.Errorf("warm daemon report differs from the cold CLI's (%q vs %q)", firstLine(rep), firstLine(string(out)))
	}
	return nil
}

// setupDaemon is one full set-up of a daemon workload: inputs from the
// seed, a fresh daemon on a fresh state directory, the session PUT and
// the cold check.
func (g *grid) setupDaemon(e env, wl *workload, seed int64, quick bool, tag string) (*daemon, *session, float64, error) {
	limit := time.Duration(g.Limits.HTTPOpS) * time.Second
	t0 := time.Now()
	in, err := g.generate(wl, seed, quick)
	if err != nil {
		return nil, nil, 0, err
	}
	d, err := startDaemon(e, filepath.Join(e.work, tag, "state"), limit)
	if err != nil {
		return nil, nil, 0, err
	}
	s, err := d.open(in, in.expectation(g.ValidationSamples, seed))
	if err != nil {
		d.stop() //nolint:errcheck // reporting the earlier error
		return nil, nil, 0, err
	}
	return d, s, time.Since(t0).Seconds(), nil
}

// runDaemon is the closed loop of the daemon workload: one client, one
// connection, the next re-check sent when the previous response has
// been read.
func (g *grid) runDaemon(e env, wl *workload, seed int64, window time.Duration, quick bool) (res *e2eResult, err error) {
	res = &e2eResult{}
	var d *daemon
	var s *session
	defer func() {
		if d != nil { // an error path left the daemon running
			d.stop() //nolint:errcheck // reporting the earlier error
		}
	}()
	for k := 0; g.moreSetups(res.setupS); k++ {
		if d != nil {
			_, err := d.stop()
			d = nil
			if err != nil {
				return nil, err
			}
		}
		var secs float64
		if d, s, secs, err = g.setupDaemon(e, wl, seed, quick, fmt.Sprintf("d%d", k)); err != nil {
			return nil, fmt.Errorf("setup: %v", err)
		}
		res.setupS = append(res.setupS, secs)
	}

	var lastReport string
	var busyMS, rssMB float64
	cpu0, err := d.cpuNow()
	if err != nil {
		return nil, err
	}
	for busyMS < float64(window.Milliseconds()) || res.attempted < g.MinOps && busyMS < float64(maxBusy.Milliseconds()) {
		body, err := s.nextBody()
		if err != nil {
			return nil, err
		}
		res.attempted++
		wallMS, cr, err := d.check(s, body)
		busyMS += wallMS
		if err != nil {
			res.fail("re-check %d: %v", res.attempted, err)
			if len(res.ops) == 0 {
				break // nothing works; do not spin for the whole window
			}
			continue
		}
		lastReport = cr.Report
		res.ops = append(res.ops, opSample{wallMS: wallMS})
		if len(res.ops) == g.DaemonRSSAfterOps {
			// The session's memory grows with every edit it has seen, so
			// the peak is read at a fixed point of the edit sequence, not
			// wherever a faster or slower run happens to end.
			if rssMB, err = d.peakRSSNow(); err != nil {
				return nil, err
			}
		}
	}
	if rssMB == 0 {
		if rssMB, err = d.peakRSSNow(); err != nil {
			return nil, err
		}
	}
	cpu1, err := d.cpuNow()
	if err != nil {
		return nil, err
	}
	if lastReport != "" {
		// Once per run, untimed: the full judgement of the last answer.
		if err := s.judgeAgainstCLI(e, g, lastReport); err != nil {
			res.failed, res.firstFailure = res.attempted, err.Error()
		}
	}
	last := d
	d = nil
	if _, err := last.stop(); err != nil {
		return nil, err
	}
	// The daemon is one process for all ops: an op's CPU is its share of
	// the process's CPU over the timed section.
	for i := range res.ops {
		res.ops[i].cpuMS, res.ops[i].rssMB = (cpu1-cpu0)/float64(res.attempted), rssMB
	}
	return res, nil
}
