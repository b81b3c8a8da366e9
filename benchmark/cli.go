package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// env is where a run finds the binaries it measures and may write.
type env struct {
	bin  string // directory holding jinjing and jinjingd
	work string // scratch directory of this run; removed when it ends
}

// opSample is the outside view of one finished operation.
type opSample struct {
	wallMS, cpuMS, rssMB float64
}

// cliOp runs jinjing once: process start to exit, with the child's own
// rusage. A non-nil error means the op could not be observed at all
// (spawn failure, time limit); exit codes are the caller's to judge.
func cliOp(e env, args []string, limit time.Duration) (s opSample, stdout []byte, exit int, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, "jinjing"), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	runErr := cmd.Run()
	s.wallMS = ms(time.Since(t0))
	if ctx.Err() != nil {
		return s, nil, -1, fmt.Errorf("exceeded the %v limit", limit)
	}
	var ee *exec.ExitError
	if runErr != nil && !errors.As(runErr, &ee) {
		return s, nil, -1, runErr
	}
	ps := cmd.ProcessState
	s.cpuMS, s.rssMB = usage(ps)
	if ps.ExitCode() == 2 {
		return s, out.Bytes(), 2, fmt.Errorf("jinjing: %s", bytes.TrimSpace(errb.Bytes()))
	}
	return s, out.Bytes(), ps.ExitCode(), nil
}

// e2eResult is what an untraced run of one workload measured.
type e2eResult struct {
	setupS            []float64
	ops               []opSample
	attempted, failed int
	firstFailure      string
	stdoutSHA256      string
}

func (r *e2eResult) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// maxBusy is where a run stops insisting on min_ops: on a machine stalled
// to a crawl, three ops of the slowest workload would pass the driver's
// three-minute limit on a run.
const maxBusy = 60 * time.Second

// moreSetups decides whether to set up once more: at least
// setup_repeats.min times, then for as long as the set-ups so far took
// under a second, up to setup_repeats.max. A 10 ms set-up is repeated
// until its median is worth reporting; a one-second set-up is not.
func (g *grid) moreSetups(done []float64) bool {
	var sum float64
	for _, s := range done {
		sum += s
	}
	return len(done) < g.SetupRepeats.Min || sum < 1 && len(done) < g.SetupRepeats.Max
}

// setupCLI generates and writes the workload's inputs; the time it took
// is one setup sample.
func (g *grid) setupCLI(e env, wl *workload, seed int64, quick bool, tag string) (*inputs, float64, error) {
	t0 := time.Now()
	in, err := g.generate(wl, seed, quick)
	if err != nil {
		return nil, 0, err
	}
	if err := in.write(filepath.Join(e.work, tag)); err != nil {
		return nil, 0, err
	}
	return in, time.Since(t0).Seconds(), nil
}

// runCLI is the closed loop of a cli workload: one client, each op a
// fresh process, the next started when the previous has exited.
func (g *grid) runCLI(e env, wl *workload, seed int64, window time.Duration, quick bool) (*e2eResult, error) {
	res := &e2eResult{}
	var in *inputs
	for k := 0; g.moreSetups(res.setupS); k++ {
		got, s, err := g.setupCLI(e, wl, seed, quick, fmt.Sprintf("in%d", k))
		if err != nil {
			return nil, fmt.Errorf("setup: %v", err)
		}
		in = got
		res.setupS = append(res.setupS, s)
	}
	timed, err := g.measureCLI(e, in, seed, window)
	if err != nil {
		return nil, err
	}
	timed.setupS = res.setupS
	return timed, nil
}

// measureCLI runs the timed loop over inputs already on disk.
func (g *grid) measureCLI(e env, in *inputs, seed int64, window time.Duration) (*e2eResult, error) {
	res := &e2eResult{}
	wl := in.wl
	x := in.expectation(g.ValidationSamples, seed)
	wantExit := 0
	if wl.Generate == "" && len(wl.Commands) == 1 { // a bare check exits 1 on an unsafe update
		bad, err := x.expectInconsistent(in.pool)
		if err != nil {
			return nil, err
		}
		if bad {
			wantExit = 1
		}
	}

	limit := time.Duration(g.Limits.CLIOpS) * time.Second
	var first []byte
	var busy time.Duration // the window counts time inside ops, not validation between them
	for busy < window || res.attempted < g.MinOps && busy < maxBusy {
		s, out, exit, err := cliOp(e, in.args, limit)
		busy += time.Duration(s.wallMS * float64(time.Millisecond))
		res.attempted++
		switch {
		case err != nil:
			res.fail("op %d: %v", res.attempted, err)
		case exit != wantExit:
			res.fail("op %d: exit code %d, want %d", res.attempted, exit, wantExit)
		case first == nil:
			// The first output is validated in full; later ops must
			// reproduce it byte for byte.
			if err := x.judge(string(out), in.pool); err != nil {
				res.fail("op %d: %v", res.attempted, err)
				break
			}
			first = out
			res.stdoutSHA256 = fmt.Sprintf("%x", sha256.Sum256(out))
			res.ops = append(res.ops, s)
		case !bytes.Equal(out, first):
			res.fail("op %d: stdout differs from the first op's", res.attempted)
		default:
			res.ops = append(res.ops, s)
		}
		if first == nil {
			break // the input is wrong for every op; do not repeat it for the whole window
		}
	}
	return res, nil
}

// cleanWork removes the run's scratch directory.
func (e env) cleanWork() { os.RemoveAll(e.work) } //nolint:errcheck // scratch only
