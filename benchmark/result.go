package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// stamp records the machine and commit a run was taken on.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"` // git rev-parse HEAD, or "unknown" outside a git checkout
	Dirty      bool   `json:"dirty"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
}

func environment() stamp {
	s := stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			s.Dirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

// runRecord is one line of a result file.
type runRecord struct {
	Env      stamp   `json:"env"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Quick    bool    `json:"quick,omitempty"`
	WallS    float64 `json:"wall_s"` // wall clock of the whole run
	outcome
}

func appendRun(path, workload string, seed int64, traced int, quick bool, wall time.Duration, out *outcome) error {
	line, err := json.Marshal(runRecord{Env: environment(), Workload: workload, Seed: seed,
		Trace: traced, Quick: quick, WallS: wall.Seconds(), outcome: *out})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close() //nolint:errcheck // reporting the write error
		return err
	}
	return f.Close()
}

func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //nolint:errcheck // read only
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compare prints one row per (workload, metric) of two run sets: both
// medians with their quartiles, the ratio b/a with a as its base, and a
// verdict against the end-to-end bounds. A metric whose own run-to-run
// spread exceeds its bound cannot show a change of that size either
// way, so it is unresolved rather than ok.
func compare(w io.Writer, pathA, pathB string) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	collect := func(runs []runRecord) (map[key][]float64, map[string]int) {
		vals, failed := map[key][]float64{}, map[string]int{}
		for _, r := range runs {
			failed[r.Workload] += r.Failed
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], v.Value)
			}
		}
		return vals, failed
	}
	va, fa := collect(a)
	vb, fb := collect(b)
	bound := map[string]boundedMetric{}
	for _, d := range endToEnd {
		bound[d.Name] = d
	}
	var keys []key
	for k := range va {
		if _, ok := vb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	if len(a) > 0 && len(b) > 0 {
		fmt.Fprintf(w, "a: %s  commit %s dirty=%v  %d runs\n", pathA, a[0].Env.Commit, a[0].Env.Dirty, len(a))
		fmt.Fprintf(w, "b: %s  commit %s dirty=%v  %d runs\n", pathB, b[0].Env.Commit, b[0].Env.Dirty, len(b))
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median [q1, q3]\tb median [q1, q3]\tb/a\tverdict")
	regressed := 0
	for _, k := range keys {
		q1a, ma, q3a := quartiles(va[k])
		q1b, mb, q3b := quartiles(vb[k])
		verdict := "-"
		if d, ok := bound[k.metric]; ok && ma != 0 {
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			switch {
			case fb[k.workload] > fa[k.workload]:
				verdict = "regressed (more failed ops)"
			case (q3a-q1a)/ma > d.Bound || mb != 0 && (q3b-q1b)/mb > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = fmt.Sprintf("regressed (bound %.0f%%)", d.Bound*100)
			default:
				verdict = "ok"
			}
			if strings.HasPrefix(verdict, "regressed") {
				regressed++
			}
		}
		r := 0.0
		if ma != 0 {
			r = mb / ma
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%.3f of %.4g\t%s\n",
			k.workload, k.metric, ma, q1a, q3a, mb, q1b, q3b, r, ma, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed", regressed)
	}
	return nil
}
