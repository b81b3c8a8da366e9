// Command jinjing runs an LAI program against a network.
//
// Usage:
//
//	jinjing -topo net.json -program update.lai [-updated net-after.json]
//	jinjing -configs confdir -links links.json -program update.lai
//
// The network comes either from a topology file in the JSON schema of
// internal/topo (see cmd/jinjing-netgen to generate one), or from a
// directory of Cisco-IOS-style device configurations (*.cfg, see
// internal/ciscoconf) plus a JSON cable plan:
//
//	[{"from": "G:d1", "to": "R1:u"}, {"from": "R1:u", "to": "G:d1"}]
//
// The LAI program expresses the update intent; when it contains
// "modify X to X'" statements taking ACLs from a hand-written update,
// the -updated snapshot supplies them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/ciscoconf"
	"jinjing/internal/core"
	"jinjing/internal/lai"
	"jinjing/internal/obs"
	"jinjing/internal/obs/declog"
	"jinjing/internal/obs/stats"
	"jinjing/internal/topo"
)

func main() {
	var (
		topoPath    = flag.String("topo", "", "network topology JSON")
		configsDir  = flag.String("configs", "", "directory of Cisco-IOS-style device configs (*.cfg)")
		linksPath   = flag.String("links", "", "cable plan JSON for -configs")
		programPath = flag.String("program", "", "LAI program file (required)")
		updatedPath = flag.String("updated", "", "post-update network JSON for 'modify X to X'' statements")
		noDiff      = flag.Bool("no-differential", false, "disable the Theorem 4.1 differential-rules optimization")
		noOpt       = flag.Bool("no-optimizations", false, "disable the differential-rules and synthesis optimizations (basic Algorithm 1)")
		findAll     = flag.Bool("all-violations", false, "report one violation per forwarding equivalence class")
		emitIOS     = flag.Bool("emit-ios", false, "print fixed/generated ACLs as Cisco-IOS access lists")
		workers     = flag.Int("workers", 1, "parallel workers for fix and generate (check always runs on one goroutine)")
		explain     = flag.Bool("explain", false, "print hop-by-hop decision traces for each violation")

		timeout = flag.Duration("timeout", 0, "wall-clock deadline per primitive call (0 = none); expired checks report UNDECIDED FECs, fix/generate refuse their plan")

		tracePath   = flag.String("trace", "", "write a JSONL span trace to this file")
		traceText   = flag.Bool("trace-text", false, "print a human-readable span trace to stderr")
		showMetrics = flag.Bool("metrics", false, "print the metrics registry to stderr after the run")
		progress    = flag.Bool("progress", false, "report N/M progress to stderr during long phases")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file")

		decisionLog = flag.String("decision-log", "", "append one JSONL decision record per check/fix/generate to this rotating file")
		listenAddr  = flag.String("listen", "", "serve /metrics, /healthz, /events, and /debug/pprof on this address for the run's lifetime")
		slowFECs    = flag.Int("slow-fecs", 0, "print the N slowest FECs per check to stderr, with their backend route and verdict")
	)
	flag.Parse()
	if (*topoPath == "" && *configsDir == "") || *programPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	engineOpts := core.DefaultOptions()
	engineOpts.FindAllViolations = *findAll
	engineOpts.Workers = *workers
	if *noDiff || *noOpt {
		engineOpts.UseDifferential = false
	}
	if *noOpt {
		engineOpts.OptimizeSynthesis = false
	}
	engineOpts.Deadline = *timeout

	// Observability starts before the inputs are read, so profiles and
	// traces cover the load; every exit after this point calls finish.
	observer, ledger, finish, err := setupObservability(obsConfig{
		tracePath:   *tracePath,
		traceText:   *traceText,
		showMetrics: *showMetrics,
		progress:    *progress,
		cpuProfile:  *cpuProfile,
		memProfile:  *memProfile,
		decisionLog: *decisionLog,
		listenAddr:  *listenAddr,
	})
	if err != nil {
		fatal(err)
	}
	fail := func(err error) {
		finish()
		fatal(err)
	}

	load := observer.StartSpan("load")
	var in inputs
	var net *topo.Network
	if *configsDir != "" {
		net, err = in.configs(*configsDir, *linksPath)
	} else {
		net, err = in.network(*topoPath)
	}
	if err != nil {
		fail(err)
	}
	src, err := in.read(*programPath)
	if err != nil {
		fail(err)
	}
	prog, err := lai.Parse(string(src))
	if err != nil {
		fail(err)
	}

	var opts lai.ResolveOptions
	if *updatedPath != "" {
		updated, err := in.network(*updatedPath)
		if err != nil {
			fail(err)
		}
		opts.Updated = updated
	}
	resolved, err := lai.Resolve(prog, net, opts)
	if err != nil {
		fail(err)
	}
	routes := 0
	for _, d := range net.Devices {
		routes += len(d.FIB)
	}
	load.End(obs.KV("bytes", in.bytes), obs.KV("devices", len(net.Devices)), obs.KV("routes", routes))

	engineOpts.Obs = observer
	engineOpts.DecisionLog = ledger
	engineOpts.Forensics = *slowFECs > 0

	report, err := core.Run(resolved, engineOpts)
	if err != nil {
		fail(err)
	}
	report.Print(os.Stdout)
	if *slowFECs > 0 {
		printSlowFECs(os.Stderr, report, *slowFECs)
	}
	if *explain {
		eng := core.FromResolved(resolved, engineOpts)
		for _, c := range report.Checks {
			for _, v := range c.Violations {
				for _, x := range eng.Explain(v) {
					fmt.Print(x)
				}
			}
		}
	}
	if *emitIOS {
		emitIOSPlans(report)
	}
	// Flush traces, metrics, and profiles explicitly: the inconsistent
	// exit below bypasses deferred calls.
	finish()

	// Exit nonzero when a check failed — or could not finish within its
	// limits — and nothing repaired it, so the command composes into
	// automation: an UNDECIDED check must never read as a pass.
	if len(report.Fixes) == 0 && len(report.Generates) == 0 {
		for _, c := range report.Checks {
			if !c.Consistent || !c.Complete {
				os.Exit(1)
			}
		}
	}
}

// obsConfig carries every observability flag into setupObservability.
type obsConfig struct {
	tracePath   string
	traceText   bool
	showMetrics bool
	progress    bool
	cpuProfile  string
	memProfile  string
	decisionLog string
	listenAddr  string
}

// setupObservability builds the observer from the -trace/-metrics/
// -progress/-listen flags, opens the -decision-log ledger, starts the
// -listen stats server, and starts the requested pprof profiles. The
// returned finish func flushes the trace, prints metrics, closes the
// ledger, stops the server, and writes the profiles; call it exactly
// once before exiting (os.Exit bypasses defers). Everything here
// writes to files or stderr only — stdout stays byte-identical to an
// uninstrumented run.
func setupObservability(cfg obsConfig) (*obs.Observer, *declog.Logger, func(), error) {
	var fileSink obs.Sink
	var traceFile *os.File
	switch {
	case cfg.tracePath != "":
		f, err := os.Create(cfg.tracePath)
		if err != nil {
			return nil, nil, nil, err
		}
		traceFile = f
		fileSink = obs.NewJSONLSink(f)
	case cfg.traceText:
		fileSink = obs.NewTextSink(os.Stderr)
	}

	closeEarly := func() {
		if traceFile != nil {
			traceFile.Close()
		}
	}

	var ledger *declog.Logger
	if cfg.decisionLog != "" {
		l, err := declog.Open(cfg.decisionLog, declog.Options{})
		if err != nil {
			closeEarly()
			return nil, nil, nil, err
		}
		ledger = l
	}

	// The -listen hub receives finished spans (alongside any file sink)
	// and progress lines, and the server reads the metrics registry live.
	var hub *stats.Hub
	var server *stats.Server
	sink := fileSink
	if cfg.listenAddr != "" {
		hub = stats.NewHub()
		sink = obs.MultiSink(fileSink, hub)
	}
	var m *obs.Metrics
	if cfg.showMetrics || sink != nil {
		m = obs.NewMetrics()
	}
	var p *obs.Progress
	var progressW io.Writer
	switch {
	case cfg.progress && hub != nil:
		progressW = io.MultiWriter(os.Stderr, hub)
	case cfg.progress:
		progressW = os.Stderr
	case hub != nil:
		progressW = hub
	}
	if progressW != nil {
		p = obs.NewProgress(progressW)
	}
	observer := obs.NewObserver(obs.NewTracer(sink), m, p)

	if cfg.listenAddr != "" {
		server = stats.New(m, hub)
		addr, err := server.Listen(cfg.listenAddr)
		if err != nil {
			if ledger != nil {
				ledger.Close()
			}
			closeEarly()
			return nil, nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "jinjing: listening on %s\n", addr)
	}

	var stopCPU func()
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			if server != nil {
				server.Close()
			}
			if ledger != nil {
				ledger.Close()
			}
			closeEarly()
			return nil, nil, nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			if server != nil {
				server.Close()
			}
			if ledger != nil {
				ledger.Close()
			}
			closeEarly()
			return nil, nil, nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	finish := func() {
		// Fold a final live-heap sample into the peak gauge (set only by
		// checks that sampled it: -decision-log, -slow-fecs) so -metrics
		// reports end-of-run memory too.
		if g := observer.Gauge("mem.heap_peak_bytes"); g != nil && g.Value() > 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if int64(ms.HeapAlloc) > g.Value() {
				g.Set(int64(ms.HeapAlloc))
			}
		}
		observer.Flush() // appends the final metrics snapshot to the trace
		if cfg.showMetrics {
			observer.WriteMetrics(os.Stderr)
		}
		if server != nil {
			server.Close() //nolint:errcheck // best-effort shutdown
		}
		if ledger != nil {
			if err := ledger.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "jinjing:", err)
			}
		}
		if traceFile != nil {
			traceFile.Close()
		}
		if stopCPU != nil {
			stopCPU()
		}
		if cfg.memProfile != "" {
			f, err := os.Create(cfg.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jinjing:", err)
				return
			}
			runtime.GC() // materialize final heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "jinjing:", err)
			}
			f.Close()
		}
	}
	return observer, ledger, finish, nil
}

// printSlowFECs renders the -slow-fecs table: per check, the k FECs
// with the largest solver time, their resolution route, and verdict.
// Written to stderr so stdout stays pinned to the uninstrumented
// output.
func printSlowFECs(w io.Writer, report *core.Report, k int) {
	for ci, c := range report.Checks {
		fs := make([]core.FECForensics, 0, len(c.Forensics))
		for _, f := range c.Forensics {
			if f.SolveNS > 0 {
				fs = append(fs, f)
			}
		}
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].SolveNS != fs[j].SolveNS {
				return fs[i].SolveNS > fs[j].SolveNS
			}
			return fs[i].FEC < fs[j].FEC
		})
		if len(fs) > k {
			fs = fs[:k]
		}
		fmt.Fprintf(w, "check #%d: %d slowest of %d solved FECs\n", ci+1, len(fs), c.SolvedFECs)
		if len(fs) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %6s  %-12s  %-10s  %s\n", "fec", "route", "verdict", "solve")
		for _, f := range fs {
			fmt.Fprintf(w, "  %6d  %-12s  %-10s  %s\n", f.FEC, f.Route, f.Verdict, fmtNS(f.SolveNS))
		}
	}
}

// fmtNS renders a nanosecond duration compactly (µs under 10ms, ms
// above).
func fmtNS(ns int64) string {
	switch {
	case ns < 10_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	}
}

// inputs reads the run's input files and counts their bytes for the
// load span.
type inputs struct{ bytes int }

func (in *inputs) read(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	in.bytes += len(data)
	return data, err
}

// network reads a topology snapshot in the internal/topo JSON schema.
// It calls UnmarshalJSON on the bytes directly: json.Unmarshal would
// validate and skip the whole document before calling it.
func (in *inputs) network(path string) (*topo.Network, error) {
	data, err := in.read(path)
	if err != nil {
		return nil, err
	}
	n := topo.NewNetwork()
	if err := n.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return n, nil
}

// configs assembles a network from a directory of IOS-style device
// configurations and a JSON cable plan.
func (in *inputs) configs(dir, linksPath string) (*topo.Network, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.cfg"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no *.cfg files in %s", dir)
	}
	sort.Strings(paths)
	var cfgs []*ciscoconf.DeviceConfig
	for _, p := range paths {
		data, err := in.read(p)
		if err != nil {
			return nil, err
		}
		cfg, err := ciscoconf.Parse(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p, err)
		}
		cfgs = append(cfgs, cfg)
	}
	var links []ciscoconf.Link
	if linksPath != "" {
		data, err := in.read(linksPath)
		if err != nil {
			return nil, err
		}
		var raw []struct {
			From string `json:"from"`
			To   string `json:"to"`
		}
		if err := json.Unmarshal(data, &raw); err != nil {
			return nil, fmt.Errorf("%s: %v", linksPath, err)
		}
		for _, l := range raw {
			fd, fi, ok1 := cut(l.From)
			td, ti, ok2 := cut(l.To)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("%s: link endpoints must be device:interface", linksPath)
			}
			links = append(links, ciscoconf.Link{
				FromDevice: fd, FromIface: fi, ToDevice: td, ToIface: ti,
			})
		}
	}
	return ciscoconf.BuildNetwork(cfgs, links)
}

func cut(s string) (string, string, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return s[:i], s[i+1:], i > 0 && i < len(s)-1
		}
	}
	return "", "", false
}

// emitIOSPlans prints every ACL the plan changed, in IOS syntax, ready
// to paste into device configuration.
func emitIOSPlans(report *core.Report) {
	emitted := map[string]bool{}
	emit := func(bindingID string, a *acl.ACL) {
		if a == nil || emitted[bindingID] {
			return
		}
		emitted[bindingID] = true
		name := strings.ToUpper(strings.NewReplacer(":", "-").Replace(bindingID))
		fmt.Printf("\n! %s\n%s", bindingID, ciscoconf.FormatACL("JINJING-"+name, a))
	}
	for _, f := range report.Fixes {
		for _, action := range f.Actions {
			dir := topo.In
			base := action.BindingID
			if strings.HasSuffix(base, ":out") {
				dir = topo.Out
				base = strings.TrimSuffix(base, ":out")
			} else {
				base = strings.TrimSuffix(base, ":in")
			}
			if iface, err := f.Fixed.LookupInterface(base); err == nil {
				emit(action.BindingID, iface.ACL(dir))
			}
		}
	}
	for _, g := range report.Generates {
		ids := make([]string, 0, len(g.ACLs))
		for id := range g.ACLs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			emit(id, g.ACLs[id])
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jinjing:", err)
	os.Exit(2)
}
