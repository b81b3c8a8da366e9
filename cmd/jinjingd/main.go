// Command jinjingd is the warm-session verification daemon: a
// long-lived HTTP/JSON service hosting named sessions, each keeping one
// network's verification engine and cross-run verdict cache warm
// between an operator's edits.
//
// Usage:
//
//	jinjingd [-listen :8080] [-max-inflight 8] [-decision-logs DIR]
//	         [-quota-rate N] [-quota-burst N] [-max-deadline D]
//	         [-max-workers N]
//	         [-state-dir DIR] [-snapshot-interval D] [-drain-timeout D]
//
// Walkthrough (see README "Running jinjingd" for full bodies):
//
//	curl -X PUT  localhost:8080/v1/sessions/wan -d @session.json
//	curl -X POST localhost:8080/v1/sessions/wan/check -d '{}'
//	curl -X POST localhost:8080/v1/sessions/wan/check -d @edit.json
//	curl localhost:8080/metrics
//
// The second check runs warm: only FECs whose ACL bindings changed are
// re-solved, the rest replay from the session's verdict cache.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jinjing/internal/serve"
)

func main() {
	var (
		listen       = flag.String("listen", ":8080", "address to serve the /v1 API and telemetry on")
		maxInFlight  = flag.Int("max-inflight", 8, "concurrent job bound across sessions; past it POSTs get 429 (negative disables)")
		quotaRate    = flag.Float64("quota-rate", 0, "per-tenant admitted jobs per second (0 disables quotas)")
		quotaBurst   = flag.Float64("quota-burst", 0, "per-tenant admission burst (0 defaults to max(1, rate))")
		maxDeadline  = flag.Duration("max-deadline", 0, "ceiling on per-job wall-clock deadlines; jobs without one inherit it (0 = uncapped)")
		maxWorkers   = flag.Int("max-workers", 0, "ceiling on per-job worker counts (0 = uncapped)")
		declogDir    = flag.String("decision-logs", "", "directory for per-session decision ledgers (<dir>/<session>.jsonl)")
		stateDir     = flag.String("state-dir", "", "directory for durable session state: manifests and verdict-cache snapshots survive restarts (empty disables)")
		snapInterval = flag.Duration("snapshot-interval", 0, "cadence of the periodic verdict-cache snapshot pass when -state-dir is set (0 = 30s default, negative disables)")
		drainTimeout = flag.Duration("drain-timeout", 0, "how long shutdown waits for in-flight jobs before closing (0 = 10s default, negative skips the wait)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jinjingd: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *declogDir != "" {
		if err := os.MkdirAll(*declogDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "jinjingd: %v\n", err)
			os.Exit(1)
		}
	}

	srv := serve.New(serve.Config{
		MaxInFlight:      *maxInFlight,
		Quota:            serve.Quota{Rate: *quotaRate, Burst: *quotaBurst},
		MaxDeadline:      *maxDeadline,
		MaxWorkers:       *maxWorkers,
		DecisionLogDir:   *declogDir,
		StateDir:         *stateDir,
		SnapshotInterval: *snapInterval,
		DrainTimeout:     *drainTimeout,
	})
	// Install the handler before announcing the address: a supervisor
	// that SIGTERMs the moment it sees "serving on" must hit the drain
	// path, not the default disposition.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	addr, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jinjingd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "jinjingd: serving on %s\n", addr)
	<-sig
	fmt.Fprintln(os.Stderr, "jinjingd: draining for shutdown (signal again to force exit)")
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "jinjingd: shutdown: %v\n", err)
			os.Exit(1)
		}
	case <-sig:
		// A second signal aborts the drain: the operator wants out now.
		// Durable sessions fall back on their last committed snapshot.
		fmt.Fprintln(os.Stderr, "jinjingd: second signal, forcing exit")
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "jinjingd: stopped after %v drain\n", time.Since(start).Round(time.Millisecond))
}
