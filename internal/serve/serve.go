// Package serve is the jinjingd daemon: a long-lived HTTP/JSON service
// hosting named warm verification sessions. Each session owns one
// engine and one cross-run verdict cache for one network, so an
// operator's edit–check–fix loop pays the cold costs (path enumeration,
// FEC derivation, solver warm-up) once at PUT time and every subsequent
// job runs warm — the deployment shape the paper's incremental numbers
// assume, where re-verification after a small ACL edit is dominated by
// the changed FECs, not the network size.
//
// API (all JSON):
//
//	PUT    /v1/sessions/{name}                load a network + LAI program
//	GET    /v1/sessions[/{name}]              inspect
//	DELETE /v1/sessions/{name}                unload
//	POST   /v1/sessions/{name}/check          run a primitive; body carries
//	POST   /v1/sessions/{name}/fix            an optional updated snapshot
//	POST   /v1/sessions/{name}/generate       and per-job option overrides
//	GET    /v1/jobs[/{id}]                    job records
//	GET    /metrics /healthz /events /debug/pprof/   (internal/obs/stats)
//
// Jobs on one session are strictly serialized (the engine and verdict
// cache are single-writer); across sessions they run concurrently up to
// Config.MaxInFlight, past which the daemon answers 429 + Retry-After
// rather than queueing unboundedly. Per-tenant token-bucket quotas
// (X-Jinjing-Tenant header) bound admission per wall-clock second, and
// per-job deadlines/budgets are clamped by the server's ceilings.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jinjing/internal/obs"
	"jinjing/internal/obs/declog"
	"jinjing/internal/obs/stats"
)

// Config tunes the daemon. The zero value serves with the defaults
// below and no quotas or decision logs.
type Config struct {
	// MaxInFlight bounds concurrently executing jobs across all
	// sessions; past it POSTs get 429 + Retry-After. 0 defaults to 8,
	// negative disables the bound.
	MaxInFlight int
	// Quota is the per-tenant admission budget (zero disables).
	Quota Quota
	// MaxDeadline / MaxWorkers are per-job ceilings: requested values
	// above them are clamped, and a job with no deadline of its own
	// inherits the ceiling. 0 leaves the knob uncapped.
	MaxDeadline time.Duration
	MaxWorkers  int
	// DecisionLogDir, when set, attaches a rotating JSONL decision
	// ledger per session at <dir>/<session>.jsonl.
	DecisionLogDir string
	// StateDir, when set, makes sessions durable across daemon
	// restarts: each PUT persists the session's build recipe (manifest)
	// and the verdict cache is snapshotted on a periodic interval and
	// at shutdown — both atomically, so a crash at any moment leaves
	// readable state. Those persists also rewrite the
	// manifest when a job has posted a new sticky updated snapshot, so a
	// restart checks the snapshot in effect at the last persist (after a
	// drain, the last one accepted; after a crash, possibly an earlier
	// one). After a restart, a request naming a persisted session
	// rehydrates it lazily on first use; torn, corrupt, or
	// version-mismatched state degrades to a cold start (counted in
	// daemon.restore.{ok,corrupt,stale}), never a wrong verdict.
	StateDir string
	// SnapshotInterval is the cadence of the periodic verdict-cache
	// snapshot pass when StateDir is set. 0 defaults to 30s; negative
	// disables the periodic pass (the shutdown snapshot still runs).
	SnapshotInterval time.Duration
	// DrainTimeout bounds how long Close waits for in-flight jobs to
	// finish before shutting the HTTP server down. During the drain new
	// jobs get the structured "draining" 503 + Retry-After. 0 defaults
	// to 10s; negative skips the wait.
	DrainTimeout time.Duration
}

const (
	defaultMaxInFlight      = 8
	defaultSnapshotInterval = 30 * time.Second
	defaultDrainTimeout     = 10 * time.Second
	// retryJitterSpan spreads Retry-After hints over [0, span) extra
	// seconds so synchronized clients don't re-stampede admission on
	// the same second.
	retryJitterSpan = 3
)

// The daemon's connection timeouts: for a request's headers, for its body
// (withBodyDeadline), and for an idle keep-alive connection. Each is far
// above what the largest accepted body takes over loopback, and above the
// 10 s the operator benchmark allows a request. No write timeout: /events
// streams answer for as long as they run. Variables only so that tests
// can lower them.
var (
	headerTimeout = 30 * time.Second
	bodyTimeout   = 2 * time.Minute
	idleTimeout   = 5 * time.Minute
)

// Server is one daemon instance. Construct with New, bind with Listen
// (or mount Handler under a test harness), stop with Close.
type Server struct {
	cfg      Config
	metrics  *obs.Metrics
	hub      *stats.Hub
	stats    *stats.Server
	observer *obs.Observer
	quotas   *tenantQuotas
	jobs     *jobRegistry

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool

	inflight atomic.Int64

	// draining gates admission during shutdown: once set, job POSTs and
	// session PUTs get the structured "draining" 503 instead of racing
	// the listener close.
	draining atomic.Bool

	// state is the durable session store (nil without Config.StateDir);
	// stateErr defers a state-directory setup failure to Listen.
	// restoreMu serializes lazy rehydrations (cold engine builds are
	// expensive; concurrent first touches of one name must not race).
	state     *stateStore
	stateErr  error
	restoreMu sync.Mutex

	mux  *http.ServeMux
	srv  *http.Server
	lis  net.Listener
	done chan struct{}

	// snapStop ends the periodic snapshot loop; snapOnce makes Close
	// idempotent about it.
	snapStop chan struct{}
	snapOnce sync.Once

	// retryJitter returns a pseudo-random int in [0, n); tests override
	// it for deterministic Retry-After assertions.
	retryJitter func(n int) int

	// testGate, when set, is called inside the session critical section
	// before a job executes — the test suite uses it to hold admission
	// slots open deterministically.
	testGate func(session, kind string)
}

// New builds a daemon from cfg.
func New(cfg Config) *Server {
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	metrics := obs.NewMetrics()
	hub := stats.NewHub()
	s := &Server{
		cfg:      cfg,
		metrics:  metrics,
		hub:      hub,
		stats:    stats.New(metrics, hub),
		observer: obs.NewObserver(obs.NewTracer(hub), metrics, obs.NewProgress(hub)),
		quotas:   newTenantQuotas(cfg.Quota, nil),
		jobs:     newJobRegistry(),
		sessions: map[string]*session{},
		mux:      http.NewServeMux(),
	}
	s.mux.HandleFunc("PUT /v1/sessions/{name}", s.handleSessionPut)
	s.mux.HandleFunc("GET /v1/sessions/{name}", s.handleSessionGet)
	s.mux.HandleFunc("DELETE /v1/sessions/{name}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /v1/sessions/{$}", s.handleSessionList)
	s.mux.HandleFunc("POST /v1/sessions/{name}/check", s.jobHandler("check"))
	s.mux.HandleFunc("POST /v1/sessions/{name}/fix", s.jobHandler("fix"))
	s.mux.HandleFunc("POST /v1/sessions/{name}/generate", s.jobHandler("generate"))
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{$}", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	// Telemetry surface: /metrics, /healthz, /events (SSE), /debug/pprof/.
	s.mux.Handle("/", s.stats.Handler())
	s.retryJitter = func(n int) int {
		if n <= 0 {
			return 0
		}
		return rand.Intn(n)
	}
	if cfg.StateDir != "" {
		st, err := newStateStore(cfg.StateDir)
		if err != nil {
			// Defer the failure to Listen: a daemon asked to be durable
			// must not silently serve without durability.
			s.stateErr = err
		} else {
			s.state = st
			interval := cfg.SnapshotInterval
			if interval == 0 {
				interval = defaultSnapshotInterval
			}
			if interval > 0 {
				s.snapStop = make(chan struct{})
				go s.snapshotLoop(interval)
			}
		}
	}
	return s
}

// retrySec is a Retry-After hint: base seconds plus jitter, so a herd
// of synchronized clients refused in the same second spreads its
// retries instead of re-stampeding admission together.
func (s *Server) retrySec(base int) int { return base + s.retryJitter(retryJitterSpan) }

// Handler returns the daemon's route table, for mounting under an
// httptest server.
func (s *Server) Handler() http.Handler { return withBodyDeadline(s.mux) }

// Observer returns the daemon's observer (spans, metrics, progress all
// fan out to /metrics and /events).
func (s *Server) Observer() *obs.Observer { return s.observer }

// Listen binds addr (host:port; port 0 picks a free one), starts
// serving in a goroutine, and returns the bound address. A daemon
// configured with a StateDir that could not be prepared refuses to
// serve: durability was asked for and cannot be silently dropped.
func (s *Server) Listen(addr string) (string, error) {
	if s.stateErr != nil {
		return "", s.stateErr
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lis = lis
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.srv.Serve(lis) //nolint:errcheck // ErrServerClosed on shutdown
	}()
	return lis.Addr().String(), nil
}

// Close shuts the daemon down gracefully: it stops admitting new jobs
// (POSTs and PUTs get the structured "draining" 503 + Retry-After),
// waits up to DrainTimeout for in-flight jobs to finish, snapshots
// every durable session, then stops the listener, ends /events
// streams, and releases every session (closing its ledger and solver
// session).
func (s *Server) Close() error {
	// 1. Stop admitting. Requests that already passed the gate keep
	// their in-flight slots; everything arriving after this point is
	// refused with a retryable error instead of a torn connection.
	if s.draining.CompareAndSwap(false, true) {
		s.observer.Counter("daemon.drain.started").Inc()
	}
	if s.snapStop != nil {
		s.snapOnce.Do(func() { close(s.snapStop) })
	}

	// 2. Drain: wait for the in-flight count to reach zero, bounded by
	// DrainTimeout (0 → default, negative → skip the wait entirely).
	drain := s.cfg.DrainTimeout
	if drain == 0 {
		drain = defaultDrainTimeout
	}
	if drain > 0 {
		deadline := time.Now().Add(drain)
		for s.inflight.Load() > 0 {
			if time.Now().After(deadline) {
				s.observer.Counter("daemon.drain.timeouts").Inc()
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// 3. Stop the HTTP server. With admission closed and the drain done
	// this is quick; the shutdown context only bounds stragglers.
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = s.srv.Shutdown(ctx)
		cancel()
		if err != nil {
			s.srv.Close() //nolint:errcheck // force-close after timeout
		}
		<-s.done
		s.srv = nil
	}
	s.stats.Close() //nolint:errcheck // closes hub subscribers; never bound

	// 4. Snapshot and release every session. A session whose lock cannot
	// be taken within a second (a wedged job) is abandoned rather than
	// blocking shutdown — its last periodic snapshot still stands.
	s.mu.Lock()
	sessions := s.sessions
	s.sessions = map[string]*session{}
	s.closed = true
	s.mu.Unlock()
	for name, sess := range sessions {
		if !lockWithin(&sess.mu, time.Second) {
			s.observer.Counter("daemon.drain.abandoned_sessions").Inc()
			continue
		}
		if s.state != nil {
			s.persistLocked(name, sess)
		}
		sess.closeLocked()
		sess.mu.Unlock()
	}
	s.observer.Counter("daemon.drain.completed").Inc()
	return err
}

// lockWithin tries to take mu for up to d, polling — shutdown must not
// hang forever on a wedged job's session lock.
func lockWithin(mu *sync.Mutex, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		if mu.TryLock() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ---- durable state ----

// snapshotLoop periodically persists the verdict cache of every dirty
// durable session.
func (s *Server) snapshotLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			s.snapshotAll()
		}
	}
}

// snapshotAll runs one snapshot pass. A session busy with a job is
// skipped (TryLock), not waited on — the next pass or the shutdown
// snapshot will catch it.
func (s *Server) snapshotAll() {
	s.mu.Lock()
	type named struct {
		name string
		sess *session
	}
	sessions := make([]named, 0, len(s.sessions))
	for name, sess := range s.sessions {
		sessions = append(sessions, named{name, sess})
	}
	s.mu.Unlock()
	for _, n := range sessions {
		if !n.sess.dirty.Load() {
			continue
		}
		if !n.sess.mu.TryLock() {
			continue
		}
		s.persistLocked(n.name, n.sess)
		n.sess.mu.Unlock()
	}
}

// persistLocked snapshots one session's verdict cache (sess.mu held),
// after rewriting its manifest when a job's sticky edit has changed it.
// A cache with nothing to export (never bound — no job ran yet) is
// skipped silently; a write failure is counted and the dirty flag kept
// so the next pass retries.
func (s *Server) persistLocked(name string, sess *session) {
	if s.state == nil {
		return
	}
	if sess.recipeDirty && !s.saveRecipeLocked(name, sess) {
		return
	}
	snap := sess.engine.ExportVerdicts()
	if snap == nil {
		return
	}
	if err := s.state.saveSnapshot(name, snap); err != nil {
		s.observer.Counter("daemon.snapshots.errors").Inc()
		return
	}
	sess.dirty.Store(false)
	s.observer.Counter("daemon.snapshots.written").Inc()
}

// saveRecipeLocked writes the session's manifest (sess.mu held),
// reporting success; a failure is counted.
func (s *Server) saveRecipeLocked(name string, sess *session) bool {
	if err := s.state.saveManifest(name, sess.recipe); err != nil {
		s.observer.Counter("daemon.snapshots.errors").Inc()
		return false
	}
	sess.recipeDirty = false
	return true
}

// rehydrate rebuilds a persisted session after a restart: the manifest
// replays the PUT (with the last persisted sticky updated snapshot),
// and the verdict snapshot — when readable and matching the rebuilt
// engine's configuration digest — re-warms the cache. Any damage along
// the way degrades to a cold session (or, for a damaged manifest, no
// session), never a wrong verdict.
func (s *Server) rehydrate(name string) *session {
	if s.state == nil || !validSessionName(name) || s.draining.Load() {
		return nil
	}
	// Serialize rehydrations: engine builds are expensive and two
	// concurrent first touches of one name must not both build it.
	s.restoreMu.Lock()
	defer s.restoreMu.Unlock()
	if sess := s.lookup(name); sess != nil {
		return sess
	}

	req, err := s.state.loadManifest(name)
	if err != nil {
		if !os.IsNotExist(err) {
			s.observer.Counter("daemon.restore.corrupt").Inc()
		}
		return nil
	}
	var ledger *declog.Logger
	var ledgerPath string
	if s.cfg.DecisionLogDir != "" {
		ledgerPath = filepath.Join(s.cfg.DecisionLogDir, name+".jsonl")
		if ledger, err = declog.Open(ledgerPath, declog.Options{}); err != nil {
			s.observer.Counter("daemon.restore.corrupt").Inc()
			return nil
		}
	}
	sess, err := newSession(name, req, s.observer, ledger, ledgerPath)
	if err != nil {
		ledger.Close() //nolint:errcheck // best-effort on failed rebuild
		s.observer.Counter("daemon.restore.corrupt").Inc()
		return nil
	}
	outcome := s.restoreSnapshot(name, sess)
	s.observer.Counter("daemon.restore." + outcome).Inc()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sess.mu.Lock()
		sess.closeLocked()
		sess.mu.Unlock()
		return nil
	}
	s.sessions[name] = sess
	s.mu.Unlock()
	s.observer.Counter("daemon.sessions.restored").Inc()
	return sess
}

// restoreSnapshot loads a session's verdict snapshot into its freshly
// built engine, classifying the outcome: "ok" (imported, or no
// snapshot on disk — a cold session is fine), "stale" (version gate),
// or "corrupt" (torn bytes, checksum failure, digest mismatch, or a
// panic out of the restore path). Every non-ok outcome leaves the
// session cold and usable.
func (s *Server) restoreSnapshot(name string, sess *session) (outcome string) {
	defer func() {
		if r := recover(); r != nil {
			outcome = "corrupt"
		}
	}()
	snap, err := s.state.loadSnapshot(name)
	if err != nil {
		switch {
		case os.IsNotExist(err):
			return "ok" // no snapshot yet; cold is correct
		case isStaleState(err):
			return "stale"
		default:
			return "corrupt"
		}
	}
	if err := sess.engine.ImportVerdicts(snap); err != nil {
		return "corrupt"
	}
	return "ok"
}

// caps returns the per-job option ceilings.
func (s *Server) caps() jobCaps {
	return jobCaps{maxDeadline: s.cfg.MaxDeadline, maxWorkers: s.cfg.MaxWorkers}
}

// ---- session endpoints ----

func (s *Server) handleSessionPut(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.observer.Counter("daemon.jobs.drained_rejected").Inc()
		writeError(w, http.StatusServiceUnavailable, &APIError{Code: "draining",
			Message: "daemon is draining for shutdown", RetryAfterSec: s.retrySec(1)})
		return
	}
	name := r.PathValue("name")
	if !validSessionName(name) {
		writeError(w, http.StatusBadRequest, &APIError{Code: "bad_request",
			Message: fmt.Sprintf("invalid session name %q (want 1-%d chars of [A-Za-z0-9._-], not starting with '.' or '-')", name, maxSessionName)})
		return
	}
	body, apiErr := readBody(w, r)
	if apiErr != nil {
		writeError(w, statusFor(apiErr), apiErr)
		return
	}
	req, err := DecodeSessionRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, &APIError{Code: "bad_request", Message: err.Error()})
		return
	}

	var ledger *declog.Logger
	var ledgerPath string
	if s.cfg.DecisionLogDir != "" {
		ledgerPath = filepath.Join(s.cfg.DecisionLogDir, name+".jsonl")
		ledger, err = declog.Open(ledgerPath, declog.Options{})
		if err != nil {
			writeError(w, http.StatusInternalServerError, &APIError{Code: "internal",
				Message: fmt.Sprintf("decision log: %v", err)})
			return
		}
	}
	sess, err := newSession(name, req, s.observer, ledger, ledgerPath)
	if err != nil {
		ledger.Close() //nolint:errcheck // best-effort on failed load
		writeError(w, http.StatusBadRequest, &APIError{Code: "bad_request", Message: err.Error()})
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sess.mu.Lock()
		sess.closeLocked()
		sess.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, &APIError{Code: "internal", Message: "server closed"})
		return
	}
	old := s.sessions[name]
	s.sessions[name] = sess
	s.mu.Unlock()

	status := http.StatusCreated
	if old != nil {
		// Replacing discards the old session's warm cache; waiting for
		// its lock lets an in-flight job finish cleanly first.
		old.mu.Lock()
		old.closeLocked()
		old.mu.Unlock()
		status = http.StatusOK
	}
	if s.state != nil {
		// Persist the build recipe under the session lock, so it cannot
		// overwrite a sticky edit a job has persisted meanwhile; the old
		// snapshot (if any) belongs to the replaced session's
		// configuration and must not linger.
		sess.mu.Lock()
		s.state.removeSnapshot(name)
		s.saveRecipeLocked(name, sess)
		sess.mu.Unlock()
	}
	s.observer.Counter("daemon.sessions.loaded").Inc()
	writeJSON(w, status, sess.info())
}

func (s *Server) lookup(name string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[name]
}

// lookupOrRestore finds a loaded session, falling back to lazy
// rehydration from the state directory: after a restart, the first
// request naming a persisted session rebuilds it on the spot.
func (s *Server) lookupOrRestore(name string) *session {
	if sess := s.lookup(name); sess != nil {
		return sess
	}
	return s.rehydrate(name)
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupOrRestore(r.PathValue("name"))
	if sess == nil {
		writeError(w, http.StatusNotFound, &APIError{Code: "not_found",
			Message: fmt.Sprintf("no session %q", r.PathValue("name"))})
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	sess := s.sessions[name]
	delete(s.sessions, name)
	s.mu.Unlock()
	// Drop persisted state too — even for a session that was never
	// rehydrated this run, DELETE must forget it durably.
	var hadState bool
	if s.state != nil && validSessionName(name) {
		hadState = s.state.remove(name)
	}
	if sess == nil {
		if hadState {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeError(w, http.StatusNotFound, &APIError{Code: "not_found",
			Message: fmt.Sprintf("no session %q", name)})
		return
	}
	sess.mu.Lock()
	sess.closeLocked()
	sess.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSessionList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	infos := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		infos = append(infos, sess.info())
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, SessionList{Sessions: infos})
}

// ---- job endpoints ----

func (s *Server) jobHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { s.handleJob(w, r, kind) }
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, kind string) {
	// Drain gate before anything else: a shutting-down daemon answers
	// with a structured, retryable refusal instead of a torn connection.
	if s.draining.Load() {
		s.observer.Counter("daemon.jobs.drained_rejected").Inc()
		writeError(w, http.StatusServiceUnavailable, &APIError{Code: "draining",
			Message: "daemon is draining for shutdown", RetryAfterSec: s.retrySec(1)})
		return
	}
	sess := s.lookupOrRestore(r.PathValue("name"))
	if sess == nil {
		writeError(w, http.StatusNotFound, &APIError{Code: "not_found",
			Message: fmt.Sprintf("no session %q", r.PathValue("name"))})
		return
	}
	body, apiErr := readBody(w, r)
	if apiErr != nil {
		writeError(w, statusFor(apiErr), apiErr)
		return
	}
	req, err := DecodeJobRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, &APIError{Code: "bad_request", Message: err.Error()})
		return
	}

	// Admission: per-tenant quota first (a quota refusal must not burn
	// an in-flight slot), then the global in-flight bound.
	tenant := r.Header.Get("X-Jinjing-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	if ok, retry := s.quotas.admit(tenant); !ok {
		s.observer.Counter("daemon.jobs.quota_rejected").Inc()
		writeError(w, http.StatusTooManyRequests, &APIError{Code: "quota_exhausted",
			Message:       fmt.Sprintf("tenant %q is out of admission tokens", tenant),
			RetryAfterSec: s.retrySec(int(retry/time.Second) + 1)})
		return
	}
	if n := s.inflight.Add(1); s.cfg.MaxInFlight > 0 && n > int64(s.cfg.MaxInFlight) {
		s.inflight.Add(-1)
		s.observer.Counter("daemon.jobs.saturated").Inc()
		writeError(w, http.StatusTooManyRequests, &APIError{Code: "saturated",
			Message:       fmt.Sprintf("daemon is at its in-flight job bound (%d)", s.cfg.MaxInFlight),
			RetryAfterSec: s.retrySec(1)})
		return
	}
	defer s.inflight.Add(-1)

	job := s.jobs.begin(sess.name, kind)
	s.hub.Publish("job", eventJSON(job, JobRunning, nil))
	s.observer.Counter("daemon.jobs.admitted").Inc()

	start := time.Now()
	result, apiErr := s.execute(r.Context(), sess, job.ID, kind, req)
	wall := time.Since(start).Nanoseconds()
	// The registry keeps the result compact; a result is a plain value,
	// so encoding it cannot fail.
	out, _ := json.Marshal(result)
	s.jobs.finish(job.ID, wall, out, apiErr)
	if apiErr != nil {
		s.observer.Counter("daemon.jobs.failed").Inc()
		s.hub.Publish("job", eventJSON(job, JobFailed, apiErr))
		writeError(w, statusFor(apiErr), apiErr)
		return
	}
	s.observer.Counter("daemon.jobs.done").Inc()
	s.hub.Publish("job", eventJSON(job, JobDone, nil))
	writeJSON(w, http.StatusOK, json.RawMessage(out))
}

// execute runs one job inside the session's critical section,
// converting a panicking job into a structured 500 while the deferred
// unlock (run during the panic unwind) keeps the session usable for the
// next job. The engine never caches a verdict it did not finish
// computing, so a crash mid-job cannot poison the warm cache.
func (s *Server) execute(ctx context.Context, sess *session, jobID, kind string, req *JobRequest) (result any, apiErr *APIError) {
	defer func() {
		if r := recover(); r != nil {
			s.observer.Counter("daemon.jobs.panics").Inc()
			result = nil
			apiErr = &APIError{Code: "job_panic", Message: fmt.Sprintf("job %s panicked: %v", jobID, r)}
		}
	}()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if s.testGate != nil {
		s.testGate(sess.name, kind)
	}
	return sess.runLocked(ctx, jobID, kind, req, s.caps())
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobInfo `json:"jobs"`
	}{Jobs: s.jobs.list()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &APIError{Code: "not_found",
			Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// ---- plumbing ----

// readBody reads a bounded request body. One declared longer than
// MaxBodyBytes is refused before any of it is read, a body of declared
// length is read by readDeclared, and a chunked body through
// http.MaxBytesReader.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, *APIError) {
	if r.ContentLength > MaxBodyBytes {
		return nil, &APIError{Code: "payload_too_large", Message: fmt.Sprintf(
			"request body of %d bytes exceeds the %d-byte limit", r.ContentLength, MaxBodyBytes)}
	}
	var body []byte
	var err error
	if r.ContentLength >= 0 {
		body, err = readDeclared(r.Body, r.ContentLength)
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	}
	if err != nil {
		return nil, &APIError{Code: "bad_request", Message: fmt.Sprintf("reading body: %v", err)}
	}
	return body, nil
}

// withBodyDeadline gives a request that carries a body bodyTimeout to send
// it, read or not; net/http clears the deadline once the body is read to
// its end. A request without a body (an /events stream) gets none.
func withBodyDeadline(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength != 0 { // declared, or chunked (-1)
			http.NewResponseController(w).SetReadDeadline(time.Now().Add(bodyTimeout)) //nolint:errcheck // no connection, no deadline
		}
		h.ServeHTTP(w, r)
	})
}

// bodyChunk is the most readDeclared allocates ahead of the bytes that
// have arrived.
const bodyChunk = 1 << 20

// readDeclared reads a body of n declared bytes. Its buffer starts at
// min(n, bodyChunk) bytes and doubles, capped at n, each time it fills:
// memory follows the bytes that arrive, not the length a client
// declares, and a body of up to bodyChunk bytes is read into one buffer
// of its length. A body that ends short of n is an io.ErrUnexpectedEOF.
func readDeclared(rd io.Reader, n int64) ([]byte, error) {
	body := make([]byte, 0, min(n, bodyChunk))
	for int64(len(body)) < n {
		if len(body) == cap(body) {
			body = append(make([]byte, 0, min(2*int64(cap(body)), n)), body...)
		}
		k, err := io.ReadFull(rd, body[len(body):cap(body)])
		body = body[:len(body)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}

// statusFor maps an APIError code to its HTTP status.
func statusFor(e *APIError) int {
	switch e.Code {
	case "bad_request":
		return http.StatusBadRequest
	case "not_found":
		return http.StatusNotFound
	case "conflict":
		return http.StatusConflict
	case "saturated", "quota_exhausted":
		return http.StatusTooManyRequests
	case "payload_too_large":
		return http.StatusRequestEntityTooLarge
	case "unknown_verdicts":
		return http.StatusUnprocessableEntity
	case "transient_fault", "canceled", "draining":
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, e *APIError) {
	if e.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSec))
	}
	writeJSON(w, status, errorBody{Error: *e})
}
