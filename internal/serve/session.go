package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jinjing/internal/core"
	"jinjing/internal/faultinject"
	"jinjing/internal/lai"
	"jinjing/internal/obs"
	"jinjing/internal/obs/declog"
	"jinjing/internal/topo"
)

// session is one named warm verification context: a base network, the
// LAI program configuring scope/allow/modify over it, and the warm
// machinery the daemon exists to keep alive between operator edits —
// the engine (paths, FECs, binding index) and the cross-run verdict
// cache.
//
// All engine access is serialized under mu: the engine and the cache's
// generation state are single-writer by design, and serialization is
// what makes a warm re-check's cache replay sound. The admission layer
// above bounds how many jobs may wait here.
type session struct {
	name       string
	mu         sync.Mutex
	base       *topo.Network
	program    *lai.Program
	programSrc string
	// current is the resolution in effect: the PUT-time one until a job
	// posts an Updated snapshot, which then stays in effect ("sticky")
	// for subsequent jobs until replaced — the operator loop's edit.
	current *lai.Resolved
	// recipe is the session's manifest: the PUT request with Updated
	// replaced by the last snapshot a job posted, so a restart rebuilds
	// the session in effect. recipeDirty marks a sticky edit the manifest
	// on disk does not hold yet; the next persist writes it.
	recipe      *SessionRequest
	recipeDirty bool
	engine      *core.Engine
	cache       *core.VerdictCache
	// baseOpts is the per-job option template: paper defaults plus the
	// session's PUT-time defaults, observer, ledger, and cache. Each job
	// layers its own overrides on a copy.
	baseOpts core.Options
	defaults JobOverrides

	ledger     *declog.Logger
	ledgerPath string
	createdAt  time.Time
	jobs       atomic.Int64

	// dirty marks verdict-cache state not yet persisted to the state
	// directory. Set after every job (any job may add cache entries,
	// even one that failed mid-way); cleared by a successful snapshot.
	dirty atomic.Bool

	devices, paths, fecs int
}

// jobCaps are the server-wide ceilings clamped onto every job's
// effective options (see Config).
type jobCaps struct {
	maxDeadline time.Duration
	maxWorkers  int
}

// newSession parses and resolves a PUT request into a warm session.
// The returned session has already derived its paths and FECs — PUT is
// the cold-start moment; jobs run against warm structures.
func newSession(name string, req *SessionRequest, o *obs.Observer, ledger *declog.Logger, ledgerPath string) (*session, error) {
	base, err := loadNetwork(req.Topology, req.topology)
	if err != nil {
		return nil, fmt.Errorf("topology: %v", err)
	}
	prog, err := lai.Parse(req.Program)
	if err != nil {
		return nil, fmt.Errorf("program: %v", err)
	}
	var ropts lai.ResolveOptions
	if len(req.Updated) > 0 {
		if ropts.Updated, err = loadNetwork(req.Updated, req.updated); err != nil {
			return nil, fmt.Errorf("updated: %v", err)
		}
	}
	// The recipe keeps the request's bytes, not their plain reads.
	req.topology, req.updated = nil, nil
	resolved, err := lai.Resolve(prog, base, ropts)
	if err != nil {
		return nil, fmt.Errorf("program: %v", err)
	}

	opts := core.DefaultOptions()
	if req.Defaults != nil {
		req.Defaults.apply(&opts)
	}
	opts.Obs = o
	opts.DecisionLog = ledger
	cache := core.NewVerdictCache()
	opts.Verdicts = cache

	s := &session{
		name:       name,
		base:       base,
		program:    prog,
		programSrc: req.Program,
		current:    resolved,
		recipe:     req,
		cache:      cache,
		baseOpts:   opts,
		ledger:     ledger,
		ledgerPath: ledgerPath,
		createdAt:  time.Now().UTC(),
	}
	if req.Defaults != nil {
		s.defaults = *req.Defaults
	}
	s.engine = core.FromResolved(resolved, opts)
	s.devices = len(base.Devices)
	s.paths = len(s.engine.Paths())
	s.fecs = s.engine.NumFECs()
	return s, nil
}

// info snapshots the session for GET responses.
func (s *session) info() SessionInfo {
	return SessionInfo{
		Name:          s.name,
		CreatedAt:     s.createdAt,
		Devices:       s.devices,
		Paths:         s.paths,
		FECs:          s.fecs,
		Jobs:          s.jobs.Load(),
		CacheVerdicts: s.cache.Size(),
		DecisionLog:   s.ledgerPath,
	}
}

// closeLocked releases the session's resources. Caller holds mu.
func (s *session) closeLocked() {
	s.ledger.Close() //nolint:errcheck // best-effort; auditing is advisory
}

// runLocked executes one job. Caller holds mu — jobs on one session are
// strictly serialized, so the engine and verdict cache see a single
// writer.
func (s *session) runLocked(ctx context.Context, jobID, kind string, req *JobRequest, caps jobCaps) (any, *APIError) {
	// Every job marks the cache dirty for the snapshotter, even on the
	// error paths — a failed job still touched the engine.
	defer s.dirty.Store(true)
	// Fault-injection hit-point for the daemon suite: a panic here
	// simulates a crashed job handler (the server's recover answers 500
	// and the deferred unlock keeps the session usable), a transient
	// fault a retryable internal error, and a timeout a job whose
	// context expired before it started — its unknown verdicts must
	// never be cached.
	switch faultinject.Fire(faultinject.ServeJob) {
	case faultinject.Panic:
		panic("faultinject: injected serve.job panic")
	case faultinject.Transient:
		return nil, &APIError{Code: "transient_fault", Message: "injected transient fault; retry", RetryAfterSec: 1}
	case faultinject.Timeout:
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, 0))
		defer cancel()
	}

	if len(req.Updated) > 0 {
		u, err := loadNetwork(req.Updated, req.updated)
		if err != nil {
			return nil, &APIError{Code: "bad_request", Message: fmt.Sprintf("updated: %v", err)}
		}
		r, err := lai.Resolve(s.program, s.base, lai.ResolveOptions{Updated: u})
		if err != nil {
			return nil, &APIError{Code: "bad_request", Message: fmt.Sprintf("updated: %v", err)}
		}
		// The engine keeps its Before-derived artifacts and bound cache;
		// only the per-generation state rebuilds — the warm path.
		s.engine.UpdateAfter(r.After)
		s.current = r
		recipe := *s.recipe
		recipe.Updated = req.Updated
		s.recipe, s.recipeDirty = &recipe, true
	}

	// Per-job options: session template, then the job's overrides, then
	// the server ceilings.
	opts := s.baseOpts
	req.JobOverrides.apply(&opts)
	clampOptions(&opts, caps)
	s.engine.Opts.Deadline = opts.Deadline
	s.engine.Opts.Workers = opts.Workers
	s.engine.Opts.FindAllViolations = opts.FindAllViolations

	s.jobs.Add(1)
	start := time.Now()
	switch kind {
	case "check":
		res := s.engine.CheckContext(ctx)
		return s.checkResponse(jobID, res, time.Since(start).Nanoseconds()), nil
	case "fix":
		fr, err := s.engine.FixContext(ctx)
		if err != nil {
			return nil, planError(err)
		}
		return s.fixResponse(jobID, fr, time.Since(start).Nanoseconds()), nil
	case "generate":
		if len(s.current.Cleared) != len(s.current.Modified) {
			return nil, &APIError{Code: "bad_request", Message: fmt.Sprintf(
				"generate supports only 'modify ... to permit-all' requirements; %d of %d modified bindings use another form",
				len(s.current.Modified)-len(s.current.Cleared), len(s.current.Modified))}
		}
		gr, err := s.engine.GenerateContext(ctx, s.current.Cleared)
		if err != nil {
			return nil, planError(err)
		}
		return s.generateResponse(jobID, gr, time.Since(start).Nanoseconds()), nil
	default:
		return nil, &APIError{Code: "bad_request", Message: fmt.Sprintf("unknown job kind %q", kind)}
	}
}

// clampOptions applies the server ceilings: requested values above a
// cap are clamped to it, and a job with no deadline of its own
// inherits the cap as its limit — an unbounded job cannot slip past a
// bounded server.
func clampOptions(opts *core.Options, caps jobCaps) {
	if caps.maxDeadline > 0 && (opts.Deadline <= 0 || opts.Deadline > caps.maxDeadline) {
		opts.Deadline = caps.maxDeadline
	}
	if caps.maxWorkers > 0 && opts.Workers > caps.maxWorkers {
		opts.Workers = caps.maxWorkers
	}
}

// planError maps a refused fix/generate plan to its structured error.
// A refusal's hint names the job keys that raise its limits, not the
// CLI flags core's error text names.
func planError(err error) *APIError {
	var unknown *core.ErrUnknownVerdicts
	if errors.As(err, &unknown) {
		ae := &APIError{Code: "unknown_verdicts"}
		for _, f := range unknown.FECs {
			ae.Blocking = append(ae.Blocking, fmt.Sprintf("fec %d: %s", f.FEC, f.Reason))
		}
		for _, a := range unknown.AECs {
			ae.Blocking = append(ae.Blocking, fmt.Sprintf("aec %d: %s", a.AEC, a.Reason))
		}
		ae.Message = fmt.Sprintf("%s refuses to emit a plan built on unknown verdicts (%d blocking); raise the job's deadline and retry",
			unknown.Stage, len(ae.Blocking))
		return ae
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &APIError{Code: "canceled", Message: err.Error(), RetryAfterSec: 1}
	}
	return &APIError{Code: "bad_request", Message: err.Error()}
}

// checkResponse projects a CheckResult onto the wire, including the
// exact report text the one-shot CLI prints for the same check.
func (s *session) checkResponse(jobID string, res *core.CheckResult, wallNS int64) *CheckResponse {
	out := &CheckResponse{
		Job:        jobID,
		Session:    s.name,
		Consistent: res.Consistent,
		Complete:   res.Complete,
		FECs:       res.FECs,
		SolvedFECs: res.SolvedFECs,
		Stats:      res.Stats,
		Report:     renderReport(&core.Report{Checks: []*core.CheckResult{res}}),
		WallNS:     wallNS,
	}
	for _, v := range res.Violations {
		w := Witness{Packet: v.Packet.String()}
		for _, c := range v.Classes {
			w.Classes = append(w.Classes, c.String())
		}
		for _, p := range v.Paths {
			w.Paths = append(w.Paths, p.String())
		}
		out.Violations = append(out.Violations, w)
	}
	for _, u := range res.Unknown {
		uw := UnknownVerdict{FEC: u.FEC, Reason: u.Reason}
		for _, c := range u.Classes {
			uw.Classes = append(uw.Classes, c.String())
		}
		out.Unknown = append(out.Unknown, uw)
	}
	return out
}

// fixResponse projects a FixResult onto the wire.
func (s *session) fixResponse(jobID string, fr *core.FixResult, wallNS int64) *FixResponse {
	out := &FixResponse{
		Job:           jobID,
		Session:       s.name,
		Verified:      fr.Verified,
		Neighborhoods: len(fr.Neighborhoods),
		Unfixable:     len(fr.Unfixable),
		Stats:         fr.Stats,
		Report:        renderReport(&core.Report{Fixes: []*core.FixResult{fr}}),
		WallNS:        wallNS,
	}
	for _, a := range fr.Actions {
		out.Actions = append(out.Actions, a.String())
	}
	if fr.Fixed != nil {
		if data, err := json.Marshal(fr.Fixed); err == nil {
			out.Topology = data
		}
	}
	return out
}

// generateResponse projects a GenerateResult onto the wire.
func (s *session) generateResponse(jobID string, gr *core.GenerateResult, wallNS int64) *GenerateResponse {
	out := &GenerateResponse{
		Job:      jobID,
		Session:  s.name,
		Verified: gr.Verified,
		Classes:  gr.Classes,
		AECs:     gr.AECs,
		Rules:    gr.RulesAfterSimplify,
		Report:   renderReport(&core.Report{Generates: []*core.GenerateResult{gr}}),
		WallNS:   wallNS,
	}
	if len(gr.ACLs) > 0 {
		out.ACLs = make(map[string]string, len(gr.ACLs))
		for id, a := range gr.ACLs {
			out.ACLs[id] = a.String()
		}
	}
	if gr.Generated != nil {
		if data, err := json.Marshal(gr.Generated); err == nil {
			out.Topology = data
		}
	}
	return out
}

// renderReport prints a report exactly as the CLI does.
func renderReport(rep *core.Report) string {
	var b bytes.Buffer
	rep.Print(&b)
	return b.String()
}
