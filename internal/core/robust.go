package core

// Cancellation, resource budgets, and fault tolerance for the
// verification pipeline. The design has three layers:
//
//   - A canceller relays context cancellation to every solver a
//     primitive call has in flight: solvers register on acquisition
//     (which also clears any interrupt a previous cancelled call left
//     on the generation's solver), and the context watcher interrupts
//     them all when the deadline fires.
//
//   - solveWithRetries wraps one solver query with the per-FEC conflict
//     budget and escalating retries: the SAT solver keeps its learned
//     clauses across an exhausted budget, so each retry resumes the
//     proof with a 4x larger allowance instead of restarting it.
//
//   - A query that still has no verdict yields Unknown. Unknown is a
//     first-class outcome: check reports the FEC in CheckResult.Unknown
//     (and never caches it — see markUnknown), while fix and generate
//     refuse to build plans on top of it and return ErrUnknownVerdicts
//     naming what blocked them.
//
// faultinject hooks sit on the same paths so the fault lane can drive
// injected timeouts, panics, and transient errors through exactly the
// code production failures would take.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jinjing/internal/faultinject"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/sat"
	"jinjing/internal/smt"
)

// reasonCancelled marks verdicts abandoned because the call's context
// was cancelled or its deadline expired (vs. a per-query budget).
const reasonCancelled = "cancelled"

// reasonTransient marks verdicts abandoned after injected transient
// faults outlasted the retry allowance (test-only in practice).
const reasonTransient = "transient fault"

// UnknownFEC identifies one FEC whose verdict could not be established
// by a check call: its canonical index, its traffic classes, and why
// the query stopped (cancelled, conflict budget exhausted, ...).
type UnknownFEC struct {
	FEC     int
	Classes []header.Prefix
	Reason  string
}

// ErrUnknownVerdicts is the refusal error of fix and generate: the plan
// they were about to emit would rest on queries that returned Unknown,
// so no plan is emitted at all. FECs (fix) or AECs (generate) name what
// blocked the plan, in canonical order.
type ErrUnknownVerdicts struct {
	Stage string // "fix" or "generate"
	FECs  []UnknownFEC
	AECs  []int // blocking AEC indices, ascending
}

// Error renders the refusal with every blocking item, so the operator
// knows exactly what to raise budgets for.
func (e *ErrUnknownVerdicts) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %s refuses to emit a plan built on unknown verdicts:", e.Stage)
	for _, u := range e.FECs {
		fmt.Fprintf(&b, " FEC %v (%s);", u.Classes, u.Reason)
	}
	for _, a := range e.AECs {
		fmt.Fprintf(&b, " AEC %d;", a)
	}
	b.WriteString(" raise -timeout/-fec-budget/-max-retries and retry")
	return b.String()
}

// canceller fans a context's cancellation out to the solvers a
// primitive call has in flight. A nil canceller (context that can never
// be cancelled) no-ops everywhere.
type canceller struct {
	done    atomic.Bool
	mu      sync.Mutex
	solvers []*smt.Solver
}

// cancelled reports whether the call has been cancelled.
func (c *canceller) cancelled() bool { return c != nil && c.done.Load() }

// register adds a solver to the interrupt fan-out. Registration also
// clears any interrupt a previous cancelled call left on the
// generation's solver; if this call is already cancelled the solver is
// interrupted immediately instead.
func (c *canceller) register(s *smt.Solver) {
	if c == nil {
		s.ClearInterrupt()
		return
	}
	if c.done.Load() {
		s.Interrupt()
		return
	}
	s.ClearInterrupt()
	c.mu.Lock()
	c.solvers = append(c.solvers, s)
	c.mu.Unlock()
	if c.done.Load() {
		// cancel raced the registration; make sure this solver stops too.
		s.Interrupt()
	}
}

// cancel marks the call cancelled and interrupts every registered
// solver.
func (c *canceller) cancel() {
	if c == nil {
		return
	}
	c.done.Store(true)
	c.mu.Lock()
	for _, s := range c.solvers {
		s.Interrupt()
	}
	c.mu.Unlock()
}

// beginCall sets up one primitive call's cancellation scope: it applies
// Options.Deadline to ctx, spawns a watcher relaying ctx's cancellation
// to registered solvers, and returns the canceller plus a cleanup func
// releasing the watcher (and the deadline timer). The canceller is nil
// — all operations no-op — when the resulting context can never be
// cancelled, so the happy path pays nothing.
func (e *Engine) beginCall(ctx context.Context) (*canceller, func()) {
	if ctx == nil {
		ctx = context.Background()
	}
	cancelCtx := func() {}
	if d := e.Opts.Deadline; d > 0 {
		ctx, cancelCtx = context.WithTimeout(ctx, d)
	}
	if ctx.Done() == nil {
		return nil, cancelCtx
	}
	cn := &canceller{}
	if ctx.Err() != nil {
		// Already expired or cancelled at call start: mark the canceller
		// synchronously so even the first query observes it. Relying on
		// the watcher goroutine alone would make an expired deadline
		// scheduling-dependent — a short call on a busy single-core
		// machine could complete before the watcher ever runs.
		cn.done.Store(true)
	}
	stopCh := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			cn.cancel()
		case <-stopCh:
		}
	}()
	var once sync.Once
	return cn, func() {
		once.Do(func() { close(stopCh) })
		cancelCtx()
	}
}

// solveWithRetries runs one solver query under the engine's per-FEC
// conflict budget, escalating 4x per retry up to Options.MaxRetries.
// State preservation in the SAT core means each retry resumes the
// search where the last budget ran out. The returned Result is Unknown
// only when the verdict genuinely could not be established this call:
// the budget survived every retry, the call was cancelled, or an
// injected transient fault outlasted the allowance.
//
// site names the faultinject hook guarding this query; needModel
// selects SolveLimited (model retained for witness/packet extraction)
// over DecideLimited.
func (e *Engine) solveWithRetries(cn *canceller, solver *smt.Solver, o *obs.Observer, site faultinject.Site, needModel bool, assumptions ...smt.F) sat.Result {
	budget := e.Opts.PerFECBudget
	for attempt := 0; ; attempt++ {
		if cn.cancelled() {
			return sat.Result{Outcome: sat.Unknown, Reason: reasonCancelled}
		}
		switch faultinject.Fire(site) {
		case faultinject.Panic:
			panic(fmt.Sprintf("faultinject: injected panic at %s", site))
		case faultinject.Timeout:
			// Simulate a solver timeout: the query is interrupted exactly
			// as a cancelled call would interrupt it, but the call itself
			// is alive, so the retry path below re-runs it.
			solver.Interrupt()
		case faultinject.Transient:
			if attempt >= e.Opts.MaxRetries {
				return sat.Result{Outcome: sat.Unknown, Reason: reasonTransient}
			}
			o.Counter("retry.count").Inc()
			continue
		}
		var b sat.Budget
		if budget > 0 {
			b.Conflicts = budget
		}
		var r sat.Result
		if needModel {
			r = solver.SolveLimited(b, assumptions...)
		} else {
			r = solver.DecideLimited(b, assumptions...)
		}
		if r.Outcome != sat.Unknown {
			return r
		}
		if r.Reason == sat.ReasonInterrupted {
			solver.ClearInterrupt()
			if cn.cancelled() {
				// The canceller set the flag (possibly racing the clear
				// above): re-assert it and report the cancellation.
				solver.Interrupt()
				return sat.Result{Outcome: sat.Unknown, Reason: reasonCancelled}
			}
			// Not cancelled, so the interrupt was injected: retryable.
		} else {
			o.Counter("budget.exhausted").Inc()
		}
		if attempt >= e.Opts.MaxRetries {
			return r
		}
		o.Counter("retry.count").Inc()
		if budget > 0 {
			budget *= 4
		}
	}
}

// decideSAT decides FEC i's Equation-3 query on the generation's solver
// for check, building the builder and solver if no FEC has taken the
// SAT route yet. It records the verdict (finishVerdict, under the FEC's
// content key) or the Unknown (markUnknown — never cached), the per-FEC
// solve forensics, and the FEC's SAT fec.solve span. Returns the FEC's
// resulting state: fecOK, fecViolating, or fecUnknown.
func (e *Engine) decideSAT(c *solveCall, i int, key []uint64, shapes []checkShape) fecState {
	ctx := c.ctx
	if ctx.seq == nil {
		ctx.enc = newEncoder(ctx.acls, c.o)
		ctx.seq = smt.SolverOn(ctx.enc.b)
		c.cn.register(ctx.seq)
	}
	enc, fec := ctx.enc, ctx.fec(i)
	query := e.shapesViolationFormula(enc, ctx, fec, shapes)
	fsp := c.span.Child("fec.solve", obs.KV("fec", i), obs.KV("backend", "sat"),
		obs.KV("paths", len(fec.Paths)), obs.KV("shapes", len(shapes)))
	t1 := time.Now()
	r := e.solveWithRetries(c.cn, ctx.seq, c.o, faultinject.CheckSolve, false, query)
	ns := time.Since(t1).Nanoseconds()
	ctx.solveNS[i] += ns
	c.hist.Observe(ns)
	c.satHist.Observe(ns)
	if r.Outcome == sat.Unknown {
		ctx.markUnknown(i, r.Reason)
		fsp.SetAttr("verdict", "unknown")
	} else {
		c.decided++
		ctx.finishVerdict(i, key, r.Outcome == sat.Sat)
		fsp.SetAttr("verdict", verdictString(ctx.states[i]))
	}
	fsp.End()
	return ctx.states[i]
}

// unknownFECs lists the FECs left without a verdict in [0, last],
// ascending — the canonical order partial results are reported in.
func unknownFECs(ctx *checkCtx, last int) []UnknownFEC {
	var out []UnknownFEC
	for i := 0; i <= last && i < len(ctx.states); i++ {
		if ctx.states[i] == fecUnknown {
			out = append(out, UnknownFEC{FEC: i, Classes: ctx.fec(i).Classes, Reason: ctx.unknownReason[i]})
		}
	}
	return out
}

// sortUnknown orders blocking FECs ascending for deterministic refusal
// messages regardless of worker scheduling.
func sortUnknown(us []UnknownFEC) {
	sort.Slice(us, func(i, j int) bool { return us[i].FEC < us[j].FEC })
}
