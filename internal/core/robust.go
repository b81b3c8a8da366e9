package core

// Cancellation, resource budgets, and fault tolerance for the
// verification pipeline. The design has three layers:
//
//   - A canceller relays context cancellation to every solver a
//     primitive call has in flight: fix's placement solvers register on
//     acquisition, and the context watcher interrupts them all when the
//     deadline fires. The check and generate, which run no solver, poll
//     it: the check between FECs and between the pieces of a split flip
//     region (see violations), generate between AECs.
//
//   - Options.PerFECBudget bounds the conflicts of each fix placement
//     query, the only solver query left. Nothing is retried.
//
//   - A decision that has no verdict yields Unknown. Unknown is a
//     first-class outcome: check reports the FEC in CheckResult.Unknown
//     (and never caches it — see markUnknown), while fix and generate
//     refuse to build plans on top of it and return ErrUnknownVerdicts
//     naming what blocked them.
//
// faultinject hooks sit on the same paths so the fault lane can drive
// injected timeouts, panics, and transient errors through exactly the
// code production failures would take (see faultReason).

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"jinjing/internal/faultinject"
	"jinjing/internal/header"
	"jinjing/internal/sat"
	"jinjing/internal/smt"
)

// reasonCancelled marks verdicts abandoned because the call's context
// was cancelled or its deadline expired (vs. a per-query budget).
const reasonCancelled = "cancelled"

// reasonTransient marks verdicts abandoned after an injected transient
// fault (test-only in practice).
const reasonTransient = "transient fault"

// UnknownFEC identifies one FEC whose verdict could not be established
// by a check call: its canonical index, its traffic classes, and why
// the query stopped (cancelled, conflict budget exhausted, ...).
type UnknownFEC struct {
	FEC     int
	Classes []header.Prefix
	Reason  string
}

// UnknownAEC identifies one AEC generate left undecided: its index and
// why (cancelled, or an injected fault).
type UnknownAEC struct {
	AEC    int
	Reason string
}

// ErrUnknownVerdicts is the refusal error of fix and generate: the plan
// they were about to emit would rest on queries that returned Unknown,
// so no plan is emitted at all. FECs (fix) or AECs (generate) name what
// blocked the plan, in canonical order.
type ErrUnknownVerdicts struct {
	Stage string // "fix" or "generate"
	FECs  []UnknownFEC
	AECs  []UnknownAEC // ascending
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
		fmt.Fprintf(&b, " AEC %d (%s);", a.AEC, a.Reason)
	}
	b.WriteString(" raise -timeout/-fec-budget and retry")
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

// register adds a fresh solver to the interrupt fan-out; if this call
// is already cancelled the solver is interrupted at once.
func (c *canceller) register(s *smt.Solver) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.solvers = append(c.solvers, s)
	c.mu.Unlock()
	if c.done.Load() {
		// cancel ran before or raced the registration: stop this one too.
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

// faultReason fires an injected-fault site guarding one decision and
// returns why the fault leaves that decision undecided ("" when none
// fired). There is no retry: a timeout reads as an interrupted query and
// a transient fault as itself. An injected panic crashes the caller.
func faultReason(site faultinject.Site) string {
	switch faultinject.Fire(site) {
	case faultinject.Panic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", site))
	case faultinject.Timeout:
		return sat.ReasonInterrupted
	case faultinject.Transient:
		return reasonTransient
	}
	return ""
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
