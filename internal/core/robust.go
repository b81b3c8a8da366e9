package core

// Cancellation and fault tolerance for the verification pipeline. The
// design has two layers:
//
//   - Each primitive call runs under one context, the caller's with
//     Options.Deadline applied (beginCall), and polls it between units of
//     work. Check, fix and generate run no solver — the check and fix
//     decide in the set algebra and in closed form, generate in closed
//     form — so the deadline is their only bound, and nothing is
//     retried.
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

	"jinjing/internal/faultinject"
	"jinjing/internal/header"
)

// reasonCancelled marks verdicts abandoned because the call's context
// was cancelled or its deadline expired.
const reasonCancelled = "cancelled"

// reasonInterrupted marks verdicts abandoned after an injected timeout
// (test-only in practice).
const reasonInterrupted = "interrupted"

// reasonTransient marks verdicts abandoned after an injected transient
// fault (test-only in practice).
const reasonTransient = "transient fault"

// UnknownFEC identifies one FEC whose verdict could not be established
// by a check call: its canonical index, its traffic classes, and why
// its decision stopped (cancelled, or an injected fault).
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
// knows exactly what blocked the plan.
func (e *ErrUnknownVerdicts) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %s refuses to emit a plan built on unknown verdicts:", e.Stage)
	for _, u := range e.FECs {
		fmt.Fprintf(&b, " FEC %v (%s);", u.Classes, u.Reason)
	}
	for _, a := range e.AECs {
		fmt.Fprintf(&b, " AEC %d (%s);", a.AEC, a.Reason)
	}
	b.WriteString(" raise -timeout and retry")
	return b.String()
}

// beginCall sets up one primitive call's cancellation scope: ctx with
// Options.Deadline applied, and the func releasing its timer. Check, fix
// and generate poll the returned context's Err between units of work —
// the check between FECs and between the pieces of a split flip region
// (see violations), fix between regions and at every branch of a
// placement search (minHittingSet), generate between AECs — so an expired
// deadline is seen at the next poll, the first one included.
func (e *Engine) beginCall(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d := e.Opts.Deadline; d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
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
		return reasonInterrupted
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
