package core

import (
	"jinjing/internal/obs"
	"jinjing/internal/sat"
)

// This file is the engine's glue to the observability layer
// (internal/obs): primitive root spans, and solver-stats aggregation into
// both result structs and the metrics registry. A phase is a plain child
// span of its primitive's root. Everything here is nil-safe — with
// Options.Obs unset the spans are no-op.

// obsv returns the engine's observer (nil when observability is off).
func (e *Engine) obsv() *obs.Observer { return e.Opts.Obs }

// startSpan opens a primitive's root span, nested under the engine's
// parent span (the "run" span) when one is set.
func (e *Engine) startSpan(name string, attrs ...obs.Attr) *obs.Span {
	if e.parentSpan != nil {
		return e.parentSpan.Child(name, attrs...)
	}
	return e.obsv().StartSpan(name, attrs...)
}

// recordSolverStats folds one solver's counters into the primitive's
// aggregate and mirrors them into the sat.* metrics counters.
func recordSolverStats(o *obs.Observer, agg *sat.Stats, st sat.Stats) {
	agg.Add(st)
	m := o.Metrics()
	if m == nil {
		return
	}
	m.Counter("sat.decisions").Add(st.Decisions)
	m.Counter("sat.propagations").Add(st.Propagations)
	m.Counter("sat.conflicts").Add(st.Conflicts)
	m.Counter("sat.restarts").Add(st.Restarts)
	m.Counter("sat.learned").Add(st.Learned)
	m.Counter("sat.deleted").Add(st.Deleted)
}
