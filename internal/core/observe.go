package core

import "jinjing/internal/obs"

// This file is the engine's glue to the observability layer
// (internal/obs): primitive root spans. A phase is a plain child span of
// its primitive's root. Everything here is nil-safe — with
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
