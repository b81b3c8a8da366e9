package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value attribute attached to a span.
type Attr struct {
	Key   string
	Value any
}

// KV builds an attribute.
func KV(key string, value any) Attr { return Attr{Key: key, Value: value} }

// SpanRecord is the serialized form of a finished span, emitted into a
// Sink when the span ends. Times are microseconds: StartUS is the offset
// from the tracer's epoch (its creation time), DurUS the span duration
// measured on the monotonic clock.
type SpanRecord struct {
	Type    string         `json:"type"` // always "span"
	Name    string         `json:"name"`
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"` // 0 = root
	Depth   int            `json:"depth"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Sink consumes finished spans and metrics snapshots. Implementations
// must be safe for concurrent use (parallel workers end spans
// concurrently).
type Sink interface {
	Span(SpanRecord)
	Metrics(Snapshot)
}

// MultiSink fans every span and snapshot out to each sink in order.
// Nil sinks in the list are skipped; an empty list yields nil (so
// NewTracer on the result no-ops).
func MultiSink(sinks ...Sink) Sink {
	active := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			active = append(active, s)
		}
	}
	switch len(active) {
	case 0:
		return nil
	case 1:
		return active[0]
	}
	return multiSink(active)
}

type multiSink []Sink

func (m multiSink) Span(r SpanRecord) {
	for _, s := range m {
		s.Span(r)
	}
}

func (m multiSink) Metrics(snap Snapshot) {
	for _, s := range m {
		s.Metrics(snap)
	}
}

// Tracer emits hierarchical spans into a Sink. The zero value is not
// usable; NewTracer with a nil sink returns a nil tracer, on which every
// method no-ops.
type Tracer struct {
	sink   Sink
	epoch  time.Time
	nextID atomic.Int64
}

// NewTracer returns a tracer writing to sink, or nil when sink is nil.
func NewTracer(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, epoch: time.Now()}
}

// Start opens a root span. On a nil tracer it returns nil, a valid
// no-op span.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, 0, 0, attrs)
}

func (t *Tracer) newSpan(name string, parent int64, depth int, attrs []Attr) *Span {
	sp := &Span{t: t, name: name, id: t.nextID.Add(1), parent: parent, depth: depth, start: time.Now()}
	sp.attrs = append(sp.attrs, attrs...)
	return sp
}

// Span is one traced interval. A nil *Span is the no-op span: Child
// returns nil, SetAttr and End do nothing.
type Span struct {
	t      *Tracer
	name   string
	id     int64
	parent int64
	depth  int
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// Child opens a sub-span. Parenthood is explicit (no goroutine-local
// state), so spans compose safely across the engine's worker pools.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.newSpan(name, s.id, s.depth+1, attrs)
}

// SetAttr attaches an attribute; later values for the same key win.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End attaches any final attributes, finishes the span and emits its
// record. Safe to call more than once; only the first call emits.
func (s *Span) End(final ...Attr) {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.attrs = append(s.attrs, final...)
	attrs := s.attrs
	s.mu.Unlock()

	rec := SpanRecord{
		Type:    "span",
		Name:    s.name,
		ID:      s.id,
		Parent:  s.parent,
		Depth:   s.depth,
		StartUS: s.start.Sub(s.t.epoch).Microseconds(),
		DurUS:   dur.Microseconds(),
	}
	if len(attrs) > 0 {
		rec.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	s.t.sink.Span(rec)
}

// JSONLSink writes one JSON object per line: span records as they end,
// and metrics snapshots tagged "metrics". The stream is valid JSONL and
// round-trips through encoding/json.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink returns a sink encoding onto w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Span writes one span line.
func (s *JSONLSink) Span(r SpanRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enc.Encode(r) //nolint:errcheck // tracing is best-effort
}

// MetricsRecord is the JSONL form of a metrics snapshot.
type MetricsRecord struct {
	Type string `json:"type"` // always "metrics"
	Snapshot
}

// Metrics writes one snapshot line.
func (s *JSONLSink) Metrics(snap Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enc.Encode(MetricsRecord{Type: "metrics", Snapshot: snap}) //nolint:errcheck
}

// TextSink renders spans as an indented human-readable log, one line
// per finished span.
type TextSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTextSink returns a text sink on w.
func NewTextSink(w io.Writer) *TextSink {
	return &TextSink{w: w}
}

// Span writes one indented line, e.g.
//
//	solve                12.345ms  @0.210ms  fecs=5 solved=2
func (s *TextSink) Span(r SpanRecord) {
	keys := make([]string, 0, len(r.Attrs))
	for k := range r.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var attrs strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&attrs, " %s=%v", k, r.Attrs[k])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "%s%-20s %10.3fms  @%.3fms%s\n",
		strings.Repeat("  ", r.Depth), r.Name,
		float64(r.DurUS)/1000, float64(r.StartUS)/1000, attrs.String())
}

// Metrics renders the snapshot as sorted text under a header.
func (s *TextSink) Metrics(snap Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintln(s.w, "-- metrics --")
	snap.WriteText(s.w)
}
