package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"jinjing/internal/obs"
)

// span is one traced interval: a stage call made by the benchmark, or a
// span the engine emitted through its public obs.Sink while a stage
// ran. Times are offsets from the recorder's epoch.
type span struct {
	Name   string         `json:"name"`
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // 0 = root
	Op     int            `json:"op"`     // spans of one operation share it
	Start  time.Duration  `json:"start_ns"`
	End    time.Duration  `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`

	engineID, engineParent int64 // set on engine spans until adopted
}

// recorder keeps spans in memory until the run ends. It is the
// benchmark's own tracer (begin/end around stage calls) and an obs.Sink
// (adopting the engine's spans under the stage that caused them).
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
	open  []*span // stack of benchmark spans
	op    int
	// engineEpoch is the obs.Tracer's own epoch, which engine span
	// records are relative to.
	engineEpoch time.Duration
	byEngineID  map[int64]*span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), byEngineID: map[int64]*span{}}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// begin opens a benchmark span under the innermost open one.
func (r *recorder) begin(name string) *span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &span{Name: name, ID: len(r.spans) + 1, Op: r.op}
	if n := len(r.open); n > 0 {
		s.Parent = r.open[n-1].ID
	}
	r.spans = append(r.spans, s)
	r.open = append(r.open, s)
	s.Start = r.now()
	return s
}

// end closes the innermost open span, which must be s.
func (r *recorder) end(s *span) time.Duration {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s.End = t
	r.open = r.open[:len(r.open)-1]
	return s.End - s.Start
}

// stage times fn as a span.
func (r *recorder) stage(name string, fn func()) time.Duration {
	s := r.begin(name)
	fn()
	return r.end(s)
}

// observer returns an engine observer whose spans land in the recorder
// and whose counters land in m.
func (r *recorder) observer(m *obs.Metrics) *obs.Observer {
	r.mu.Lock()
	r.engineEpoch = r.now()
	r.byEngineID = map[int64]*span{}
	r.mu.Unlock()
	return obs.NewObserver(obs.NewTracer(r), m, nil)
}

// Span implements obs.Sink. Engine spans arrive when they end, children
// before parents; a root engine span belongs to the benchmark stage
// open at that moment.
func (r *recorder) Span(rec obs.SpanRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &span{
		Name: rec.Name, ID: len(r.spans) + 1, Op: r.op, Attrs: rec.Attrs,
		Start:    r.engineEpoch + time.Duration(rec.StartUS)*time.Microsecond,
		engineID: rec.ID, engineParent: rec.Parent,
	}
	s.End = s.Start + time.Duration(rec.DurUS)*time.Microsecond
	if rec.Parent == 0 && len(r.open) > 0 {
		s.Parent = r.open[len(r.open)-1].ID
	}
	r.spans = append(r.spans, s)
	r.byEngineID[rec.ID] = s
}

// Metrics implements obs.Sink; the benchmark reads the registry itself.
func (r *recorder) Metrics(obs.Snapshot) {}

// adopt resolves engine parent links once every span of the op has
// ended (a parent's record arrives after its children's).
func (r *recorder) adopt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.engineParent != 0 && s.Parent == 0 {
			if p := r.byEngineID[s.engineParent]; p != nil {
				s.Parent = p.ID
			}
		}
	}
}

// selfTimes returns, for every span of op, its duration minus the part
// of that interval its child spans cover. skip names spans that are
// detail inside their parent rather than a layer of their own.
func selfTimes(spans []*span, op int, skip func(*span) bool) map[*span]time.Duration {
	children := map[int][]*span{}
	for _, s := range spans {
		if s.Op == op && !skip(s) {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[*span]time.Duration{}
	for _, s := range spans {
		if s.Op != op || skip(s) {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, until := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, until), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		out[s] = s.End - s.Start - covered
	}
	return out
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close() //nolint:errcheck // reporting the encode error
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // reporting the flush error
		return err
	}
	return f.Close()
}
