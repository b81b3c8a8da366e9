package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestJSONLRoundTrip drives a span hierarchy plus a metrics snapshot
// through the JSONL sink and decodes every line back.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONLSink(&buf))
	m := NewMetrics()
	o := NewObserver(tr, m, nil)

	root := o.StartSpan("check", KV("mode", "sequential"))
	child := root.Child("solve")
	child.SetAttr("fecs", 7)
	child.End()
	root.SetAttr("consistent", true)
	root.End()

	o.Counter("sat.conflicts").Add(42)
	o.Gauge("smt.nodes").Set(1234)
	o.Histogram("solve_ns").Observe(1000)
	o.Flush()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 JSONL lines (2 spans + metrics), got %d:\n%s", len(lines), buf.String())
	}

	var solve, check SpanRecord
	if err := json.Unmarshal([]byte(lines[0]), &solve); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &check); err != nil {
		t.Fatal(err)
	}
	if solve.Type != "span" || solve.Name != "solve" {
		t.Fatalf("line 0: want solve span, got %+v", solve)
	}
	if solve.Parent != check.ID || solve.Depth != check.Depth+1 {
		t.Fatalf("solve not a child of check: %+v vs %+v", solve, check)
	}
	if v, ok := solve.Attrs["fecs"].(float64); !ok || v != 7 {
		t.Fatalf("solve attrs lost: %+v", solve.Attrs)
	}
	if check.Name != "check" || check.Attrs["mode"] != "sequential" || check.Attrs["consistent"] != true {
		t.Fatalf("check record wrong: %+v", check)
	}

	var mr MetricsRecord
	if err := json.Unmarshal([]byte(lines[2]), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Type != "metrics" {
		t.Fatalf("line 2: want metrics record, got %q", mr.Type)
	}
	if mr.Counters["sat.conflicts"] != 42 || mr.Gauges["smt.nodes"] != 1234 {
		t.Fatalf("metrics snapshot wrong: %+v", mr.Snapshot)
	}
	if h := mr.Histograms["solve_ns"]; h.Count != 1 || h.Sum != 1000 {
		t.Fatalf("histogram snapshot wrong: %+v", mr.Histograms)
	}
}

// TestConcurrentInstruments hammers one counter, gauge, histogram, and
// sink from many goroutines; run under -race this is the thread-safety
// guard for the fix and generate pool workers.
func TestConcurrentInstruments(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewJSONLSink(&buf))
	m := NewMetrics()
	o := NewObserver(tr, m, nil)

	const workers, perWorker = 8, 1000
	c := o.Counter("c")
	g := o.Gauge("g")
	h := o.Histogram("h")
	root := o.StartSpan("root")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := root.Child("worker")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i))
			}
			sp.SetAttr("n", perWorker)
			sp.End()
		}(w)
	}
	wg.Wait()
	root.End()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter lost updates: want %d, got %d", workers*perWorker, got)
	}
	snap := m.Snapshot()
	if snap.Histograms["h"].Count != workers*perWorker {
		t.Fatalf("histogram lost updates: %+v", snap.Histograms["h"])
	}
	if n := strings.Count(buf.String(), "\n"); n != workers+1 {
		t.Fatalf("want %d span lines, got %d", workers+1, n)
	}
}

// TestNoopZeroAlloc pins the disabled path — nil observer, nil
// instruments — at zero allocations per operation.
func TestNoopZeroAlloc(t *testing.T) {
	var o *Observer
	if avg := testing.AllocsPerRun(100, func() {
		sp := o.StartSpan("check")
		child := sp.Child("solve")
		child.SetAttr("fecs", 7)
		child.End()
		sp.End()
	}); avg != 0 {
		t.Fatalf("nil-observer span path allocates %.1f/op", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		o.Counter("c").Inc()
		o.Counter("c").Add(3)
		o.Gauge("g").Set(5)
		o.Histogram("h").Observe(9)
	}); avg != 0 {
		t.Fatalf("nil-observer metrics path allocates %.1f/op", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		task := o.StartTask("fecs", 100)
		task.Add(1)
		task.Done()
	}); avg != 0 {
		t.Fatalf("nil-observer progress path allocates %.1f/op", avg)
	}
	// The constructors collapse to nil, keeping downstream checks a
	// single pointer test.
	if NewTracer(nil) != nil || NewProgress(nil) != nil || NewObserver(nil, nil, nil) != nil {
		t.Fatal("nil inputs must yield nil facades")
	}
}

// TestProgressReporting checks the N/M lines and the final unthrottled
// report. The Add that completes the total reports exactly once: Done
// after it is a no-op rather than a duplicate line.
func TestProgressReporting(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	p.SetMinInterval(0) // report every Add
	task := p.StartTask("check: FECs", 3)
	for i := 0; i < 3; i++ {
		task.Add(1)
	}
	task.Done()
	want := "check: FECs: 1/3\ncheck: FECs: 2/3\ncheck: FECs: 3/3\n"
	if buf.String() != want {
		t.Fatalf("progress output:\n%q\nwant:\n%q", buf.String(), want)
	}

	// Throttled: with a huge interval the first Add (last=0 is always
	// past the throttle) reports, intermediate Adds are swallowed, and
	// the Add completing the total bypasses the throttle — the 100% line
	// appears even though the caller never reaches Done.
	buf.Reset()
	p.SetMinInterval(1 << 40)
	task = p.StartTask("quiet", 1000)
	for i := 0; i < 1000; i++ {
		task.Add(1)
	}
	if got := buf.String(); got != "quiet: 1/1000\nquiet: 1000/1000\n" {
		t.Fatalf("throttled output before Done: %q", got)
	}
	// Done is idempotent and adds nothing once the total was reported.
	task.Done()
	task.Done()
	if got := buf.String(); got != "quiet: 1/1000\nquiet: 1000/1000\n" {
		t.Fatalf("throttled output after Done: %q", got)
	}

	// A task stopping short of its total still gets its final count from
	// Done — exactly once.
	buf.Reset()
	task = p.StartTask("partial", 10)
	task.Add(1)
	task.Add(1) // swallowed by the throttle
	task.Done()
	task.Done()
	if got := buf.String(); got != "partial: 1/10\npartial: 2/10\n" {
		t.Fatalf("partial output: %q", got)
	}
}

// TestHistogramStat checks the exact fields and the one-octave quantile
// bound.
func TestHistogramStat(t *testing.T) {
	h := &Histogram{}
	var sum int64
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
		sum += i
	}
	st := h.stat()
	if st.Count != 100 || st.Sum != sum || st.Min != 1 || st.Max != 100 {
		t.Fatalf("exact fields wrong: %+v", st)
	}
	// P50 of 1..100 is 50-51; the bucket upper bound may overshoot by at
	// most one octave (and never beyond the max).
	if st.P50 < 50 || st.P50 > 100 {
		t.Fatalf("p50 out of octave bound: %+v", st)
	}
	if st.P99 > st.Max {
		t.Fatalf("quantile exceeds max: %+v", st)
	}
}

// TestTextSink smoke-checks the human-readable rendering: indentation by
// depth and deterministically sorted attributes.
func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(NewTextSink(&buf))
	root := tr.Start("check")
	child := root.Child("solve", KV("b", 2), KV("a", 1))
	child.End()
	root.End()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %q", buf.String())
	}
	if !strings.HasPrefix(lines[0], "  solve") {
		t.Fatalf("child not indented: %q", lines[0])
	}
	if !strings.Contains(lines[0], "a=1 b=2") {
		t.Fatalf("attrs not sorted: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "check") {
		t.Fatalf("root mis-rendered: %q", lines[1])
	}
}
