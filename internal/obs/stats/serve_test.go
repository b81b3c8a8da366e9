package stats

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jinjing/internal/obs"
)

func testServer(t *testing.T) (*Server, *obs.Metrics, *Hub) {
	t.Helper()
	m := obs.NewMetrics()
	hub := NewHub()
	return New(m, hub), m, hub
}

// TestMetricsEndpoint checks /metrics serves the Prometheus text
// format — content type, parseability, and live registry values.
func TestMetricsEndpoint(t *testing.T) {
	s, m, _ := testServer(t)
	m.Counter("fec.cache.hits").Add(3)
	m.Histogram("fec.solve.ns{backend=sat}").Observe(1000)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type: %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	samples, err := obs.ParsePrometheusText(string(body))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition text: %v\n%s", err, body)
	}
	if samples["fec_cache_hits"] != 3 {
		t.Fatalf("counter not served: %v", samples)
	}
	if samples[`fec_solve_ns_count{backend="sat"}`] != 1 {
		t.Fatalf("histogram not served: %v", samples)
	}
}

// TestHealthz checks the liveness endpoint.
func TestHealthz(t *testing.T) {
	s, _, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var body struct {
		Status   string `json:"status"`
		UptimeNS int64  `json:"uptime_ns"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.UptimeNS < 0 {
		t.Fatalf("healthz body: %+v", body)
	}
}

// TestPprofIndex checks the profiling surface is mounted.
func TestPprofIndex(t *testing.T) {
	s, _, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index: %d %q", rec.Code, rec.Body.String()[:min(120, rec.Body.Len())])
	}
}

// TestEventsSSE subscribes to /events over a real listener and checks
// span, metrics, and progress events arrive in SSE framing.
func TestEventsSSE(t *testing.T) {
	s, m, hub := testServer(t)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type: %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	// The handshake comment arrives first.
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ": connected") {
		t.Fatalf("handshake: %q, %v", line, err)
	}

	// Give the subscription a moment to register, then publish through
	// every hub facet.
	waitForSubscriber(t, hub)
	tr := obs.NewTracer(hub)
	sp := tr.Start("check", obs.KV("mode", "test"))
	sp.End()
	m.Counter("c").Inc()
	hub.Metrics(m.Snapshot())
	hub.Write([]byte("check: FECs: 1/3\n"))

	events := map[string]string{}
	deadline := time.After(5 * time.Second)
	for len(events) < 3 {
		lineCh := make(chan string, 1)
		go func() {
			l, err := r.ReadString('\n')
			if err != nil {
				close(lineCh)
				return
			}
			lineCh <- l
		}()
		var l string
		var open bool
		select {
		case l, open = <-lineCh:
			if !open {
				t.Fatalf("stream closed early; got %v", events)
			}
		case <-deadline:
			t.Fatalf("timed out; got %v", events)
		}
		if !strings.HasPrefix(l, "event: ") {
			continue
		}
		name := strings.TrimSpace(strings.TrimPrefix(l, "event: "))
		data, err := r.ReadString('\n')
		if err != nil || !strings.HasPrefix(data, "data: ") {
			t.Fatalf("event %q without data line: %q, %v", name, data, err)
		}
		events[name] = strings.TrimSpace(strings.TrimPrefix(data, "data: "))
	}

	var span obs.SpanRecord
	if err := json.Unmarshal([]byte(events["span"]), &span); err != nil || span.Name != "check" {
		t.Fatalf("span event: %q, %v", events["span"], err)
	}
	var mr obs.MetricsRecord
	if err := json.Unmarshal([]byte(events["metrics"]), &mr); err != nil || mr.Counters["c"] != 1 {
		t.Fatalf("metrics event: %q, %v", events["metrics"], err)
	}
	if events["progress"] != "check: FECs: 1/3" {
		t.Fatalf("progress event: %q", events["progress"])
	}
}

func waitForSubscriber(t *testing.T, hub *Hub) {
	t.Helper()
	for i := 0; i < 500; i++ {
		hub.mu.Lock()
		n := len(hub.subs)
		hub.mu.Unlock()
		if n > 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no /events subscriber appeared")
}

// TestHubDropsWhenFull checks Publish never blocks: a subscriber that
// stops draining loses events, counted in Dropped, and the publisher
// returns promptly.
func TestHubDropsWhenFull(t *testing.T) {
	hub := NewHub()
	_, ch := hub.subscribe()
	for i := 0; i < subscriberBuffer+10; i++ {
		hub.Publish("progress", "x")
	}
	if got := hub.Dropped(); got != 10 {
		t.Fatalf("want 10 dropped, got %d", got)
	}
	if len(ch) != subscriberBuffer {
		t.Fatalf("buffer not full: %d", len(ch))
	}
}

// TestCloseSubscribers ends open streams and makes later publishes
// no-ops.
func TestCloseSubscribers(t *testing.T) {
	hub := NewHub()
	_, ch := hub.subscribe()
	hub.CloseSubscribers()
	if _, open := <-ch; open {
		t.Fatal("channel must be closed")
	}
	hub.Publish("progress", "x") // must not panic
	if id, ch2 := hub.subscribe(); id != -1 {
		t.Fatal("subscribe after close must return a closed channel")
	} else if _, open := <-ch2; open {
		t.Fatal("post-close subscription channel must be closed")
	}
	var nilHub *Hub
	nilHub.Publish("progress", "x") // nil-safe
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
