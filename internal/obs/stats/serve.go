// Package stats exposes the internal/obs telemetry surface over HTTP:
// /metrics in the Prometheus text exposition format, /healthz,
// /debug/pprof/*, and /events streaming progress lines and finished
// spans as server-sent events. It is the stats endpoint the jinjingd
// daemon (ROADMAP item 1) will mount; the CLI mounts it behind
// `jinjing -listen ADDR` for the lifetime of a run.
package stats

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"jinjing/internal/obs"
)

// Server serves the telemetry endpoints for one metrics registry and
// event hub. Construct with New, bind with Listen, stop with Close.
type Server struct {
	metrics *obs.Metrics
	hub     *Hub
	start   time.Time

	mux  *http.ServeMux
	srv  *http.Server
	lis  net.Listener
	done chan struct{}
}

// New builds a server over the given registry and hub; either may be
// nil (the corresponding endpoints then serve empty data).
func New(m *obs.Metrics, hub *Hub) *Server {
	s := &Server{metrics: m, hub: hub, start: time.Now(), mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the route table, for mounting under another server or
// an httptest harness.
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds addr (host:port; port 0 picks a free one), starts
// serving in a goroutine, and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.lis = lis
	s.srv = &http.Server{Handler: s.mux}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.srv.Serve(lis) //nolint:errcheck // ErrServerClosed on shutdown
	}()
	return lis.Addr().String(), nil
}

// Close shuts the server down, interrupting open /events streams.
// Subscribers are closed even when the server was never bound with
// Listen — a Handler() mounted under another mux (httptest, jinjingd)
// still has /events goroutines parked on hub channels, and skipping the
// hub close would leak every one of them.
func (s *Server) Close() error {
	if s.hub != nil {
		s.hub.CloseSubscribers()
	}
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close() //nolint:errcheck // force-close after timeout
	}
	<-s.done
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.Snapshot().WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_ns\":%d}\n", time.Since(s.start).Nanoseconds())
}

// handleEvents streams hub events as SSE: `event: <name>` and a
// single-line `data:` payload per event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok || s.hub == nil {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprint(w, ": connected\n\n")
	flusher.Flush()

	id, ch := s.hub.subscribe()
	defer s.hub.unsubscribe(id)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
			flusher.Flush()
		}
	}
}

// Event is one hub notification: a name ("span", "metrics", "progress")
// and a single-line JSON or text payload.
type event struct {
	name string
	data string
}

// Hub fans telemetry out to /events subscribers. It implements
// obs.Sink (span + metrics events; compose with a file sink via
// obs.MultiSink) and io.Writer (progress lines). Publishing never
// blocks: slow subscribers drop events, counted in Dropped.
type Hub struct {
	mu     sync.Mutex
	subs   map[int]chan event
	nextID int
	closed bool

	// Dropped counts events discarded because a subscriber's buffer was
	// full.
	dropped atomic.Int64
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[int]chan event)}
}

const subscriberBuffer = 256

func (h *Hub) subscribe() (int, <-chan event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch := make(chan event, subscriberBuffer)
	if h.closed {
		close(ch)
		return -1, ch
	}
	id := h.nextID
	h.nextID++
	h.subs[id] = ch
	return id, ch
}

func (h *Hub) unsubscribe(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, id)
}

// Publish sends one event to every subscriber, dropping it for
// subscribers whose buffer is full.
func (h *Hub) Publish(name, data string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range h.subs {
		select {
		case ch <- event{name: name, data: data}:
		default:
			h.dropped.Add(1)
		}
	}
}

// Dropped reports how many events were discarded for slow subscribers.
func (h *Hub) Dropped() int64 { return h.dropped.Load() }

// CloseSubscribers ends every open /events stream and makes future
// subscriptions return closed channels. Publish after close no-ops.
func (h *Hub) CloseSubscribers() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, ch := range h.subs {
		close(ch)
		delete(h.subs, id)
	}
}

// Span implements obs.Sink: each finished span becomes a "span" event.
func (h *Hub) Span(r obs.SpanRecord) {
	data, err := json.Marshal(r)
	if err != nil {
		return
	}
	h.Publish("span", string(data))
}

// Metrics implements obs.Sink: each snapshot becomes a "metrics" event.
func (h *Hub) Metrics(s obs.Snapshot) {
	data, err := json.Marshal(obs.MetricsRecord{Type: "metrics", Snapshot: s})
	if err != nil {
		return
	}
	h.Publish("metrics", string(data))
}

// Write implements io.Writer for progress reporters: each write (one
// progress line) becomes a "progress" event carrying the trimmed text.
func (h *Hub) Write(p []byte) (int, error) {
	line := string(p)
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	if line != "" {
		h.Publish("progress", line)
	}
	return len(p), nil
}
