package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"jinjing/internal/netgen"
	"jinjing/internal/topo"
)

// TestDaemonOnePassMatchesFallback replays one edit sequence on two
// durable daemons: once with plain bodies, whose networks the one-pass
// decode reads, and once with each network key spelled with an escape,
// which sends every body to decodeStrict whole. The two must answer
// every request with the same status and body (job IDs and wall times
// aside), leave the same manifest after the drain, and answer the same
// re-check after a restart.
func TestDaemonOnePassMatchesFallback(t *testing.T) {
	escape := func(body []byte) []byte {
		body = bytes.Replace(body, []byte(`"topology":`), []byte(`"t\u006fpology":`), 1)
		return bytes.Replace(body, []byte(`"updated":`), []byte(`"upd\u0061ted":`), 1)
	}
	plain, escaped := replayEdits(t, func(b []byte) []byte { return b }), replayEdits(t, escape)
	if len(plain) != len(escaped) {
		t.Fatalf("%d answers plain, %d escaped", len(plain), len(escaped))
	}
	for i := range plain {
		if plain[i] != escaped[i] {
			t.Errorf("answer %d differs:\nplain   %s\nescaped %s", i, plain[i], escaped[i])
		}
	}
}

// TestDaemonRenumberedUpdateMatches replays the edit sequence with each
// updated snapshot listing its devices, and each device's interfaces, in
// reverse order, so that the network it builds numbers its interfaces in
// the reverse of the topology's order. Every answer must be the one the
// plain sequence gets; only the stored recipe, which keeps the bytes
// sent, differs.
func TestDaemonRenumberedUpdateMatches(t *testing.T) {
	reverse := func(body []byte) []byte {
		var env map[string]json.RawMessage
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if len(env["updated"]) == 0 {
			return body
		}
		var n struct {
			Devices []struct {
				Name       string            `json:"name"`
				Interfaces []json.RawMessage `json:"interfaces"`
				Routes     []json.RawMessage `json:"routes,omitempty"`
			} `json:"devices"`
			Links []json.RawMessage `json:"links"`
		}
		if err := json.Unmarshal(env["updated"], &n); err != nil {
			t.Fatal(err)
		}
		slices.Reverse(n.Devices)
		for _, d := range n.Devices {
			slices.Reverse(d.Interfaces)
		}
		var err error
		if env["updated"], err = json.Marshal(n); err != nil {
			t.Fatal(err)
		}
		if body, err = json.Marshal(env); err != nil {
			t.Fatal(err)
		}
		return body
	}
	plain, reversed := replayEdits(t, func(b []byte) []byte { return b }), replayEdits(t, reverse)
	if len(plain) != len(reversed) {
		t.Fatalf("%d answers plain, %d reversed", len(plain), len(reversed))
	}
	for i := range plain {
		if plain[i] != reversed[i] && !strings.HasPrefix(plain[i], "manifest: ") {
			t.Errorf("answer %d differs:\nplain    %s\nreversed %s", i, plain[i], reversed[i])
		}
	}
}

// replayEdits runs the edit sequence on a fresh durable daemon, each
// body passed through rewrite, and returns what it answered: per
// request the status and normalized body, then the manifest after the
// drain, then the re-check after a restart. It also checks that the
// job bodies with an updated snapshot took the path rewrite implies.
func replayEdits(t *testing.T, rewrite func([]byte) []byte) []string {
	t.Helper()
	dir := t.TempDir()
	srv, ts := restartDaemon(t, Config{StateDir: dir})
	var answers []string
	send := func(method, path string, v any) {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = rewrite(body)
		escaped := bytes.Contains(body, []byte(`\u00`))
		if req, err := DecodeJobRequest(body); err == nil && len(req.Updated) > 0 && (req.updated == nil) != escaped {
			t.Fatalf("job body read in one pass: %v, escaped: %v", req.updated != nil, escaped)
		}
		if req, err := DecodeSessionRequest(body); err == nil && (req.topology == nil) != escaped {
			t.Fatalf("session body read in one pass: %v, escaped: %v", req.topology != nil, escaped)
		}
		status, data := do(t, method, ts.URL+path, body, nil)
		answers = append(answers, fmt.Sprintf("%s %s: %d %s", method, path, status, normalize(t, data)))
	}

	send(http.MethodPut, "/v1/sessions/fig1", SessionRequest{
		Topology: marshalNet(t, figure1()),
		Program:  daemonProgram,
		Updated:  marshalNet(t, editNet(t, edit1)),
		Defaults: &JobOverrides{AllViolations: boolPtr(true)},
	})
	send(http.MethodPost, "/v1/sessions/fig1/check", JobRequest{})
	send(http.MethodPost, "/v1/sessions/fig1/check", JobRequest{Updated: marshalNet(t, editNet(t, edit2))})
	send(http.MethodPost, "/v1/sessions/fig1/fix", JobRequest{Updated: marshalNet(t, editNet(t, edit1))})
	// A snapshot whose link names a missing interface: its ACL view
	// reads no link, and the job fails on the modified binding C:1 the
	// snapshot lacks.
	broken := json.RawMessage(`{"devices":[{"name":"A","interfaces":[{"name":"1"}]}],"links":[{"from":"A:1","to":"Z:9"}]}`)
	send(http.MethodPost, "/v1/sessions/fig1/check", JobRequest{Updated: broken})
	send(http.MethodPost, "/v1/sessions/fig1/check", JobRequest{
		Updated:      marshalNet(t, editNet(t, edit2)),
		JobOverrides: JobOverrides{AllViolations: boolPtr(false)},
	})

	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "sessions", "fig1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m sessionManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	recipe, err := json.Marshal(m.Request)
	if err != nil {
		t.Fatal(err)
	}
	answers = append(answers, "manifest: "+string(recipe))

	_, ts = restartDaemon(t, Config{StateDir: dir})
	status, data := do(t, http.MethodPost, ts.URL+"/v1/sessions/fig1/check", nil, nil)
	return append(answers, fmt.Sprintf("restored check: %d %s", status, normalize(t, data)))
}

// normalize drops a response's job ID, wall time and creation time,
// which differ run to run.
func normalize(t *testing.T, data []byte) string {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("response %s: %v", data, err)
	}
	delete(v, "job")
	delete(v, "wall_ns")
	delete(v, "created_at")
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDaemonRefusesOversizedBody: a body declared longer than
// MaxBodyBytes gets the structured 413 before any of it is read, on
// both body-carrying endpoints.
func TestDaemonRefusesOversizedBody(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	putSession(t, ts, "fig1", edit1)
	for _, target := range []string{"PUT /v1/sessions/big", "POST /v1/sessions/fig1/check"} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "%s HTTP/1.1\r\nHost: jinjingd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n{",
			target, MaxBodyBytes+1)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || eb.Error.Code != "payload_too_large" {
			t.Fatalf("%s: status %d, error %+v (%v); want 413 payload_too_large", target, resp.StatusCode, eb.Error, err)
		}
	}
	if status, data := do(t, http.MethodGet, ts.URL+"/v1/sessions/big", nil, nil); status != http.StatusNotFound {
		t.Fatalf("an oversized PUT must not create a session: status %d, body %s", status, data)
	}
}

// TestDaemonTimesOutStalledClients lowers the connection timeouts and
// stalls a raw connection at each: a body declared and never finished
// gets a 400 naming the timeout and then the connection closes, whether
// the handler reads the body (a PUT) or refuses the request first (a
// job for a session that does not exist, which does not); headers never
// finished, and a keep-alive connection left idle, are closed. A job
// that runs past the body timeout once its body is in still answers in
// full.
func TestDaemonTimesOutStalledClients(t *testing.T) {
	oldHeader, oldBody, oldIdle := headerTimeout, bodyTimeout, idleTimeout
	t.Cleanup(func() { headerTimeout, bodyTimeout, idleTimeout = oldHeader, oldBody, oldIdle })
	headerTimeout, bodyTimeout, idleTimeout = 200*time.Millisecond, 200*time.Millisecond, 200*time.Millisecond
	srv := New(Config{})
	srv.testGate = func(string, string) { time.Sleep(2 * bodyTimeout) }
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck // test teardown
	dial := func(request string) (net.Conn, *bufio.Reader) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a test bound, not the server's
		fmt.Fprint(conn, request)
		return conn, bufio.NewReader(conn)
	}
	closedBy := func(what string, br *bufio.Reader) {
		t.Helper()
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("%s: the server kept the connection open (%v)", what, err)
		}
	}

	for _, c := range []struct {
		target string
		status int
	}{{"PUT /v1/sessions/slow", http.StatusBadRequest}, {"POST /v1/sessions/none/check", http.StatusNotFound}} {
		_, br := dial(c.target + " HTTP/1.1\r\nHost: jinjingd\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{")
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.target, err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != c.status || err != nil || c.status == http.StatusBadRequest && !strings.Contains(eb.Error.Message, "timeout") {
			t.Fatalf("%s: status %d, error %+v (%v); want %d, a 400 naming the timeout", c.target, resp.StatusCode, eb.Error, err, c.status)
		}
		closedBy(c.target, br)
	}
	_, br := dial("GET /healthz HTTP/1.1\r\nHost: jinjingd\r\n")
	closedBy("unfinished headers", br)
	_, br = dial("GET /healthz HTTP/1.1\r\nHost: jinjingd\r\n\r\n")
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained to reach the idle connection
	resp.Body.Close()
	closedBy("an idle keep-alive connection", br)

	// Chunked, so the body is read to its end and the server starts
	// watching the connection while the job runs.
	putSession(t, &httptest.Server{URL: "http://" + addr}, "fig1", edit1)
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/sessions/fig1/check", io.MultiReader(strings.NewReader("{}")))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cr CheckResponse
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || !cr.Complete {
		t.Fatalf("a job outliving the body timeout: status %d, complete %v (%v)", resp.StatusCode, cr.Complete, err)
	}
}

// stalledBody is a request body that hands out sent in pieces of at most
// 64 KiB and then fails, as a connection that stalls and is closed does.
type stalledBody struct{ sent []byte }

func (b *stalledBody) Read(p []byte) (int, error) {
	if len(b.sent) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, b.sent[:min(len(b.sent), 64<<10)])
	b.sent = b.sent[n:]
	return n, nil
}

// TestReadBodyFollowsArrivedBytes: a body declared at MaxBodyBytes costs
// memory in proportion to the bytes that arrive before it stalls, not
// the declared length; a body that arrives whole is read into a buffer
// of its length.
func TestReadBodyFollowsArrivedBytes(t *testing.T) {
	for _, arrived := range []int{0, 10, 3<<20 + 5} {
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions/s/check",
			&stalledBody{sent: bytes.Repeat([]byte{'x'}, arrived)})
		r.ContentLength = MaxBodyBytes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, apiErr := readBody(httptest.NewRecorder(), r)
		runtime.ReadMemStats(&after)
		if apiErr == nil || apiErr.Code != "bad_request" {
			t.Fatalf("%d of %d bytes: error %+v, want bad_request", arrived, MaxBodyBytes, apiErr)
		}
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*max(arrived, bodyChunk)); alloc > bound {
			t.Errorf("%d of %d bytes arrived: allocated %d bytes, want at most %d", arrived, MaxBodyBytes, alloc, bound)
		}
	}
	data := bytes.Repeat([]byte{'x'}, 3<<20+5)
	r := httptest.NewRequest(http.MethodPost, "/v1/sessions/s/check", bytes.NewReader(data))
	r.ContentLength = int64(len(data))
	body, apiErr := readBody(httptest.NewRecorder(), r)
	if apiErr != nil || !bytes.Equal(body, data) || cap(body) != len(data) {
		t.Fatalf("whole body: error %+v, %d bytes read into a buffer of %d, want %d", apiErr, len(body), cap(body), len(data))
	}
}

// BenchmarkDecodeJobRequest is a re-check's decode: a POST body carrying
// the large WAN as its updated snapshot, decoded and its ACL view built
// (what runLocked resolves against). The body is the one the operator
// benchmark posts: the snapshot as json.Marshal writes it, inside
// {"updated":...}.
func BenchmarkDecodeJobRequest(b *testing.B) {
	snap, err := json.Marshal(netgen.Build(netgen.DefaultConfig(netgen.Large, 1)).Net)
	if err != nil {
		b.Fatal(err)
	}
	body := append(append([]byte(`{"updated":`), snap...), '}')
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := DecodeJobRequest(body)
		if err != nil {
			b.Fatal(err)
		}
		var u *topo.Network
		if u, err = loadNetwork(req.Updated, req.updated, topo.LoadView); err != nil || len(u.Devices) == 0 {
			b.Fatalf("load: %v", err)
		}
	}
}

// BenchmarkLoadManifest is a restored session's decode: a manifest whose
// request carries the large WAN as both topology and updated snapshot,
// read from disk and decoded, the topology loaded and the snapshot's ACL
// view built (what newSession builds the session from).
func BenchmarkLoadManifest(b *testing.B) {
	snap, err := json.Marshal(netgen.Build(netgen.DefaultConfig(netgen.Large, 1)).Net)
	if err != nil {
		b.Fatal(err)
	}
	st, err := newStateStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := st.saveManifest("large", &SessionRequest{Topology: snap, Updated: snap, Program: "check"}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := st.loadManifest("large")
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []struct {
			raw   json.RawMessage
			plain *topo.Plain
			load  func([]byte) (*topo.Network, error)
		}{{req.Topology, req.topology, topo.Load}, {req.Updated, req.updated, topo.LoadView}} {
			if u, err := loadNetwork(n.raw, n.plain, n.load); err != nil || len(u.Devices) == 0 {
				b.Fatalf("load: %v", err)
			}
		}
	}
}
