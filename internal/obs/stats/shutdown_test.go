package stats

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// TestCloseUnblocksMountedEventStreams covers the Handler()-mounted
// shutdown path: a server whose routes are mounted under another mux
// (httptest here, jinjingd in production) is never bound with Listen,
// so Close must still end open /events streams — each one parks a
// handler goroutine on a hub channel, and skipping the hub close leaks
// every one of them.
func TestCloseUnblocksMountedEventStreams(t *testing.T) {
	srv, _, hub := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	baseline := runtime.NumGoroutine()

	// A dedicated transport so client-side keep-alive goroutines can be
	// torn down before the leak count.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}

	const streams = 3
	done := make(chan error, streams)
	for i := 0; i < streams; i++ {
		go func() {
			resp, err := client.Get(ts.URL + "/events")
			if err != nil {
				done <- err
				return
			}
			defer resp.Body.Close()
			// Drain until the server ends the stream; blocks forever if
			// Close leaks the handler.
			buf := make([]byte, 256)
			for {
				if _, err := resp.Body.Read(buf); err != nil {
					done <- nil
					return
				}
			}
		}()
	}
	// Wait for all streams to attach before closing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hub.mu.Lock()
		n := len(hub.subs)
		hub.mu.Unlock()
		if n == streams {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d streams attached", n, streams)
		}
		time.Sleep(time.Millisecond)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < streams; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("stream reader: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close left an /events handler goroutine parked — stream never ended")
		}
	}

	// The handler goroutines (and our readers) are gone: after dropping
	// the client's idle connections, the goroutine count settles back to
	// the pre-stream baseline.
	tr.CloseIdleConnections()
	settleBy := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+1 {
			break
		}
		if time.Now().After(settleBy) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
