package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/router"
)

// TestProxyPassesConditionalGetThrough pins the anti-entropy hop: an
// If-None-Match that matches the aggregator's ETag must come back as
// a 304 through the router (no body re-shipped), and a stale ETag as
// a 200 with the new validator — both tagged with X-Routed-To.
func TestProxyPassesConditionalGetThrough(t *testing.T) {
	const etag = `"blob-7"`
	agg := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", etag)
		_, _ = w.Write([]byte("summary-bytes"))
	}))
	t.Cleanup(agg.Close)
	ing := httptest.NewServer((&fakeIngest{}).handler())
	t.Cleanup(ing.Close)
	r := newTestRouter(t, []string{ing.URL}, []string{agg.URL}, router.Config{Timeout: time.Second})
	rs := httptest.NewServer(r)
	t.Cleanup(rs.Close)

	// Cold GET: full blob plus the validator.
	req, _ := http.NewRequest(http.MethodGet, rs.URL+"/v1/summary", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != etag {
		t.Fatalf("cold GET: %d, ETag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	if resp.Header.Get("X-Routed-To") != agg.URL {
		t.Fatalf("X-Routed-To = %q", resp.Header.Get("X-Routed-To"))
	}

	// Warm GET with the validator: 304 end to end.
	req, _ = http.NewRequest(http.MethodGet, rs.URL+"/v1/summary", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: %d, want 304", resp.StatusCode)
	}
	if resp.Header.Get("X-Routed-To") != agg.URL {
		t.Fatalf("304 X-Routed-To = %q", resp.Header.Get("X-Routed-To"))
	}
}

// TestProxyDoesNotLeakOnMidStreamFailure hammers the proxy against an
// aggregator that promises a large body and dies mid-stream; every
// response body must still be closed, which the goroutine count
// (under -race in CI) and the later healthy request verify.
func TestProxyDoesNotLeakOnMidStreamFailure(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Promise 1MB, deliver 10 bytes, then slam the connection: the
		// router's io.Copy fails partway through the relay.
		w.Header().Set("Content-Length", "1048576")
		_, _ = w.Write([]byte("0123456789"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("recorder not hijackable")
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(broken.Close)
	ing := httptest.NewServer((&fakeIngest{}).handler())
	t.Cleanup(ing.Close)
	r := newTestRouter(t, []string{ing.URL}, []string{broken.URL}, router.Config{Timeout: time.Second})
	rs := httptest.NewServer(r)
	t.Cleanup(rs.Close)

	before := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		resp, err := http.Get(rs.URL + "/v1/summary")
		if err != nil {
			// The router may itself abort the response once the upstream
			// copy dies; a client-visible transport error is acceptable,
			// a leak is not.
			continue
		}
		_, _ = readAllDiscard(resp)
	}
	// Leaked response bodies pin their transport goroutines; closed
	// ones wind down. Poll rather than sleep: the count is noisy while
	// keep-alive conns settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after mid-stream failures", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// readAllDiscard drains and closes a response body.
func readAllDiscard(resp *http.Response) (int64, error) {
	defer resp.Body.Close()
	var n int64
	buf := make([]byte, 4096)
	for {
		m, err := resp.Body.Read(buf)
		n += int64(m)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, fmt.Errorf("reading body: %w", err)
		}
	}
}
