package node

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// serve boots a daemon through New, serves it on a loopback test
// server, and returns a stop func that closes both (also run at
// cleanup; Close is idempotent).
func serve(t *testing.T, cfg Config) (*httptest.Server, func()) {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n)
	stop := func() {
		ts.Close()
		n.Close()
	}
	t.Cleanup(stop)
	return ts, stop
}

// call POSTs body as JSON (GETs when body is nil) and decodes the 200
// answer into out.
func call(t *testing.T, url string, body, out any) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		blob, _ := json.Marshal(body)
		resp, err = http.Post(url, "application/json", bytes.NewReader(blob))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %s", url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("%s: decoding %s: %v", url, raw, err)
	}
}

// servedRows polls /v1/stats until the serving epoch covers want rows
// (local rows plus absorbed sources), failing after five seconds.
func servedRows(t *testing.T, url string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st Stats
		call(t, url+"/v1/stats", nil, &st)
		if st.Epoch != nil && st.Epoch.MergedRows == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon serves %+v, want %d rows", st.Epoch, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestModeMatrix boots every daemon mode — role {ingest, aggregator} ×
// {in-memory, durable} — through New, the one construction path, so a
// mode whose wiring is broken (a typed-nil store in the engine's Log
// field panicked the first in-memory observe once) cannot hide. Each
// cell ingests (or pulls), answers a query, Closes, and boots again: a
// durable ingest node recovers every row, an in-memory one starts
// empty, an aggregator re-pulls. The durable aggregator is refused.
func TestModeMatrix(t *testing.T) {
	const d, q = 4, 3
	base := Config{Summary: "exact", D: d, Q: q, Eps: 0.05, Delta: 0.01, Alpha: 0.3, Seed: 1, Shards: 2,
		Fsync: "never", PullInterval: 10 * time.Millisecond, PullTimeout: time.Second}
	rows := make([][]uint16, 30)
	distinct := map[string]bool{}
	for i := range rows {
		rows[i] = []uint16{uint16(i % q), uint16(i / q % q), uint16(i % 2), 0}
		distinct[fmt.Sprint(rows[i])] = true
	}
	// The aggregator cells pull from one in-memory ingest node holding
	// the rows.
	src, _ := serve(t, base)
	call(t, src.URL+"/v1/observe", map[string]any{"rows": rows}, &ObserveResponse{})

	for _, role := range []string{"ingest", "aggregator"} {
		for _, durable := range []bool{false, true} {
			mode := map[bool]string{false: "in-memory", true: "durable"}[durable]
			t.Run(role+"/"+mode, func(t *testing.T) {
				cfg := base
				if durable {
					cfg.DataDir = t.TempDir()
				}
				if role == "aggregator" {
					cfg.PullFrom = []string{src.URL}
				}
				if role == "aggregator" && durable {
					n, err := New(cfg)
					if err == nil {
						n.Close()
						t.Fatal("a durable aggregator booted")
					}
					if !strings.Contains(err.Error(), "-pull-from and -data-dir are mutually exclusive") {
						t.Fatalf("durable aggregator refused with %q", err)
					}
					return
				}

				ts, stop := serve(t, cfg)
				if role == "ingest" {
					var ack ObserveResponse
					call(t, ts.URL+"/v1/observe", map[string]any{"rows": rows}, &ack)
					if ack.Accepted != len(rows) {
						t.Fatalf("observe accepted %d of %d rows", ack.Accepted, len(rows))
					}
				}
				servedRows(t, ts.URL, int64(len(rows)))
				var qr QueryResponse
				call(t, ts.URL+"/v1/query", QueryRequest{Queries: []QuerySpec{{Kind: "f0", Cols: []int{0, 1, 2, 3}}}}, &qr)
				if qr.Results[0].Error != "" || qr.Results[0].Value != float64(len(distinct)) {
					t.Fatalf("f0 answered %+v, want %d distinct rows", qr.Results[0], len(distinct))
				}
				stop()

				// Second boot over the same configuration (and directory).
				ts, _ = serve(t, cfg)
				want := int64(len(rows))
				if role == "ingest" && !durable {
					want = 0
				}
				servedRows(t, ts.URL, want)
			})
		}
	}
}
