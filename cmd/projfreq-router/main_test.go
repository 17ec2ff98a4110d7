package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/router"
)

// observeRequest is the /v1/observe body as a client (or a test's
// stand-in ingest node) outside this module would marshal and decode
// it; the router itself only goes through internal/wire's codec.
type observeRequest struct {
	Rows [][]uint16 `json:"rows"`
}

// fakeIngest is an in-process stand-in for projfreqd's /v1/observe:
// it records every row it is sent and acks them, or — when refusing —
// answers a 4xx, as projfreqd does to a batch it cannot take.
type fakeIngest struct {
	mu       sync.Mutex
	rows     [][]uint16
	refusing bool
}

func (f *fakeIngest) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/observe", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.refusing {
			http.Error(w, "simulated refusal", http.StatusUnprocessableEntity)
			return
		}
		var req observeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.rows = append(f.rows, req.Rows...)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]int{"accepted": len(req.Rows)})
	})
	return mux
}

// ringRows builds n 4-column rows of which every node in urls owns at
// least one under the ring the router builds over urls, so a test that
// faults one node always has rows on both sides of the fault, whatever
// ports the test servers drew: one row per node first, found by
// ring.OwnerOfRow, then distinct rows in a fixed order.
func ringRows(t *testing.T, urls []string, n int) [][]uint16 {
	t.Helper()
	ring, err := cluster.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	row := func(i int) []uint16 { return []uint16{uint16(i % 7), uint16(i / 7 % 7), uint16(i / 49), 3} }
	var rows [][]uint16
	for _, u := range urls {
		i := 0
		for ; ring.OwnerOfRow(row(i)) != u; i++ {
			if i == 1<<16 {
				t.Fatalf("ring assigns %s no row", u)
			}
		}
		rows = append(rows, row(i))
	}
	for i := 0; len(rows) < n; i++ {
		rows = append(rows, row(i))
	}
	return rows
}

// startRouterTier builds N fake ingest nodes, one fake aggregator,
// and a router over them; what the redelivery queues do under outages
// has its own tests in retry_test.go.
func startRouterTier(t *testing.T, n int) (*httptest.Server, []*fakeIngest, []string) {
	t.Helper()
	ingests := make([]*fakeIngest, n)
	urls := make([]string, n)
	for i := range ingests {
		ingests[i] = &fakeIngest{}
		ts := httptest.NewServer(ingests[i].handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	agg := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Agg", "1")
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(agg.Close)
	r := newTestRouter(t, urls, []string{agg.URL}, router.Config{Timeout: 5 * time.Second})
	rs := httptest.NewServer(r)
	t.Cleanup(rs.Close)
	return rs, ingests, urls
}

// newTestRouter builds a router over the given tiers through
// router.New — with the -retry-queue-rows flag's default when cfg
// leaves the bound unset — and ties its background goroutines to the
// test's lifetime.
func newTestRouter(t *testing.T, ingest, aggs []string, cfg router.Config) *router.Router {
	t.Helper()
	cfg.Ingest, cfg.Aggregators = ingest, aggs
	if cfg.RetryQueueRows == 0 {
		cfg.RetryQueueRows = 1 << 16
	}
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestRouterPartitionsByRing checks the fan-out: every row lands on
// exactly the node the ring assigns it, and the ack totals add up.
func TestRouterPartitionsByRing(t *testing.T) {
	rs, ingests, urls := startRouterTier(t, 3)
	rows := ringRows(t, urls, 300)
	blob, _ := json.Marshal(observeRequest{Rows: rows})
	resp, err := http.Post(rs.URL+"/v1/observe", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
	var ack router.ObserveResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Rows != 300 || ack.Accepted != 300 || ack.Partial {
		t.Fatalf("ack: %+v", ack)
	}

	// Recompute the expected partition with the same deterministic
	// ring the router built.
	ring, err := cluster.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, row := range rows {
		want[ring.OwnerOfRow(row)]++
	}
	total := 0
	for i, ing := range ingests {
		ing.mu.Lock()
		got := len(ing.rows)
		for _, row := range ing.rows {
			if owner := ring.OwnerOfRow(row); owner != urls[i] {
				t.Fatalf("node %s holds a row owned by %s", urls[i], owner)
			}
		}
		ing.mu.Unlock()
		if got != want[urls[i]] {
			t.Fatalf("node %s got %d rows, ring assigns %d", urls[i], got, want[urls[i]])
		}
		total += got
	}
	if total != 300 {
		t.Fatalf("nodes hold %d rows, sent 300", total)
	}
}

// TestRouterReportsPartialIngest: a slice its node refuses outright
// (4xx) is reported per node with an overall 502 — the only way to a
// 502 — and is neither queued nor shed; the other nodes' slices are
// still ingested.
func TestRouterReportsPartialIngest(t *testing.T) {
	rs, ingests, urls := startRouterTier(t, 2)
	ingests[1].mu.Lock()
	ingests[1].refusing = true
	ingests[1].mu.Unlock()

	rows := ringRows(t, urls, 200)
	blob, _ := json.Marshal(observeRequest{Rows: rows})
	resp, err := http.Post(rs.URL+"/v1/observe", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("partial ingest returned %d, want 502: %s", resp.StatusCode, body)
	}
	var ack router.ObserveResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Partial || ack.Accepted >= ack.Rows || ack.Accepted == 0 || ack.Queued != 0 || ack.Shed != 0 {
		t.Fatalf("ack: %+v", ack)
	}
	ring, _ := cluster.NewRing(urls)
	liveRows := 0
	for _, row := range rows {
		if ring.OwnerOfRow(row) == urls[0] {
			liveRows++
		}
	}
	if ack.Accepted != liveRows {
		t.Fatalf("accepted %d, live node owns %d", ack.Accepted, liveRows)
	}
	for _, res := range ack.Results {
		refused := res.Node == urls[1]
		if refused && (res.Error == "" || res.Accepted != 0) {
			t.Fatalf("refusing node result: %+v", res)
		}
		if !refused && res.Error != "" {
			t.Fatalf("accepting node result: %+v", res)
		}
	}
}

// TestRouterRejectsMalformedBatches covers the router-side refusals
// (the shared decoder's, in the router's dimension-from-the-batch
// mode) as the 400s clients see.
func TestRouterRejectsMalformedBatches(t *testing.T) {
	rs, _, _ := startRouterTier(t, 2)
	for name, body := range map[string]string{
		"empty":      `{"rows":[]}`,
		"no rows":    `{}`,
		"ragged":     `{"rows":[[1,2,3],[1,2]]}`,
		"zero-width": `{"rows":[[]]}`,
		"not json":   `{"rows":`,
	} {
		resp, err := http.Post(rs.URL+"/v1/observe", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s batch: %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestRouterFailsOverAcrossAggregators: a dead aggregator is skipped;
// with none alive the router answers 502.
func TestRouterFailsOverAcrossAggregators(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	ing := httptest.NewServer((&fakeIngest{}).handler())
	defer ing.Close()
	r := newTestRouter(t, []string{ing.URL}, []string{deadURL, live.URL}, router.Config{Timeout: time.Second})
	rs := httptest.NewServer(r)
	defer rs.Close()

	// Every request lands on the live aggregator no matter where the
	// round-robin cursor starts.
	for i := 0; i < 4; i++ {
		resp, err := http.Post(rs.URL+"/v1/query", "application/json", bytes.NewReader([]byte(`{}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Routed-To"); got != live.URL {
			t.Fatalf("query %d routed to %q", i, got)
		}
	}

	// All aggregators down: 502.
	r2 := newTestRouter(t, []string{ing.URL}, []string{deadURL}, router.Config{Timeout: time.Second})
	rs2 := httptest.NewServer(r2)
	defer rs2.Close()
	resp, err := http.Post(rs2.URL+"/v1/query", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("no aggregators: %d, want 502", resp.StatusCode)
	}
}

// TestRouterStats smoke-tests the membership report.
func TestRouterStats(t *testing.T) {
	rs, _, urls := startRouterTier(t, 2)
	resp, err := http.Get(rs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st router.TierStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "router" || len(st.Ingest) != len(urls) || len(st.Aggregators) != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRouterRequiresRetryQueue: there is no queue-less mode, so a
// -retry-queue-rows below 1 is a usage error at start-up.
func TestRouterRequiresRetryQueue(t *testing.T) {
	for _, rows := range []int{0, -1} {
		r, err := router.New(router.Config{Ingest: []string{"http://n1"}, Aggregators: []string{"http://agg"}, RetryQueueRows: rows})
		if err == nil {
			r.Close()
			t.Fatalf("-retry-queue-rows %d started a router", rows)
		}
		if !strings.Contains(err.Error(), "-retry-queue-rows") {
			t.Fatalf("-retry-queue-rows %d: error does not name the flag: %v", rows, err)
		}
	}
}

// TestRouterRefusesRetryCeilingBelowBase: a -retry-max below
// -retry-base would make the backoff shrink from its first step, so
// New refuses it naming both flags — including the flag default
// ceiling (5s) under a larger -retry-base — while zero backoffs still
// take their defaults.
func TestRouterRefusesRetryCeilingBelowBase(t *testing.T) {
	for _, c := range []struct{ base, max time.Duration }{
		{10 * time.Second, 2 * time.Second},
		{10 * time.Second, 5 * time.Second},
		{10 * time.Second, 0},
	} {
		r, err := router.New(router.Config{Ingest: []string{"http://n1"}, Aggregators: []string{"http://agg"},
			RetryQueueRows: 1, RetryBase: c.base, RetryMax: c.max})
		if err == nil {
			r.Close()
			t.Fatalf("-retry-base %v -retry-max %v started a router", c.base, c.max)
		}
		if !strings.Contains(err.Error(), "-retry-max") || !strings.Contains(err.Error(), "-retry-base") {
			t.Fatalf("-retry-base %v -retry-max %v: error does not name both flags: %v", c.base, c.max, err)
		}
	}
	for _, c := range []struct{ base, max time.Duration }{{0, 0}, {time.Second, 0}, {time.Second, time.Second}} {
		r, err := router.New(router.Config{Ingest: []string{"http://n1"}, Aggregators: []string{"http://agg"},
			RetryQueueRows: 1, RetryBase: c.base, RetryMax: c.max})
		if err != nil {
			t.Fatalf("-retry-base %v -retry-max %v refused: %v", c.base, c.max, err)
		}
		r.Close()
	}
}
