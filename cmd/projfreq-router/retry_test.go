package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/router"
)

// flakyIngest is a fake projfreqd observe endpoint whose failure mode
// is switchable at runtime: status 0 accepts and records rows, any
// other value is returned as-is without ingesting.
type flakyIngest struct {
	mu     sync.Mutex
	status int
	rows   [][]uint16
}

func (f *flakyIngest) setStatus(code int) {
	f.mu.Lock()
	f.status = code
	f.mu.Unlock()
}

func (f *flakyIngest) rowCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.rows)
}

func (f *flakyIngest) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/observe", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.status != 0 {
			http.Error(w, "injected failure", f.status)
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

// waitUntil polls cond every 10ms until it holds or the deadline
// passes; fixed sleeps are banned in these tests.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// quietAgg is a stand-in aggregator that answers everything 200.
func quietAgg(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write([]byte(`{}`))
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// postObserveJSON posts rows through the router and decodes the ack.
func postObserveJSON(t *testing.T, routerURL string, rows [][]uint16) (int, router.ObserveResponse) {
	t.Helper()
	blob, _ := json.Marshal(observeRequest{Rows: rows})
	resp, err := http.Post(routerURL+"/v1/observe", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var ack router.ObserveResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatalf("decoding ack %s: %v", body, err)
	}
	return resp.StatusCode, ack
}

// routerStats fetches /v1/router/stats.
func routerStats(t *testing.T, routerURL string) router.Stats {
	t.Helper()
	resp, err := http.Get(routerURL + "/v1/router/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st router.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func queueFor(st router.Stats, node string) (router.QueueStats, bool) {
	for _, q := range st.Queues {
		if q.Node == node {
			return q, true
		}
	}
	return router.QueueStats{}, false
}

// startRetryTier builds two flaky ingest nodes and a queue-enabled
// router with fast backoffs.
func startRetryTier(t *testing.T, capRows int) (*httptest.Server, []*flakyIngest, []string) {
	t.Helper()
	ingests := []*flakyIngest{{}, {}}
	urls := make([]string, len(ingests))
	for i, ing := range ingests {
		ts := httptest.NewServer(ing.handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	r := newTestRouter(t, urls, []string{quietAgg(t)}, router.Config{
		Timeout:        time.Second,
		RetryQueueRows: capRows,
		RetryBase:      2 * time.Millisecond,
		RetryMax:       20 * time.Millisecond,
	})
	rs := httptest.NewServer(r)
	t.Cleanup(rs.Close)
	return rs, ingests, urls
}

// TestRetryQueueAbsorbsOutageAndDrains: a down node's slice is queued
// (accepted, not routed, overall 200), then redelivered exactly once
// when the node heals.
func TestRetryQueueAbsorbsOutageAndDrains(t *testing.T) {
	rs, ingests, urls := startRetryTier(t, 1<<16)
	ingests[1].setStatus(http.StatusServiceUnavailable)

	rows := ringRows(t, urls, 300)
	ring, err := cluster.NewRing(urls)
	if err != nil {
		t.Fatal(err)
	}
	deadShare := 0
	for _, row := range rows {
		if ring.Owner(cluster.RowKey(row)) == urls[1] {
			deadShare++
		}
	}
	if deadShare == 0 || deadShare == len(rows) {
		t.Fatalf("degenerate partition: dead node owns %d of %d rows", deadShare, len(rows))
	}

	status, ack := postObserveJSON(t, rs.URL, rows)
	if status != http.StatusOK {
		t.Fatalf("queued outage answered %d, want 200: %+v", status, ack)
	}
	if ack.Accepted != 300 || ack.Queued != deadShare || ack.Routed != 300-deadShare || ack.Shed != 0 {
		t.Fatalf("ack: %+v (dead node owns %d)", ack, deadShare)
	}

	ingests[1].setStatus(0)
	waitUntil(t, 5*time.Second, "queued slice redelivered", func() bool {
		return ingests[1].rowCount() == deadShare
	})
	waitUntil(t, 5*time.Second, "queue drained", func() bool {
		q, ok := queueFor(routerStats(t, rs.URL), urls[1])
		return ok && q.DepthRows == 0 && q.Delivered == int64(deadShare)
	})
	if got := ingests[0].rowCount(); got != 300-deadShare {
		t.Fatalf("live node holds %d rows, want %d", got, 300-deadShare)
	}
}

// TestRetryQueueBoundSheds is the backpressure contract: a blackholed
// node drives its queue to the cap, further slices shed with 503, the
// depth never exceeds the cap, and healing drains every queued row
// exactly once (accepted totals match delivered rows, shed rows never
// appear).
func TestRetryQueueBoundSheds(t *testing.T) {
	const capRows = 60
	rs, ingests, urls := startRetryTier(t, capRows)
	ingests[1].setStatus(http.StatusServiceUnavailable)

	// Distinct rows per batch so redelivered rows are countable.
	acceptedDead, routedLive, shedTotal := 0, 0, 0
	sawShed := false
	for b := 0; b < 8; b++ {
		rows := make([][]uint16, 40)
		for i := range rows {
			rows[i] = []uint16{uint16(b), uint16(i), uint16(b*40 + i), 3}
		}
		status, ack := postObserveJSON(t, rs.URL, rows)
		for _, res := range ack.Results {
			if res.Node == urls[1] {
				acceptedDead += res.Accepted
			} else {
				routedLive += res.Routed
			}
		}
		shedTotal += ack.Shed
		if ack.Shed > 0 {
			sawShed = true
			if status != http.StatusServiceUnavailable {
				t.Fatalf("shed batch answered %d, want 503: %+v", status, ack)
			}
		} else if status != http.StatusOK {
			t.Fatalf("unshed batch answered %d: %+v", status, ack)
		}
		q, ok := queueFor(routerStats(t, rs.URL), urls[1])
		if !ok {
			t.Fatal("no queue stats for dead node")
		}
		if q.DepthRows > capRows {
			t.Fatalf("queue depth %d exceeds cap %d", q.DepthRows, capRows)
		}
	}
	if !sawShed {
		t.Fatalf("cap %d never reached: %d rows queued", capRows, acceptedDead)
	}

	// Heal: the queue drains to zero and the node ends up with exactly
	// the accepted rows — shed rows are gone (the client's retry), and
	// nothing is delivered twice.
	ingests[1].setStatus(0)
	waitUntil(t, 5*time.Second, "queue drained after heal", func() bool {
		q, ok := queueFor(routerStats(t, rs.URL), urls[1])
		return ok && q.DepthRows == 0
	})
	if got := ingests[1].rowCount(); got != acceptedDead {
		t.Fatalf("healed node holds %d rows, accepted %d (shed %d must not arrive)",
			got, acceptedDead, shedTotal)
	}
	q, _ := queueFor(routerStats(t, rs.URL), urls[1])
	if q.Shed != int64(shedTotal) || q.Delivered != int64(acceptedDead) {
		t.Fatalf("queue counters: %+v, want shed=%d delivered=%d", q, shedTotal, acceptedDead)
	}
	if got := ingests[0].rowCount(); got != routedLive {
		t.Fatalf("live node holds %d rows, routed %d", got, routedLive)
	}
}

// TestRetryQueueDropsTerminalBatches: a queued batch the node rejects
// with a 4xx during redelivery is dropped (counted Rejected), not
// retried forever — it would otherwise wedge the queue.
func TestRetryQueueDropsTerminalBatches(t *testing.T) {
	rs, ingests, urls := startRetryTier(t, 1<<16)
	ingests[1].setStatus(http.StatusServiceUnavailable)

	_, ack := postObserveJSON(t, rs.URL, ringRows(t, urls, 200))
	if ack.Queued == 0 {
		t.Fatalf("nothing queued: %+v", ack)
	}
	ingests[1].setStatus(http.StatusBadRequest)
	waitUntil(t, 5*time.Second, "terminal batch dropped", func() bool {
		q, ok := queueFor(routerStats(t, rs.URL), urls[1])
		return ok && q.DepthRows == 0 && q.Rejected == int64(ack.Queued)
	})
	if got := ingests[1].rowCount(); got != 0 {
		t.Fatalf("rejected node ingested %d rows", got)
	}
}

// TestObserveFirstAttempt4xxIsTerminal: a node-side 4xx on the first
// delivery is not queued — the batch itself is the problem, so the
// client hears a 502 with the node's error.
func TestObserveFirstAttempt4xxIsTerminal(t *testing.T) {
	rs, ingests, urls := startRetryTier(t, 1<<16)
	ingests[1].setStatus(http.StatusUnprocessableEntity)

	status, ack := postObserveJSON(t, rs.URL, ringRows(t, urls, 200))
	if status != http.StatusBadGateway || !ack.Partial || ack.Queued != 0 || ack.Shed != 0 {
		t.Fatalf("status %d, ack %+v", status, ack)
	}
	for _, res := range ack.Results {
		if res.Node == urls[1] && res.Error == "" {
			t.Fatalf("rejecting node reported no error: %+v", res)
		}
	}
}
