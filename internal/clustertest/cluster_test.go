package clustertest

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/words"
	"repro/internal/workload"
)

func TestMain(m *testing.M) {
	code := m.Run()
	CleanupBinaries()
	os.Exit(code)
}

// Wire shapes of the router's /v1/observe fan-out report.
type routerNodeResult struct {
	Node     string `json:"node"`
	Rows     int    `json:"rows"`
	Accepted int    `json:"accepted"`
	Error    string `json:"error"`
}

type routerObserveResponse struct {
	Rows     int                `json:"rows"`
	Accepted int                `json:"accepted"`
	Routed   int                `json:"routed"`
	Queued   int                `json:"queued"`
	Shed     int                `json:"shed"`
	Partial  bool               `json:"partial"`
	Results  []routerNodeResult `json:"results"`
}

// workloadRows materializes n deterministic rows (Zipf-distributed
// patterns, fixed seed) as plain slices.
func workloadRows(t *testing.T, d, q, n int, seed uint64) [][]uint16 {
	t.Helper()
	src := workload.ZipfPatterns(d, q, n, 40, 1.2, seed)
	rows := make([][]uint16, 0, n)
	for {
		w, ok := src.Next()
		if !ok {
			break
		}
		rows = append(rows, append([]uint16(nil), w...))
	}
	if len(rows) != n {
		t.Fatalf("workload yielded %d rows, want %d", len(rows), n)
	}
	return rows
}

// sendBatch streams one batch through the router and returns the
// fan-out report.
func sendBatch(t *testing.T, routerURL string, rows [][]uint16) (int, routerObserveResponse) {
	t.Helper()
	status, body := PostJSON(t, routerURL+"/v1/observe", map[string][][]uint16{"rows": rows})
	var resp routerObserveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding observe response %s: %v", body, err)
	}
	return status, resp
}

// sourceByURL indexes the aggregator's anti-entropy counters.
func sourceByURL(t *testing.T, st Stats, url string) SourceStats {
	t.Helper()
	for _, src := range st.Cluster.Sources {
		if src.URL == url {
			return src
		}
	}
	t.Fatalf("no source %s in %+v", url, st.Cluster.Sources)
	return SourceStats{}
}

// TestClusterKillAndRecover is the tentpole integration property: a
// two-ingest + one-aggregator cluster, fronted by the router, has one
// ingest node SIGKILLed mid-stream and restarted (same address, same
// data dir). Every batch is accepted — the dead node's slices wait in
// the router's redelivery queue — and the aggregator must converge to
// bit-exactly the answers of a single process that ingested every row,
// at exactly the row count sent; its anti-entropy must record the
// outage and ship blobs only for shards whose state actually changed
// (asserted from the per-source request counters).
func TestClusterKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	const (
		d, q      = 4, 3
		seed      = 7
		batchSize = 100
		batches   = 30
	)
	// A fast redelivery cadence drains the outage's backlog promptly
	// once the node is back.
	c := StartCluster(t, Config{IngestNodes: 2, Dim: d, Alphabet: q, Seed: seed,
		RouterArgs: []string{"-retry-base", "25ms", "-retry-max", "250ms"}})
	ring, err := cluster.NewRing(c.IngestURLs())
	if err != nil {
		t.Fatal(err)
	}

	// The single-process baseline: same summary configuration, fed
	// every row. Exact summaries make every merge order
	// equivalent, so "cluster == baseline" is an equality check, not a
	// tolerance check.
	baseline, err := engine.NewSharded(func(int) (core.Summary, error) {
		return core.NewExact(d, q)
	}, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Close()

	rows := workloadRows(t, d, q, batchSize*batches, 99)
	feedBaseline := func(sent [][]uint16) {
		b := words.NewBatch(d, len(sent))
		for _, row := range sent {
			copy(b.AppendRow(), row)
		}
		baseline.ObserveBatch(b)
	}

	total := int64(batchSize * batches)
	queued := 0
	for i := 0; i < batches; i++ {
		batch := rows[i*batchSize : (i+1)*batchSize]
		status, resp := sendBatch(t, c.Router.URL(), batch)
		if status != 200 || resp.Accepted != len(batch) || resp.Shed != 0 {
			t.Fatalf("batch %d: status %d, %+v — a whole-node outage must not fail a batch", i, status, resp)
		}
		queued += resp.Queued
		feedBaseline(batch)

		if i == 9 {
			// Crash one ingest node mid-stream: no drain, no shutdown
			// checkpoint — recovery must come from the WAL. Hold the
			// stream until the aggregator has probed the dead node at
			// least once, so the outage is observable in the pull
			// counters rather than racing the restart.
			c.Ingest[0].Kill(t)
			deadline := time.Now().Add(10 * time.Second)
			for sourceByURL(t, GetStats(t, c.Aggregator.URL()), c.Ingest[0].URL()).Errors == 0 {
				if time.Now().After(deadline) {
					t.Fatal("aggregator never recorded a failed pull against the killed node")
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		if i == 19 {
			c.Ingest[0].Restart(t)
		}
	}
	if queued == 0 {
		t.Fatal("no rows queued during the outage — the kill proved nothing")
	}

	// Convergence: once the backlog has drained, the aggregator's
	// serving epoch accounts for every row sent (the dead node's WAL
	// recovery and the redelivered slices included) and nothing else —
	// and the router delivered each queued row exactly once.
	WaitQueuesDrained(t, c.Router.URL(), 30*time.Second)
	WaitConverged(t, c.Aggregator.URL(), total, 30*time.Second)
	for _, qs := range GetRouterStats(t, c.Router.URL()).Queues {
		if qs.Shed != 0 || qs.Rejected != 0 || qs.Enqueued != qs.Delivered || qs.DepthRows != 0 {
			t.Fatalf("queue %s not exactly-once: %+v", qs.Node, qs)
		}
	}
	aggStats := GetStats(t, c.Aggregator.URL())
	if aggStats.Cluster.Role != "aggregator" || aggStats.Rows != 0 {
		t.Fatalf("aggregator stats: %+v", aggStats)
	}
	restarted := sourceByURL(t, aggStats, c.Ingest[0].URL())
	if restarted.Errors == 0 {
		t.Fatalf("no pull errors recorded against the killed node: %+v", restarted)
	}

	// Bit-exactness: integer-valued projected queries through the
	// router (which proxies to the aggregator) equal the baseline's
	// answers exactly.
	full := words.FullColumnSet(d)
	queries := []map[string]interface{}{
		{"kind": "f0", "cols": []int{0}},
		{"kind": "f0", "cols": []int{1, 2}},
		{"kind": "f0", "cols": []int{0, 1, 2, 3}},
		{"kind": "fp", "cols": []int{0, 1}, "p": 2.0},
		{"kind": "freq", "cols": []int{0, 1, 2, 3}, "pattern": rows[0]},
		{"kind": "freq", "cols": []int{0, 1, 2, 3}, "pattern": rows[57]},
	}
	colSet := func(cols []int) words.ColumnSet { return words.MustColumnSet(d, cols...) }
	want := []float64{}
	for _, sp := range queries {
		cols := colSet(sp["cols"].([]int))
		var v float64
		var err error
		switch sp["kind"] {
		case "f0":
			v, err = baseline.F0(cols)
		case "fp":
			v, err = baseline.Fp(cols, 2)
		case "freq":
			v, err = baseline.Frequency(full, words.Word(sp["pattern"].([]uint16)))
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	status, body := PostJSON(t, c.Router.URL()+"/v1/query", map[string]interface{}{"queries": queries})
	if status != 200 {
		t.Fatalf("query through router: %d %s", status, body)
	}
	var qr struct {
		Results []struct {
			Value float64 `json:"value"`
			Error string  `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(qr.Results), len(queries))
	}
	for i, res := range qr.Results {
		if res.Error != "" {
			t.Fatalf("query %d: %s", i, res.Error)
		}
		if res.Value != want[i] {
			t.Fatalf("query %d (%v): cluster %v, baseline %v", i, queries[i], res.Value, want[i])
		}
	}

	// Anti-entropy scope: ingest into node 1 only, and assert the next
	// rounds ship node 1's changed blob while node 0 — untouched since
	// its last pull — costs only 304 probes, no transfers.
	before := GetStats(t, c.Aggregator.URL())
	var node1Rows [][]uint16
	for _, row := range workloadRows(t, d, q, 400, 1234) {
		if ring.OwnerOfRow(row) == c.Ingest[1].URL() {
			node1Rows = append(node1Rows, row)
		}
	}
	if len(node1Rows) == 0 {
		t.Fatal("workload owns no rows on node 1")
	}
	status, resp := sendBatch(t, c.Router.URL(), node1Rows)
	if status != 200 || resp.Accepted != len(node1Rows) {
		t.Fatalf("targeted batch: %d %+v", status, resp)
	}
	feedBaseline(node1Rows)
	total += int64(len(node1Rows))
	WaitConverged(t, c.Aggregator.URL(), total, 30*time.Second)
	// Wait (by polling, not a fixed sleep) until the idle node has
	// provably been probed again — its 304 counter advanced — then
	// check no blob shipped for it while node 1's did.
	idleBefore := sourceByURL(t, before, c.Ingest[0].URL())
	var after Stats
	Poll(t, 10*time.Second, "an idle-node 304 probe", func() bool {
		after = GetStats(t, c.Aggregator.URL())
		return sourceByURL(t, after, c.Ingest[0].URL()).NotModified > idleBefore.NotModified
	})
	idleAfter := sourceByURL(t, after, c.Ingest[0].URL())
	busyBefore, busyAfter := sourceByURL(t, before, c.Ingest[1].URL()), sourceByURL(t, after, c.Ingest[1].URL())
	if idleAfter.Changed != idleBefore.Changed {
		t.Fatalf("idle node shipped %d blobs while only node 1 changed",
			idleAfter.Changed-idleBefore.Changed)
	}
	if busyAfter.Changed <= busyBefore.Changed {
		t.Fatalf("changed node shipped no blob: %+v -> %+v", busyBefore, busyAfter)
	}

	// The spot checks above are targeted; finish with the full-table
	// equality — every pattern's exact count, cluster vs baseline.
	statusF, bodyF := PostJSON(t, c.Router.URL()+"/v1/query", map[string]interface{}{
		"queries": []map[string]interface{}{{"kind": "f0", "cols": []int{0, 1, 2, 3}}},
	})
	if statusF != 200 {
		t.Fatalf("final f0: %d %s", statusF, bodyF)
	}
	var fr struct {
		Results []struct {
			Value float64 `json:"value"`
		} `json:"results"`
	}
	if err := json.Unmarshal(bodyF, &fr); err != nil {
		t.Fatal(err)
	}
	wantF0, err := baseline.F0(full)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Results[0].Value != wantF0 {
		t.Fatalf("final distinct-row count: cluster %v, baseline %v", fr.Results[0].Value, wantF0)
	}
}
