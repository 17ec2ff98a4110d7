package clustertest

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/node"
	"repro/internal/router"
	"repro/internal/words"
)

// serveInProcess boots a daemon through node.New on a loopback
// listener. The returned stop closes the listener, then the daemon (the
// order Serve uses); it is idempotent and also runs at cleanup.
func serveInProcess(t *testing.T, cfg node.Config) (*httptest.Server, func()) {
	t.Helper()
	n, err := node.New(cfg)
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

// TestInProcessClusterConverges is the cluster's aggregation property at
// unit-test speed: 3 ingest nodes and 2 aggregators from node.New and a
// router from router.New, each on a loopback listener, with every
// ingest edge behind a fault Proxy. A stream of batches rides out
//
//	batches 4–7: ingest1's edge blackholed, batches still flowing
//	batch  12:   ingest2 removed from the membership (hand-off to its
//	             ring successor, aggregators retargeted)
//	batch  16:   aggregator0 Closed; reads fail over to aggregator1
//
// with every batch acked in full, and must converge exactly: the
// surviving aggregator serves the fed row count, every queue delivered
// what it enqueued, and answers through the router equal a
// single-process engine's bit for bit. The process-level tests keep
// the true SIGKILL cases.
func TestInProcessClusterConverges(t *testing.T) {
	const (
		d, q      = 4, 3
		seed      = 7
		batchSize = 50
		batches   = 24
	)
	shape := node.Config{Summary: "exact", D: d, Q: q, Eps: 0.05, Delta: 0.01, Alpha: 0.3, Seed: seed, Shards: 2}

	var proxies []*Proxy
	var ingestURLs []string // proxy URLs: the ring's node set
	for i := 0; i < 3; i++ {
		cfg := shape
		cfg.DataDir, cfg.Fsync = t.TempDir(), "never"
		ts, _ := serveInProcess(t, cfg)
		p := NewProxy(t, ts.Listener.Addr().String())
		proxies = append(proxies, p)
		ingestURLs = append(ingestURLs, p.URL())
	}
	var aggURLs []string
	var aggStops []func()
	for i := 0; i < 2; i++ {
		cfg := shape
		cfg.PullFrom, cfg.PullInterval, cfg.PullTimeout = ingestURLs, 20*time.Millisecond, 500*time.Millisecond
		ts, stop := serveInProcess(t, cfg)
		aggURLs = append(aggURLs, ts.URL)
		aggStops = append(aggStops, stop)
	}
	r, err := router.New(router.Config{
		Ingest: ingestURLs, Aggregators: aggURLs,
		// A short timeout turns each blackholed forward into a queued
		// slice quickly; the fast cadence drains backlogs promptly.
		Timeout:        300 * time.Millisecond,
		RetryQueueRows: 1 << 16,
		RetryBase:      10 * time.Millisecond,
		RetryMax:       100 * time.Millisecond,
		HealthInterval: 25 * time.Millisecond, HealthThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(r)
	t.Cleanup(func() {
		rs.Close()
		r.Close()
	})
	ring, err := cluster.NewRing(ingestURLs)
	if err != nil {
		t.Fatal(err)
	}

	// Single-process baseline. Exact summaries make merge order
	// irrelevant, so cluster == baseline is an equality check.
	baseline, err := engine.NewSharded(func(int) (core.Summary, error) {
		return core.NewExact(d, q)
	}, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Close()

	rows := workloadRows(t, d, q, batchSize*batches, 99)
	node2Direct := 0 // rows the ring routes to ingest2 before its removal
	sawPartitionDepth := false
	for i := 0; i < batches; i++ {
		switch i {
		case 4:
			// Flip the fault only on a quiet edge, so a cut connection is
			// always a whole lost request.
			WaitQueuesDrained(t, rs.URL, 10*time.Second)
			proxies[1].SetFault(Fault{Kind: Blackhole})
		case 8:
			proxies[1].Heal()
		case 12:
			WaitQueuesDrained(t, rs.URL, 10*time.Second)
			removeIngest2(t, rs.URL, ingestURLs, ring, node2Direct)
			if ring, err = cluster.NewRingEpoch(ingestURLs[:2], 1); err != nil {
				t.Fatal(err)
			}
		case 16:
			aggStops[0]()
		}

		batch := rows[i*batchSize : (i+1)*batchSize]
		status, resp := sendBatch(t, rs.URL, batch)
		if status != http.StatusOK || resp.Accepted != len(batch) || resp.Shed != 0 {
			t.Fatalf("batch %d: status %d, %+v — an unreachable node's slice must queue, not fail", i, status, resp)
		}
		for _, row := range batch {
			if ring.Has(ingestURLs[2]) && ring.Owner(cluster.RowKey(row)) == ingestURLs[2] {
				node2Direct++
			}
		}
		b := words.NewBatch(d, len(batch))
		for _, row := range batch {
			b.Append(row)
		}
		baseline.ObserveBatch(b)
		if i == 7 {
			if qs, ok := queueByNode(GetRouterStats(t, rs.URL), ingestURLs[1]); ok && qs.DepthRows > 0 {
				sawPartitionDepth = true
			}
		}
	}
	if !sawPartitionDepth {
		t.Fatal("no queue depth observed for the blackholed edge — the partition proved nothing")
	}

	Poll(t, 10*time.Second, "aggregator0 marked unhealthy", func() bool {
		for _, a := range GetRouterStats(t, rs.URL).Aggregators {
			if a.URL == aggURLs[0] {
				return !a.Healthy && a.Ejections >= 1
			}
		}
		return false
	})
	WaitQueuesDrained(t, rs.URL, 10*time.Second)
	total := int64(batchSize * batches)
	WaitConverged(t, aggURLs[1], total, 10*time.Second)

	rst := GetRouterStats(t, rs.URL)
	if rst.Epoch != 1 || len(rst.Ingest) != 2 {
		t.Fatalf("router membership after change: epoch %d, ingest %v", rst.Epoch, rst.Ingest)
	}
	for _, qs := range rst.Queues {
		if qs.Shed != 0 || qs.Rejected != 0 || qs.Enqueued != qs.Delivered || qs.DepthRows != 0 {
			t.Fatalf("queue %s not exactly-once: %+v", qs.Node, qs)
		}
	}

	full := words.FullColumnSet(d)
	queries := []map[string]interface{}{
		{"kind": "f0", "cols": []int{0}},
		{"kind": "f0", "cols": []int{1, 3}},
		{"kind": "f0", "cols": []int{0, 1, 2, 3}},
		{"kind": "fp", "cols": []int{0, 2}, "p": 2.0},
		{"kind": "freq", "cols": []int{0, 1, 2, 3}, "pattern": rows[0]},
		{"kind": "freq", "cols": []int{0, 1, 2, 3}, "pattern": rows[777]},
	}
	want := make([]float64, 0, len(queries))
	for _, sp := range queries {
		var v float64
		switch sp["kind"] {
		case "f0":
			v, err = baseline.F0(words.MustColumnSet(d, sp["cols"].([]int)...))
		case "fp":
			v, err = baseline.Fp(words.MustColumnSet(d, sp["cols"].([]int)...), 2)
		case "freq":
			v, err = baseline.Frequency(full, words.Word(sp["pattern"].([]uint16)))
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	got, routedTo := queryViaRouter(t, rs.URL, queries)
	if routedTo != aggURLs[1] {
		t.Fatalf("query routed to %q, want surviving aggregator %q", routedTo, aggURLs[1])
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d (%v): cluster %v, baseline %v", i, queries[i], got[i], want[i])
		}
	}
}
