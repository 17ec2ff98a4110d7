package clustertest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/node"
	"repro/internal/router"
	"repro/internal/words"
)

// queueByNode indexes the router's queue stats.
func queueByNode(st router.Stats, node string) (router.QueueStats, bool) {
	for _, q := range st.Queues {
		if q.Node == node {
			return q, true
		}
	}
	return router.QueueStats{}, false
}

// queryViaRouter posts queries through the router and returns the
// values plus the X-Routed-To header, so failover is observable.
func queryViaRouter(t *testing.T, routerURL string, queries []map[string]interface{}) ([]float64, string) {
	t.Helper()
	blob, err := json.Marshal(map[string]interface{}{"queries": queries})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(routerURL+"/v1/query", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr node.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query via router: %d", resp.StatusCode)
	}
	vals := make([]float64, len(qr.Results))
	for i, res := range qr.Results {
		if res.Error != "" {
			t.Fatalf("query %d: %s", i, res.Error)
		}
		vals[i] = res.Value
	}
	return vals, resp.Header.Get("X-Routed-To")
}

// TestClusterChaosConvergence is the fault-tolerance tentpole: a
// 3-ingest / 2-aggregator cluster, every ingest edge behind a fault
// proxy, takes a continuous stream while the schedule below runs —
//
//	batch  8: ingest0 SIGKILLed (no drain, recovery from its WAL)
//	batch 16: ingest0 restarted on its pinned address
//	batch 20: ingest1's network edge blackholed (>= 10s partition)
//	batch 26: partition healed
//	batch 30: ingest2 removed from the membership; its summary hands
//	          off to the ring successor, aggregators retarget
//	batch 35: aggregator0 SIGKILLed; queries fail over to aggregator1
//
// — and every batch is still acked in full (accepted == rows, nothing
// shed), because rows owned by an unreachable node ride the router's
// retry queue. The proof obligation is exactly-once: after the queues
// drain, the surviving aggregator's merged row count equals the
// accepted total EXACTLY (no loss, no double count), and its answers
// are bit-identical to a single process that ingested every row.
//
// Faults flip only while the faulted edge is quiet (queues drained,
// no batch in flight), so a cut connection is always a whole lost
// request — the at-least-once ack-loss caveat documented in
// ARCHITECTURE.md never triggers, and exact equality is provable.
func TestClusterChaosConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and rides out a 10s partition")
	}
	const (
		d, q      = 4, 3
		seed      = 7
		batchSize = 100
		batches   = 40
	)
	c := StartCluster(t, Config{
		IngestNodes: 3,
		Aggregators: 2,
		Dim:         d, Alphabet: q, Seed: seed,
		Faults: true,
		// Small timeouts keep blackholed forwards from stalling the
		// stream; fast retry cadence drains backlogs promptly.
		RouterArgs: []string{
			"-timeout", "2s",
			"-retry-base", "25ms",
			"-retry-max", "250ms",
			"-health-interval", "100ms",
			"-health-threshold", "2",
		},
	})
	ingestURLs := c.IngestURLs() // proxy URLs: the ring's node set
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

	var (
		sawKillDepth      bool
		sawPartitionDepth bool
		partitionStart    time.Time
	)
	for i := 0; i < batches; i++ {
		switch i {
		case 8:
			// Quiesce the edge, then crash the node. Queues are empty, so
			// every row acked so far is inside ingest0's fsync'd WAL.
			WaitQueuesDrained(t, c.Router.URL(), 30*time.Second)
			c.Ingest[0].Kill(t)
		case 16:
			c.Ingest[0].Restart(t)
		case 20:
			WaitQueuesDrained(t, c.Router.URL(), 30*time.Second)
			c.Proxies[1].SetFault(Fault{Kind: Blackhole})
			partitionStart = time.Now()
		case 26:
			// Hold the partition for at least 10 seconds of wall clock
			// before healing; keep interrogating the router meanwhile so
			// its liveness under partition is part of the test.
			for time.Since(partitionStart) < 10*time.Second {
				GetRouterStats(t, c.Router.URL())
				time.Sleep(100 * time.Millisecond)
			}
			c.Proxies[1].Heal()
		case 30:
			// Membership change mid-stream: drain, then drop ingest2. The
			// router orchestrates the hand-off and aggregator retargeting.
			WaitQueuesDrained(t, c.Router.URL(), 60*time.Second)
			removeIngest2(t, c.Router.URL(), ingestURLs, ring, node2Direct)
			next, err := cluster.NewRingEpoch(ingestURLs[:2], 1)
			if err != nil {
				t.Fatal(err)
			}
			ring = next
		case 35:
			c.Aggregators[0].Kill(t)
		}

		batch := rows[i*batchSize : (i+1)*batchSize]
		status, resp := sendBatch(t, c.Router.URL(), batch)
		if status != http.StatusOK || resp.Accepted != len(batch) || resp.Shed != 0 {
			t.Fatalf("batch %d: status %d, %+v — with the retry queue on, a whole-node outage must not fail a batch", i, status, resp)
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

		// Sample queue depths so the outages are provably absorbed by
		// the queue, not silently routed around.
		if i == 12 || i == 23 {
			st := GetRouterStats(t, c.Router.URL())
			node := ingestURLs[0]
			if i == 23 {
				node = ingestURLs[1]
			}
			if qs, ok := queueByNode(st, node); ok && qs.DepthRows > 0 {
				if i == 12 {
					sawKillDepth = true
				} else {
					sawPartitionDepth = true
				}
			}
		}
	}
	if !sawKillDepth {
		t.Fatal("no queue depth observed for the killed node — the crash proved nothing")
	}
	if !sawPartitionDepth {
		t.Fatal("no queue depth observed for the partitioned node — the blackhole proved nothing")
	}

	// Failover: aggregator0 is dead, so queries must route to
	// aggregator1 — and the router's health view must say why.
	surviving := c.Aggregators[1]
	Poll(t, 10*time.Second, "aggregator0 marked unhealthy", func() bool {
		for _, a := range GetRouterStats(t, c.Router.URL()).Aggregators {
			if a.URL == c.Aggregators[0].URL() {
				return !a.Healthy && a.Ejections >= 1
			}
		}
		return false
	})

	// Drain, then converge: the surviving aggregator's merged row count
	// must hit the accepted total exactly — at-least-once delivery with
	// zero double counts.
	WaitQueuesDrained(t, c.Router.URL(), 60*time.Second)
	total := int64(batchSize * batches)
	WaitConverged(t, surviving.URL(), total, 60*time.Second)

	// Let anti-entropy run a few more rounds and re-check: the count
	// must stay pinned at the total, not creep past it.
	before := GetStats(t, surviving.URL())
	Poll(t, 15*time.Second, "two more anti-entropy rounds", func() bool {
		st := GetStats(t, surviving.URL())
		return st.Cluster.Sources[0].Pulls >= before.Cluster.Sources[0].Pulls+2
	})
	settled := GetStats(t, surviving.URL())
	if settled.Epoch.MergedRows != total {
		t.Fatalf("merged rows drifted to %d after settling, want exactly %d", settled.Epoch.MergedRows, total)
	}
	// The aggregator now pulls only the two surviving ingest edges.
	if len(settled.Cluster.Sources) != 2 {
		t.Fatalf("surviving aggregator still pulls %d sources: %+v", len(settled.Cluster.Sources), settled.Cluster.Sources)
	}
	for _, src := range settled.Cluster.Sources {
		if src.URL == ingestURLs[2] {
			t.Fatalf("removed node still an anti-entropy source: %+v", settled.Cluster.Sources)
		}
	}

	// Router bookkeeping: epoch advanced, ring shrank, and no queue
	// ever shed or terminally rejected a row — enqueued == delivered.
	rst := GetRouterStats(t, c.Router.URL())
	if rst.Epoch != 1 || len(rst.Ingest) != 2 {
		t.Fatalf("router membership after change: epoch %d, ingest %v", rst.Epoch, rst.Ingest)
	}
	for _, qs := range rst.Queues {
		if qs.Shed != 0 || qs.Rejected != 0 || qs.Enqueued != qs.Delivered || qs.DepthRows != 0 {
			t.Fatalf("queue %s not exactly-once: %+v", qs.Node, qs)
		}
	}

	// Bit-exactness through the router: integer-valued projected
	// queries equal the single-process baseline exactly, including the
	// full distinct-count table.
	full := words.FullColumnSet(d)
	queries := []map[string]interface{}{
		{"kind": "f0", "cols": []int{0}},
		{"kind": "f0", "cols": []int{1, 3}},
		{"kind": "f0", "cols": []int{0, 1, 2, 3}},
		{"kind": "fp", "cols": []int{0, 2}, "p": 2.0},
		{"kind": "freq", "cols": []int{0, 1, 2, 3}, "pattern": rows[0]},
		{"kind": "freq", "cols": []int{0, 1, 2, 3}, "pattern": rows[1234]},
		{"kind": "freq", "cols": []int{0, 1, 2, 3}, "pattern": rows[3999]},
	}
	want := make([]float64, 0, len(queries))
	for _, sp := range queries {
		var v float64
		var err error
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
	got, routedTo := queryViaRouter(t, c.Router.URL(), queries)
	if routedTo != surviving.URL() {
		t.Fatalf("query routed to %q, want surviving aggregator %q", routedTo, surviving.URL())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d (%v): cluster %v, baseline %v", i, queries[i], got[i], want[i])
		}
	}
}

// removeIngest2 drives the router's membership endpoint to drop the
// third of urls (the ingest tier as the router addresses it) and
// asserts the orchestration report: the hand-off went to the
// ring-predicted successor and carried exactly the rows the ring ever
// routed to the removed node, and every aggregator was retargeted.
func removeIngest2(t *testing.T, routerURL string, urls []string, ring *cluster.Ring, node2Direct int) {
	t.Helper()
	next, err := cluster.NewRingEpoch(urls[:2], 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSuccessor := ring.Diff(next).Successors[urls[2]]

	status, body := PostJSON(t, routerURL+"/v1/admin/membership",
		router.MembershipRequest{Ingest: urls[:2]})
	if status != http.StatusOK {
		t.Fatalf("membership change: %d %s", status, body)
	}
	var resp router.MembershipResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding membership response %s: %v", body, err)
	}
	if resp.Unchanged || resp.FromEpoch != 0 || resp.ToEpoch != 1 {
		t.Fatalf("membership epochs: %s", body)
	}
	if len(resp.Handoffs) != 1 || resp.Handoffs[0].Error != "" {
		t.Fatalf("handoffs: %s", body)
	}
	h := resp.Handoffs[0]
	if h.From != urls[2] || h.To != wantSuccessor {
		t.Fatalf("handoff %s -> %s, ring predicts successor %s", h.From, h.To, wantSuccessor)
	}
	// The queues were drained before the change, so the removed node
	// holds exactly the rows the ring ever routed to it — and that is
	// exactly what the hand-off must report moving.
	if h.Rows != int64(node2Direct) {
		t.Fatalf("handoff moved %d rows, ring accounting says the node held %d", h.Rows, node2Direct)
	}
	if len(resp.SourceUpdates) != 2 {
		t.Fatalf("source updates: %s", body)
	}
	for _, su := range resp.SourceUpdates {
		if su.Error != "" || len(su.Sources) != 2 {
			t.Fatalf("source update for %s: %s", su.Aggregator, body)
		}
	}
}
