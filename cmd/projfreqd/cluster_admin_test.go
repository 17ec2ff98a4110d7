package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/store"
)

// adminObserveRows feeds rows to a daemon over the wire.
func adminObserveRows(t *testing.T, url string, rows [][]uint16) {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/observe", observeRequest{Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
}

// queryFreq asks one daemon for a full-projection point frequency.
func queryFreq(t *testing.T, url string, pattern []uint16) float64 {
	t.Helper()
	cols := make([]int, len(pattern))
	for i := range cols {
		cols[i] = i
	}
	resp, body := postJSON(t, url+"/v1/query", node.QueryRequest{Queries: []node.QuerySpec{
		{Kind: "freq", Cols: cols, Pattern: pattern},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var out node.QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Error != "" {
		t.Fatalf("query results: %s", body)
	}
	return out.Results[0].Value
}

// daemonStats fetches and decodes /v1/stats.
func daemonStats(t *testing.T, url string) node.Stats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st node.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitFreq polls one daemon until its full-projection frequency of
// pattern reaches want.
func waitFreq(t *testing.T, url string, pattern []uint16, want float64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for queryFreq(t, url, pattern) != want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdminHandoffAbsorbsPeer drives the ingest half of a membership
// change: a successor told to absorb a departing peer serves the
// peer's rows from its own engine, re-issuing the hand-off replaces
// rather than double-counts, and the hand-off is listed on stats for
// the orchestrator to verify.
func TestAdminHandoffAbsorbsPeer(t *testing.T) {
	const d, q, seed = 4, 3, 7
	peer := startDaemon(t, "exact", d, q, seed)
	succ := startDaemon(t, "exact", d, q, seed)

	row := []uint16{1, 2, 0, 1}
	adminObserveRows(t, peer.URL, [][]uint16{row, row, row})
	adminObserveRows(t, succ.URL, [][]uint16{row})

	resp, body := postJSON(t, succ.URL+"/v1/admin/handoff", node.HandoffRequest{Source: peer.URL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff: %d %s", resp.StatusCode, body)
	}
	var ack node.HandoffResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Source != peer.URL || ack.Rows != 3 || ack.ETag == "" {
		t.Fatalf("handoff ack: %+v", ack)
	}
	if got := queryFreq(t, succ.URL, row); got != 4 {
		t.Fatalf("successor serves %v, want 1 local + 3 handed off = 4", got)
	}

	// The peer keeps ingesting before decommission; re-issuing the
	// hand-off replaces the absorbed snapshot (4 peer rows, not 3+4).
	adminObserveRows(t, peer.URL, [][]uint16{row})
	resp, body = postJSON(t, succ.URL+"/v1/admin/handoff", node.HandoffRequest{Source: peer.URL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-handoff: %d %s", resp.StatusCode, body)
	}
	if got := queryFreq(t, succ.URL, row); got != 5 {
		t.Fatalf("successor serves %v after re-handoff, want 5 (replace, not accumulate)", got)
	}

	// Stats surface the hand-off so an orchestrator can verify before
	// decommissioning the peer.
	st := daemonStats(t, succ.URL)
	if st.Cluster == nil || len(st.Cluster.Handoffs) != 1 || st.Cluster.Handoffs[0].URL != peer.URL {
		t.Fatalf("stats cluster block: %+v", st.Cluster)
	}
	if st.Cluster.Handoffs[0].Rows != 4 {
		t.Fatalf("handoff stats rows: %+v", st.Cluster.Handoffs[0])
	}

	// An unreachable peer is a retryable 502, and nothing is recorded.
	gone := httptest.NewServer(http.NotFoundHandler())
	goneURL := gone.URL
	gone.Close()
	resp, _ = postJSON(t, succ.URL+"/v1/admin/handoff", node.HandoffRequest{Source: goneURL})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("handoff from dead peer: %d, want 502", resp.StatusCode)
	}
	if st := daemonStats(t, succ.URL); len(st.Cluster.Handoffs) != 1 {
		t.Fatalf("failed handoff recorded: %+v", st.Cluster.Handoffs)
	}

	// Refusals: empty and malformed sources.
	resp, _ = postJSON(t, succ.URL+"/v1/admin/handoff", node.HandoffRequest{Source: "  "})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("blank source: %d, want 400", resp.StatusCode)
	}
}

// TestAdminSourcesRetargetsAggregator drives the aggregator half: the
// pull set changes at runtime and removing a source also drops its
// absorbed rows from served answers.
func TestAdminSourcesRetargetsAggregator(t *testing.T) {
	const d, q, seed = 4, 3, 7
	src1 := startDaemon(t, "exact", d, q, seed)
	// src2 refuses summary exports until the test opens it, so the
	// aggregator provably cannot hold its rows before the swap below.
	var src2Open atomic.Bool
	src2Node := newNode(t, testConfig("exact", d, q, seed))
	src2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/summary" && !src2Open.Load() {
			http.Error(w, "not open yet", http.StatusServiceUnavailable)
			return
		}
		src2Node.ServeHTTP(w, r)
	}))
	t.Cleanup(src2.Close)
	row := []uint16{0, 1, 2, 0}
	adminObserveRows(t, src1.URL, [][]uint16{row, row})
	adminObserveRows(t, src2.URL, [][]uint16{row, row, row})

	// An aggregator is a daemon with pull sources: src1 only, for now.
	cfg := testConfig("exact", d, q, seed)
	cfg.PullFrom, cfg.PullInterval, cfg.PullTimeout = []string{src1.URL}, 10*time.Millisecond, time.Second
	agg := startNode(t, cfg)
	waitFreq(t, agg.URL, row, 2, "the aggregator to serve src1's 2 rows")

	// Swap src1 for src2: src1's absorbed rows disappear with it.
	resp, body := postJSON(t, agg.URL+"/v1/admin/sources", node.SourcesRequest{
		Add:    []string{src2.URL},
		Remove: []string{src1.URL},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sources update: %d %s", resp.StatusCode, body)
	}
	var ack node.SourcesResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if len(ack.Sources) != 1 || ack.Sources[0] != src2.URL ||
		len(ack.Removed) != 1 || ack.Removed[0] != src1.URL {
		t.Fatalf("sources ack: %+v", ack)
	}
	if got := queryFreq(t, agg.URL, row); got != 0 {
		t.Fatalf("aggregator serves %v right after removal, want 0 (src2 not pulled yet)", got)
	}
	src2Open.Store(true)
	waitFreq(t, agg.URL, row, 3, "the aggregator to serve src2's 3 rows")

	// Refusals: empty update, and the endpoint on a non-aggregator.
	resp, _ = postJSON(t, agg.URL+"/v1/admin/sources", node.SourcesRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty update: %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, src1.URL+"/v1/admin/sources", node.SourcesRequest{Add: []string{src2.URL}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("sources update on ingest daemon: %d, want 409", resp.StatusCode)
	}
}

// TestAdminHandoffDurable: on a durable successor a hand-off is as
// durable as a push. A successor that took a push and a hand-off, with
// the departed peer gone, serves the same /v1/summary blob after
// recovering a copy of its data directory taken while it ran (its WAL
// replays the source records) and after a restart that closed it
// (a shutdown checkpoint carries the source table).
func TestAdminHandoffDurable(t *testing.T) {
	const d, q, seed = 4, 3, 7
	peerNode := newNode(t, testConfig("exact", d, q, seed))
	peer := httptest.NewServer(peerNode)
	dir := t.TempDir()
	succNode := newNode(t, durableConfig(dir, "exact", d, q, seed))
	succ := httptest.NewServer(succNode)
	t.Cleanup(succ.Close)

	row := []uint16{1, 2, 0, 1}
	adminObserveRows(t, peer.URL, [][]uint16{row, row, row})
	adminObserveRows(t, succ.URL, [][]uint16{row, {0, 0, 1, 2}})
	blob, _ := remoteWriter(t, "exact", d, q, 9, seed, 2)
	if resp, body := pushAs(t, succ.URL, "h:/data/w.csv", blob); resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, succ.URL+"/v1/admin/handoff", node.HandoffRequest{Source: peer.URL}); resp.StatusCode != http.StatusOK {
		t.Fatalf("handoff: %d %s", resp.StatusCode, body)
	}
	peer.Close()
	peerNode.Close()
	status, want := getBlob(t, succ.URL+"/v1/summary")
	if status != http.StatusOK || blobRows(t, want) != 2+9+3 {
		t.Fatalf("successor export: %d, %d rows", status, blobRows(t, want))
	}

	// served boots a daemon on a data directory and returns the blob
	// it exports.
	served := func(dir string) []byte {
		t.Helper()
		n := newNode(t, durableConfig(dir, "exact", d, q, seed))
		ts := httptest.NewServer(n)
		defer n.Close()
		defer ts.Close()
		status, got := getBlob(t, ts.URL+"/v1/summary")
		if status != http.StatusOK {
			t.Fatalf("recovered export: %d", status)
		}
		return got
	}

	// A copy taken while the successor runs holds no checkpoint: the
	// push and the hand-off come back from their WAL records.
	live := t.TempDir()
	if err := os.CopyFS(live, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	if rep, err := store.Inspect(live); err != nil || len(rep.Checkpoints) != 0 {
		t.Fatalf("live copy: %v, %+v", err, rep)
	}
	if got := served(live); !bytes.Equal(got, want) {
		t.Fatalf("the WAL replay serves %d bytes, unlike the %d the successor served", len(got), len(want))
	}

	// Closing cuts a checkpoint at the log end, so the restart reads
	// both sources from its table and replays nothing.
	succ.Close()
	succNode.Close()
	rep, err := store.Inspect(dir)
	if err != nil || len(rep.Checkpoints) == 0 || rep.Checkpoints[len(rep.Checkpoints)-1].Sources != 2 {
		t.Fatalf("after shutdown: %v, %+v", err, rep)
	}
	if got := served(dir); !bytes.Equal(got, want) {
		t.Fatalf("the restart serves %d bytes, unlike the %d the successor served", len(got), len(want))
	}
}
