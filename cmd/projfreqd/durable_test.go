package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clustertest"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/node"
	"repro/internal/words"
)

// TestMain removes the binaries TestDaemonKillAndRecover builds.
func TestMain(m *testing.M) {
	code := m.Run()
	clustertest.CleanupBinaries()
	os.Exit(code)
}

// durableConfig is testConfig with a data directory (fsync never) and
// no automatic checkpoints, so only the admin endpoint and Close cut
// them.
func durableConfig(dir, kind string, d, q int, seed uint64) node.Config {
	cfg := testConfig(kind, d, q, seed)
	cfg.DataDir, cfg.Fsync = dir, "never"
	return cfg
}

// getBlob GETs a URL and returns status and body.
func getBlob(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestDurableDaemonRecoversAllMutationKinds drives every durable
// mutation through HTTP — subspace registrations, observed batches,
// a pushed summary, an admin checkpoint mid-stream — then reopens the
// directory in a fresh daemon and checks the recovered state answers
// byte-identically.
func TestDurableDaemonRecoversAllMutationKinds(t *testing.T) {
	const d, q, seed = 5, 3, 11
	dir := t.TempDir()
	ts := startNode(t, durableConfig(dir, "exact", d, q, seed))

	// Register subspaces before ingestion (one survives via the WAL
	// only, one via checkpoint metadata after the admin checkpoint).
	if resp, body := postJSON(t, ts.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{0, 1}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{2, 3}, Summary: "registered"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	rows := func(salt, n int) [][]uint16 {
		out := make([][]uint16, n)
		for i := range out {
			row := make([]uint16, d)
			for j := range row {
				row[j] = uint16((i*salt + j) % q)
			}
			out[i] = row
		}
		return out
	}
	if resp, body := postJSON(t, ts.URL+"/v1/observe", observeRequest{Rows: rows(3, 40)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
	// Checkpoint mid-stream, then keep mutating: recovery must combine
	// the checkpoint with the WAL tail.
	if status, body := func() (int, []byte) {
		resp, err := http.Post(ts.URL+"/v1/admin/checkpoint", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}(); status != http.StatusOK {
		t.Fatalf("admin checkpoint: %d %s", status, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/observe", observeRequest{Rows: rows(7, 25)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
	// A push: the daemon exports a registry blob, so the donor must be
	// a matching registry — easiest is another daemon with the same
	// registrations.
	tsDonor := startDaemon(t, "exact", d, q, seed)
	if resp, body := postJSON(t, tsDonor.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{0, 1}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("donor register: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, tsDonor.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{2, 3}, Summary: "registered"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("donor register: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, tsDonor.URL+"/v1/observe", observeRequest{Rows: rows(5, 15)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("donor observe: %d %s", resp.StatusCode, body)
	}
	status, donorBlob := getBlob(t, tsDonor.URL+"/v1/summary")
	if status != http.StatusOK {
		t.Fatalf("donor summary: %d", status)
	}
	respPush, err := http.Post(ts.URL+"/v1/push?source=donor", "application/octet-stream", bytes.NewReader(donorBlob))
	if err != nil {
		t.Fatal(err)
	}
	pushBody, _ := io.ReadAll(respPush.Body)
	respPush.Body.Close()
	if respPush.StatusCode != http.StatusOK {
		t.Fatalf("push: %d %s", respPush.StatusCode, pushBody)
	}

	status, want := getBlob(t, ts.URL+"/v1/summary")
	if status != http.StatusOK {
		t.Fatal("summary failed")
	}
	statsBefore := daemonStats(t, ts.URL)
	if statsBefore.Store == nil || statsBefore.Store.Checkpoints == 0 || statsBefore.Store.CheckpointLSN == 0 {
		t.Fatalf("store stats missing: %+v", statsBefore.Store)
	}
	if statsBefore.Rows != 65 || statsBefore.Epoch.MergedRows != 80 {
		t.Fatalf("rows %d, %d served, want 65 and 80", statsBefore.Rows, statsBefore.Epoch.MergedRows)
	}

	// "Crash": stop serving without closing the daemon (no shutdown
	// checkpoint), then recover a fresh one over the same directory.
	ts.CloseClientConnections()
	ts.Close()

	ts2 := startNode(t, durableConfig(dir, "exact", d, q, seed))
	if st := daemonStats(t, ts2.URL); st.Rows != 65 || st.Epoch.MergedRows != 80 || st.Subspaces != 2 {
		t.Fatalf("recovered %d rows (%d served) and %d subspaces, want 65 (80) and 2", st.Rows, st.Epoch.MergedRows, st.Subspaces)
	}
	status, got := getBlob(t, ts2.URL+"/v1/summary")
	if status != http.StatusOK {
		t.Fatal("recovered summary failed")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered summary blob differs: %d vs %d bytes", len(got), len(want))
	}
	// Every query class still answers identically through the planner.
	respQ, qbody := postJSON(t, ts2.URL+"/v1/query", node.QueryRequest{Queries: []node.QuerySpec{
		{Kind: "f0", Cols: []int{0, 1}},
		{Kind: "f0", Cols: []int{2, 3}},
		{Kind: "freq", Cols: []int{0, 4}, Pattern: []uint16{1, 2}},
		{Kind: "fp", Cols: []int{1, 2}, P: 2},
	}})
	if respQ.StatusCode != http.StatusOK {
		t.Fatalf("recovered query: %d %s", respQ.StatusCode, qbody)
	}
	var qresp node.QueryResponse
	if err := json.Unmarshal(qbody, &qresp); err != nil {
		t.Fatal(err)
	}
	for i, res := range qresp.Results {
		if res.Error != "" {
			t.Fatalf("recovered query %d: %s", i, res.Error)
		}
	}
	if qresp.Results[0].Route != "subspace{0,1}/5" {
		t.Fatalf("recovered subspace not routed: %+v", qresp.Results[0])
	}
	// Registration after recovery stays refused — the absorb/row
	// clocks were restored.
	if resp, _ := postJSON(t, ts2.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{4}}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("late registration after recovery: %d", resp.StatusCode)
	}
}

func TestSummaryETagSkipsRemarshal(t *testing.T) {
	const d, q, seed = 5, 2, 3
	ts := startDaemon(t, "exact", d, q, seed)
	if resp, body := postJSON(t, ts.URL+"/v1/observe", observeRequest{Rows: [][]uint16{{0, 1, 0, 1, 0}, {1, 1, 1, 1, 1}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	tag := resp.Header.Get("ETag")
	if tag == "" || len(blob) == 0 {
		t.Fatalf("first GET: tag %q, %d bytes", tag, len(blob))
	}

	// Repeat GET with no new rows: 304, no body, same tag.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/summary", nil)
	req.Header.Set("If-None-Match", tag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified || len(body2) != 0 {
		t.Fatalf("conditional GET: %d, %d bytes", resp2.StatusCode, len(body2))
	}
	if resp2.Header.Get("ETag") != tag {
		t.Fatalf("304 tag %q != %q", resp2.Header.Get("ETag"), tag)
	}
	// The weak/list forms match too.
	req3, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/summary", nil)
	req3.Header.Set("If-None-Match", `"other", W/`+tag)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("list-form conditional GET: %d", resp3.StatusCode)
	}

	// New rows invalidate the tag: the same If-None-Match now yields a
	// fresh 200 with a different tag.
	if resp, body := postJSON(t, ts.URL+"/v1/observe", observeRequest{Rows: [][]uint16{{1, 0, 1, 0, 1}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
	req4, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/summary", nil)
	req4.Header.Set("If-None-Match", tag)
	resp4, err := http.DefaultClient.Do(req4)
	if err != nil {
		t.Fatal(err)
	}
	blob4, _ := io.ReadAll(resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK || len(blob4) == 0 {
		t.Fatalf("post-ingest conditional GET: %d, %d bytes", resp4.StatusCode, len(blob4))
	}
	if resp4.Header.Get("ETag") == tag {
		t.Fatal("tag did not change with new rows")
	}
	dec, err := core.UnmarshalSummary(blob4)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rows() != 3 {
		t.Fatalf("fresh blob has %d rows", dec.Rows())
	}
}

func TestAdminCheckpointWithoutDataDirConflicts(t *testing.T) {
	ts := startDaemon(t, "exact", 5, 2, 3)
	resp, err := http.Post(ts.URL+"/v1/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint without -data-dir: %d", resp.StatusCode)
	}
}

// --- kill -9 and recover ---

// killBatch builds the deterministic i-th batch of the kill test.
func killBatch(i int) [][]uint16 {
	const d, q, rows = 5, 3, 10
	out := make([][]uint16, rows)
	for r := range out {
		row := make([]uint16, d)
		for j := range row {
			row[j] = uint16((i*rows + r + j*(i+1)) % q)
		}
		out[r] = row
	}
	return out
}

// TestDaemonKillAndRecover is the crash-recovery property test the
// subsystem is pinned by: a real projfreqd process (the built binary,
// spawned through clustertest on a portfile-announced port) ingests
// batches with
// -fsync always, takes a mid-stream checkpoint, is SIGKILLed while
// writes are in flight, gets its WAL tail torn for good measure, and
// restarts — after which it must serve exactly some prefix of the
// stream: every acknowledged batch present, whole batches only, and
// the exported summary byte-identical to an uninterrupted engine fed
// the same prefix.
func TestDaemonKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	dir := t.TempDir()
	daemon := clustertest.NewNode(t, "projfreqd", filepath.Join(clustertest.EnsureBinaries(t), "projfreqd"),
		"-summary", "exact", "-d", "5", "-q", "3", "-shards", "2", "-data-dir", dir, "-fsync", "always",
		"-checkpoint-rows", "0", "-checkpoint-interval", "0")
	daemon.Start(t)
	url := daemon.URL()

	var acked atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			blob, err := json.Marshal(observeRequest{Rows: killBatch(i)})
			if err != nil {
				return
			}
			resp, err := http.Post(url+"/v1/observe", "application/json", bytes.NewReader(blob))
			if err != nil {
				return // the kill landed
			}
			ok := resp.StatusCode == http.StatusOK
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if !ok {
				return
			}
			acked.Add(1)
		}
	}()

	// Cut a checkpoint once the stream is rolling, then let it roll on.
	for acked.Load() < 8 {
		time.Sleep(5 * time.Millisecond)
	}
	respC, err := http.Post(url+"/v1/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, respC.Body)
	respC.Body.Close()
	if respC.StatusCode != http.StatusOK {
		t.Fatalf("mid-stream checkpoint: %d", respC.StatusCode)
	}
	for acked.Load() < 20 {
		time.Sleep(5 * time.Millisecond)
	}
	// kill -9, mid-stream: no drain, no shutdown checkpoint.
	daemon.Kill(t)
	<-done
	ackedBatches := acked.Load()

	// Tear the WAL tail the way a crash mid-append would: recovery
	// must shrug it off.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x99, 0x01, 0x00, 0x00, 0x00, 0xaa}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	daemon.Restart(t)
	stats := daemonStats(t, url)
	const batchRows = 10
	if stats.Rows%batchRows != 0 {
		t.Fatalf("recovered %d rows: not whole batches", stats.Rows)
	}
	k := stats.Rows / batchRows
	if k < ackedBatches {
		t.Fatalf("recovered %d batches, %d were acknowledged with -fsync always", k, ackedBatches)
	}
	if k > ackedBatches+1 {
		t.Fatalf("recovered %d batches, only %d were ever sent", k, ackedBatches+1)
	}

	status, got := getBlob(t, url+"/v1/summary")
	if status != http.StatusOK {
		t.Fatal("recovered summary failed")
	}
	// The uninterrupted reference: the same engine configuration fed
	// the same accepted prefix, in process.
	ref, err := engine.NewSharded(func(shard int) (core.Summary, error) {
		return engine.StandardSummary("exact", 5, 3, 0.05, 0.01, 0.3, 1, shard)
	}, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := int64(0); i < k; i++ {
		b := words.NewBatch(5, batchRows)
		for _, row := range killBatch(int(i)) {
			b.Append(words.Word(row))
		}
		ref.ObserveBatch(b)
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered summary differs from clean run over the same %d batches (%d vs %d bytes)", k, len(got), len(want))
	}
}

// TestWideDaemonSubspaceRegistration: at d = 70 no subspace can be
// provisioned (core.Registered looks subsets up by a 64-bit column
// mask), so an in-memory and a durable daemon both answer 400 to a
// registration, naming the limit, and keep ingesting and answering
// from the catch-all.
func TestWideDaemonSubspaceRegistration(t *testing.T) {
	const d, q, seed = 70, 2, 3
	for _, daemon := range []struct {
		name, url string
	}{
		{"in-memory", startDaemon(t, "exact", d, q, seed).URL},
		{"durable", startNode(t, durableConfig(t.TempDir(), "exact", d, q, seed)).URL},
	} {
		resp, body := postJSON(t, daemon.url+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{0, 69}})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "64 columns") {
			t.Fatalf("%s wide registration: %d %s", daemon.name, resp.StatusCode, body)
		}
		if resp, body := postJSON(t, daemon.url+"/v1/observe", observeRequest{Rows: [][]uint16{make([]uint16, d)}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s observe: %d %s", daemon.name, resp.StatusCode, body)
		}
		resp, body = postJSON(t, daemon.url+"/v1/query", node.QueryRequest{Queries: []node.QuerySpec{{Kind: "f0", Cols: []int{0, 69}}}})
		var qr node.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s query: %d %s", daemon.name, resp.StatusCode, body)
		}
		if r := qr.Results[0]; r.Error != "" || r.Value != 1 || r.Route != "full" {
			t.Fatalf("%s f0 after a refused registration: %+v", daemon.name, r)
		}
	}
}

// TestSIGTERMReleasesHeldSummaryGET: a /v1/summary long-poll must not
// hold up shutdown. Serve releases every hold as its drain starts, so
// a daemon with a 30s hold in flight exits on SIGTERM at once, and the
// held client gets its answer (304: nothing changed) instead of a
// severed connection.
func TestSIGTERMReleasesHeldSummaryGET(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real daemon process")
	}
	daemon := clustertest.NewNode(t, "projfreqd", filepath.Join(clustertest.EnsureBinaries(t), "projfreqd"),
		"-summary", "exact", "-d", "4", "-q", "3", "-shards", "2")
	daemon.Start(t)
	resp, err := http.Get(daemon.URL() + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodGet, daemon.URL()+"/v1/summary?wait=30s", nil)
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	status := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let the GET reach its hold
	if took := daemon.Term(t, 5*time.Second); took > 2*time.Second {
		t.Fatalf("SIGTERM with a 30s hold in flight took %v to exit", took)
	}
	if got := <-status; got != http.StatusNotModified {
		t.Fatalf("the held GET answered %d, want 304", got)
	}
}
