package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/node"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/sketch"
	"repro/internal/wire"
	"repro/internal/words"
)

// testConfig is the daemon configuration the tests share: the given
// summary and shape on two shards, with the accuracy parameters
// remoteWriter builds its summaries with.
func testConfig(kind string, d, q int, seed uint64) node.Config {
	return node.Config{Summary: kind, D: d, Q: q, Eps: 0.25, Delta: 0.05, Alpha: 0.3, Seed: seed, Shards: 2}
}

// newNode boots a daemon through node.New and closes it with the test.
func newNode(t *testing.T, cfg node.Config) *node.Node {
	t.Helper()
	n, err := node.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// startNode serves a daemon booted from cfg on a loopback test server.
func startNode(t *testing.T, cfg node.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newNode(t, cfg))
	t.Cleanup(ts.Close)
	return ts
}

// startDaemon serves an in-memory daemon of the given summary and shape.
func startDaemon(t *testing.T, kind string, d, q int, seed uint64) *httptest.Server {
	t.Helper()
	return startNode(t, testConfig(kind, d, q, seed))
}

// observeRequest is the /v1/observe body as a client outside this
// module would marshal it; the daemon itself only ever decodes it with
// wire.ObserveDecoder.
type observeRequest struct {
	Rows [][]uint16 `json:"rows"`
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// remoteWriter builds a summary the same way the daemon's shard 0
// does, feeds it rows, and returns its wire form.
func remoteWriter(t *testing.T, kind string, d, q, n int, seed, streamSeed uint64) ([]byte, core.Summary) {
	t.Helper()
	sum, err := engine.StandardSummary(kind, d, q, 0.25, 0.05, 0.3, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := make(words.Word, d)
	for i := 0; i < n; i++ {
		for j := range w {
			w[j] = uint16((i + j + int(streamSeed)) % q)
		}
		sum.Observe(w)
	}
	blob, err := core.MarshalSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	return blob, sum
}

func TestDaemonObservePushQueryMatchesInProcessMerge(t *testing.T) {
	const d, q, seed = 6, 3, 11
	ts := startDaemon(t, "net", d, q, seed)

	// A reference summary follows every row the daemon sees, via the
	// in-process merge path, so the daemon's answers must match it
	// exactly (Net merges are exact for same-seed shards).
	ref, err := engine.StandardSummary("net", d, q, 0.25, 0.05, 0.3, seed, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Stream one batch of rows through /v1/observe.
	var obsRows [][]uint16
	w := make(words.Word, d)
	for i := 0; i < 400; i++ {
		for j := range w {
			w[j] = uint16((i * (j + 1)) % q)
		}
		obsRows = append(obsRows, append([]uint16{}, w...))
		ref.Observe(w)
	}
	resp, body := postJSON(t, ts.URL+"/v1/observe", observeRequest{Rows: obsRows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}

	// Push a remote writer's serialized summary.
	blob, remote := remoteWriter(t, "net", d, q, 300, seed, 5)
	resp2, err := http.Post(ts.URL+"/v1/push?source=writer", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	pushBody, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("push: %d %s", resp2.StatusCode, pushBody)
	}
	if err := ref.(core.Mergeable).Merge(remote); err != nil {
		t.Fatal(err)
	}

	// Batched queries against the daemon match the reference.
	cols := []int{0, 1, 2}
	c := words.MustColumnSet(d, cols...)
	wantF0, err := ref.(core.F0Querier).F0(c)
	if err != nil {
		t.Fatal(err)
	}
	wantF2, err := ref.(core.FpQuerier).Fp(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	resp3, qbody := postJSON(t, ts.URL+"/v1/query", node.QueryRequest{Queries: []node.QuerySpec{
		{Kind: "f0", Cols: cols},
		{Kind: "fp", Cols: cols, P: 2},
		{Kind: "f0", Cols: cols},
	}})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp3.StatusCode, qbody)
	}
	var qresp node.QueryResponse
	if err := json.Unmarshal(qbody, &qresp); err != nil {
		t.Fatal(err)
	}
	if len(qresp.Results) != 3 {
		t.Fatalf("got %d results", len(qresp.Results))
	}
	if qresp.Results[0].Value != wantF0 {
		t.Fatalf("daemon F0 %v != in-process merge %v", qresp.Results[0].Value, wantF0)
	}
	// F0 is exact (KMV union is order-independent); F2 sums p-stable
	// counters in shard order, so association differs at float
	// precision — same tolerance the engine's own merge tests use.
	if math.Abs(qresp.Results[1].Value-wantF2) > 1e-9*math.Abs(wantF2) {
		t.Fatalf("daemon F2 %v != in-process merge %v", qresp.Results[1].Value, wantF2)
	}

	// Stats reflect both ingestion paths: the row clock counts the
	// observed rows, the served epoch the pushed ones too.
	if stats := daemonStats(t, ts.URL); stats.Rows != 400 || stats.Epoch.MergedRows != 700 || stats.Dim != d || stats.Alphabet != q {
		t.Fatalf("stats %+v", stats)
	}
}

func TestDaemonSummaryExportRoundTrips(t *testing.T) {
	const d, q, seed = 5, 2, 3
	ts := startDaemon(t, "exact", d, q, seed)
	var rows [][]uint16
	for i := 0; i < 120; i++ {
		row := make([]uint16, d)
		for j := range row {
			row[j] = uint16((i >> j) % q)
		}
		rows = append(rows, row)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/observe", observeRequest{Rows: rows}); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: %d %s", resp.StatusCode, blob)
	}
	dec, err := core.UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rows() != 120 {
		t.Fatalf("exported snapshot has %d rows", dec.Rows())
	}
	cols := []int{0, 1, 2}
	resp2, body := postJSON(t, ts.URL+"/v1/query", node.QueryRequest{Queries: []node.QuerySpec{{Kind: "f0", Cols: cols}}})
	var qresp node.QueryResponse
	if err := json.Unmarshal(body, &qresp); resp2.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("query: %d %s", resp2.StatusCode, body)
	}
	gotF0, err := dec.(core.F0Querier).F0(words.MustColumnSet(d, cols...))
	if err != nil {
		t.Fatal(err)
	}
	if wantF0 := qresp.Results[0].Value; gotF0 != wantF0 {
		t.Fatalf("exported snapshot F0 %v != daemon %v", gotF0, wantF0)
	}
}

func TestDaemonRejectsBadInput(t *testing.T) {
	const d, q, seed = 5, 2, 3
	ts := startDaemon(t, "net", d, q, seed)

	// Corrupt push blob → 400.
	resp, err := http.Post(ts.URL+"/v1/push?source=writer", "application/octet-stream", bytes.NewReader([]byte("not a summary")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt push: %d", resp.StatusCode)
	}

	// Wrong-seed (incompatible) push → 409.
	blob, _ := remoteWriter(t, "net", d, q, 10, seed+1, 0)
	resp, err = http.Post(ts.URL+"/v1/push?source=writer", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("incompatible push: %d", resp.StatusCode)
	}

	// Malformed rows → 400, and nothing is ingested.
	if resp, _ := postJSON(t, ts.URL+"/v1/observe", observeRequest{Rows: [][]uint16{{0, 1}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short row: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/observe", observeRequest{Rows: [][]uint16{{0, 1, 0, 1, 9}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-alphabet row: %d", resp.StatusCode)
	}

	// Unknown query kind and bad columns → 400.
	if resp, _ := postJSON(t, ts.URL+"/v1/query", node.QueryRequest{Queries: []node.QuerySpec{{Kind: "median", Cols: []int{0}}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/query", node.QueryRequest{Queries: []node.QuerySpec{{Kind: "f0", Cols: []int{99}}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad columns: %d", resp.StatusCode)
	}

	// Per-query capability gaps surface in-band, not as HTTP errors.
	tsSample := startDaemon(t, "sample", d, q, seed)
	resp2, body := postJSON(t, tsSample.URL+"/v1/query", node.QueryRequest{Queries: []node.QuerySpec{{Kind: "f0", Cols: []int{0}}}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("capability gap must be 200: %d %s", resp2.StatusCode, body)
	}
	var qresp node.QueryResponse
	if err := json.Unmarshal(body, &qresp); err != nil {
		t.Fatal(err)
	}
	if !qresp.Results[0].Unsupported {
		t.Fatalf("sample F0 must be flagged unsupported: %+v", qresp.Results[0])
	}
}

func TestDaemonOversizedBodyReturns413(t *testing.T) {
	const d, q, seed = 5, 2, 3
	// The daemon's own bound is node.MaxBody (256 MiB); an outer
	// 64-byte MaxBytesHandler makes the same body-read failure cheap to
	// provoke.
	ts := httptest.NewServer(http.MaxBytesHandler(newNode(t, testConfig("exact", d, q, seed)), 64))
	t.Cleanup(ts.Close)

	var rows [][]uint16
	for i := 0; i < 64; i++ {
		rows = append(rows, make([]uint16, d))
	}
	resp, body := postJSON(t, ts.URL+"/v1/observe", observeRequest{Rows: rows})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized observe: %d %s", resp.StatusCode, body)
	}
	if rows := daemonStats(t, ts.URL).Rows; rows != 0 {
		t.Fatalf("oversized observe ingested %d rows", rows)
	}
	resp2, err := http.Post(ts.URL+"/v1/push?source=writer", "application/octet-stream", bytes.NewReader(make([]byte, 4096)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized push: %d", resp2.StatusCode)
	}
	// Within-limit requests still work.
	resp3, body3 := postJSON(t, ts.URL+"/v1/observe", observeRequest{Rows: [][]uint16{{0, 1, 0, 1, 0}}})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("small observe: %d %s", resp3.StatusCode, body3)
	}
}

func TestAbsorbKeepsEngineConsistent(t *testing.T) {
	// A push does not move the row clock, yet an export after it must
	// include the pushed rows even with no new observes since the last
	// epoch was cut.
	const d, q, seed = 5, 2, 3
	ts := startDaemon(t, "exact", d, q, seed)
	adminObserveRows(t, ts.URL, [][]uint16{make([]uint16, d)})
	if status, _, blob := condGet(t, ts.URL, ""); status != http.StatusOK || blobRows(t, blob) != 1 {
		t.Fatalf("export before the push: %d", status)
	}
	blob, _ := remoteWriter(t, "exact", d, q, 40, seed, 1)
	if resp, body := pushBlob(t, ts.URL, blob); resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %d %s", resp.StatusCode, body)
	}
	if _, _, snap := condGet(t, ts.URL, ""); blobRows(t, snap) != 41 {
		t.Fatalf("export rows %d, want 41", blobRows(t, snap))
	}
	// Absorbing an incompatible donor fails typed and changes nothing.
	other, err := core.NewExact(d+1, q)
	if err != nil {
		t.Fatal(err)
	}
	otherBlob, err := core.MarshalSummary(other)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := pushBlob(t, ts.URL, otherBlob); resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched push: %d %s", resp.StatusCode, body)
	}
	if _, _, snap := condGet(t, ts.URL, ""); blobRows(t, snap) != 41 {
		t.Fatalf("after a failed push the export holds %d rows, want 41", blobRows(t, snap))
	}
}

// TestDaemonSubspaceLifecycle drives the /v1/subspaces endpoints:
// register (kind omitted and named), list, planner-routed queries
// with the route reported in-band, and the conflict statuses for late
// or duplicate registrations.
func TestDaemonSubspaceLifecycle(t *testing.T) {
	const d, q, seed = 6, 3, 11
	ts := startDaemon(t, "exact", d, q, seed)

	// Register two sketch-backed subspaces: the kind omitted, then named.
	if resp, body := postJSON(t, ts.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{0, 1}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register default: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{2, 3, 4}, Summary: "registered"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register sketch: %d %s", resp.StatusCode, body)
	}
	// Duplicates conflict; bad columns and unknown kinds are bad requests.
	if resp, _ := postJSON(t, ts.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{1, 0}}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate subspace: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{99}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad columns: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{5}, Summary: "bogus"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown summary kind: %d", resp.StatusCode)
	}

	// The listing shows both, in registration order.
	resp, err := http.Get(ts.URL + "/v1/subspaces")
	if err != nil {
		t.Fatal(err)
	}
	var list node.SubspacesResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Subspaces) != 2 || list.Subspaces[0].Summary != "registered(1 subsets)" || list.Subspaces[1].Summary != "registered(1 subsets)" {
		t.Fatalf("listing %+v", list.Subspaces)
	}

	// Ingest rows; stats count the subspaces.
	var rows [][]uint16
	for i := 0; i < 300; i++ {
		row := make([]uint16, d)
		for j := range row {
			row[j] = uint16((i*(j+2) + 1) % q)
		}
		rows = append(rows, row)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/observe", observeRequest{Rows: rows}); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
	if stats := daemonStats(t, ts.URL); stats.Subspaces != 2 || stats.Rows != 300 {
		t.Fatalf("stats %+v", stats)
	}

	// Registration after ingestion conflicts.
	if resp, _ := postJSON(t, ts.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{5}}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("late registration: %d", resp.StatusCode)
	}

	// Queries report their route: F0 on a registered set exact-match,
	// full fallback for other sets and for classes the sketch cannot
	// serve.
	respQ, body := postJSON(t, ts.URL+"/v1/query", node.QueryRequest{Queries: []node.QuerySpec{
		{Kind: "f0", Cols: []int{0, 1}},
		{Kind: "f0", Cols: []int{2, 3, 4}},
		{Kind: "f0", Cols: []int{5}},
		{Kind: "freq", Cols: []int{2, 3, 4}, Pattern: []uint16{1, 1, 1}},
	}})
	if respQ.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", respQ.StatusCode, body)
	}
	var qresp node.QueryResponse
	if err := json.Unmarshal(body, &qresp); err != nil {
		t.Fatal(err)
	}
	wantRoutes := []string{"subspace{0,1}/6", "subspace{2,3,4}/6", "full", "full"}
	for i, want := range wantRoutes {
		if qresp.Results[i].Error != "" {
			t.Fatalf("query %d: %s", i, qresp.Results[i].Error)
		}
		if qresp.Results[i].Route != want {
			t.Fatalf("query %d routed %q, want %q", i, qresp.Results[i].Route, want)
		}
	}
	// Both sketch-backed subspaces answer within their (1±ε) bound.
	_, _, blob := condGet(t, ts.URL, "")
	truth, err := core.UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, cols := range [][]int{{0, 1}, {2, 3, 4}} {
		exact, err := truth.(*registry.Registry).Full().(core.F0Querier).F0(words.MustColumnSet(d, cols...))
		if err != nil {
			t.Fatal(err)
		}
		if got := qresp.Results[i].Value; exact == 0 || got < 0.7*exact || got > 1.3*exact {
			t.Fatalf("subspace-routed F0%v %v outside bounds of exact %v", cols, got, exact)
		}
	}

	// The exported blob is a whole registry that an identically
	// configured daemon absorbs; bare pushes now conflict.
	if reg, ok := truth.(*registry.Registry); !ok || reg.NumSubspaces() != 2 {
		t.Fatalf("exported %T", truth)
	}
	ts2 := startDaemon(t, "exact", d, q, seed)
	if resp, body := postJSON(t, ts2.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{0, 1}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("peer register: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts2.URL+"/v1/subspaces", node.RegisterSubspaceRequest{Cols: []int{2, 3, 4}, Summary: "registered"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("peer register: %d %s", resp.StatusCode, body)
	}
	respP, err := http.Post(ts2.URL+"/v1/push?source=writer", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	pushBody, _ := io.ReadAll(respP.Body)
	respP.Body.Close()
	if respP.StatusCode != http.StatusOK {
		t.Fatalf("registry push: %d %s", respP.StatusCode, pushBody)
	}
	if _, _, snap := condGet(t, ts2.URL, ""); blobRows(t, snap) != 300 {
		t.Fatalf("peer serves %d rows, want 300", blobRows(t, snap))
	}
	bare, _ := remoteWriter(t, "exact", d, q, 10, seed, 1)
	respBare, err := http.Post(ts2.URL+"/v1/push?source=writer", "application/octet-stream", bytes.NewReader(bare))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, respBare.Body)
	respBare.Body.Close()
	if respBare.StatusCode != http.StatusConflict {
		t.Fatalf("bare push into subspaced daemon: %d", respBare.StatusCode)
	}
}

// retiredSubsetBlob is a well-formed blob of wire kind 4, the retired
// C(d, t) subset-enumeration summary, laid out as its codec wrote one:
// d = t = 2, so a single empty KMV sketch under the enumeration's
// first seed draw.
func retiredSubsetBlob(t *testing.T) []byte {
	t.Helper()
	kmv, err := sketch.KMVForEpsilon(0.5, rng.New(1).Uint64()).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	payload := &wire.Writer{}
	payload.U32(2)   // t
	payload.F64(0.5) // ε
	payload.U32(1)   // C(2, 2) sketches
	payload.Block(kmv)
	w := &wire.Writer{}
	w.Raw([]byte("PFQS"))
	w.U8(core.WireVersion)
	w.U8(4) // kind
	w.U16(0)
	w.U32(2) // d
	w.U32(2) // q
	w.U64(1) // seed
	w.I64(0) // rows
	w.U32(uint32(len(payload.Bytes())))
	w.Raw(payload.Bytes())
	return w.Bytes()
}

// TestRetiredSubsetKindRefused: kind byte 4 stays reserved for the
// retired subset summary. Its blobs decode to ErrBadEncoding, and
// /v1/push refuses them as corrupt (400), not as incompatible.
func TestRetiredSubsetKindRefused(t *testing.T) {
	blob := retiredSubsetBlob(t)
	if sum, err := core.UnmarshalSummary(blob); !errors.Is(err, core.ErrBadEncoding) {
		t.Fatalf("kind-4 blob decoded to %v, %v; want ErrBadEncoding", sum, err)
	}
	ts := startDaemon(t, "exact", 2, 2, 1)
	resp, err := http.Post(ts.URL+"/v1/push?source=writer", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kind-4 push: %d, want 400", resp.StatusCode)
	}
}
