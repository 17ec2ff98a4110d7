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
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/sketch"
	"repro/internal/wire"
	"repro/internal/words"
)

// startDaemon spins up a test server over a fresh net-summary engine.
func startDaemon(t *testing.T, kind string, d, q int, seed uint64) (*httptest.Server, *engine.Sharded) {
	t.Helper()
	eng, err := engine.NewSharded(func(shard int) (core.Summary, error) {
		return buildSummary(kind, d, q, 0.25, 0.05, 0.3, seed, shard)
	}, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, standardSubspaceBuilder(kind, d, q, 0.25, 0.05, 0.3, seed)))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts, eng
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
	sum, err := buildSummary(kind, d, q, 0.25, 0.05, 0.3, seed, 0)
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
	ts, _ := startDaemon(t, "net", d, q, seed)

	// A reference summary follows every row the daemon sees, via the
	// in-process merge path, so the daemon's answers must match it
	// exactly (Net merges are exact for same-seed shards).
	ref, err := buildSummary("net", d, q, 0.25, 0.05, 0.3, seed, 0)
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
	resp2, err := http.Post(ts.URL+"/v1/push", "application/octet-stream", bytes.NewReader(blob))
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
	resp3, qbody := postJSON(t, ts.URL+"/v1/query", queryRequest{Queries: []querySpec{
		{Kind: "f0", Cols: cols},
		{Kind: "fp", Cols: cols, P: 2},
		{Kind: "f0", Cols: cols},
	}})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp3.StatusCode, qbody)
	}
	var qresp queryResponse
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

	// Stats reflect both ingestion paths.
	resp4, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp4.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if stats.Rows != 700 || stats.Dim != d || stats.Alphabet != q {
		t.Fatalf("stats %+v", stats)
	}
}

func TestDaemonSummaryExportRoundTrips(t *testing.T) {
	const d, q, seed = 5, 2, 3
	ts, eng := startDaemon(t, "exact", d, q, seed)
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
	c := words.MustColumnSet(d, 0, 1, 2)
	wantF0, err := eng.F0(c)
	if err != nil {
		t.Fatal(err)
	}
	gotF0, err := dec.(core.F0Querier).F0(c)
	if err != nil {
		t.Fatal(err)
	}
	if gotF0 != wantF0 {
		t.Fatalf("exported snapshot F0 %v != engine %v", gotF0, wantF0)
	}
}

func TestDaemonRejectsBadInput(t *testing.T) {
	const d, q, seed = 5, 2, 3
	ts, _ := startDaemon(t, "net", d, q, seed)

	// Corrupt push blob → 400.
	resp, err := http.Post(ts.URL+"/v1/push", "application/octet-stream", bytes.NewReader([]byte("not a summary")))
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
	resp, err = http.Post(ts.URL+"/v1/push", "application/octet-stream", bytes.NewReader(blob))
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
	if resp, _ := postJSON(t, ts.URL+"/v1/query", queryRequest{Queries: []querySpec{{Kind: "median", Cols: []int{0}}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/query", queryRequest{Queries: []querySpec{{Kind: "f0", Cols: []int{99}}}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad columns: %d", resp.StatusCode)
	}

	// Per-query capability gaps surface in-band, not as HTTP errors.
	tsSample, _ := startDaemon(t, "sample", d, q, seed)
	resp2, body := postJSON(t, tsSample.URL+"/v1/query", queryRequest{Queries: []querySpec{{Kind: "f0", Cols: []int{0}}}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("capability gap must be 200: %d %s", resp2.StatusCode, body)
	}
	var qresp queryResponse
	if err := json.Unmarshal(body, &qresp); err != nil {
		t.Fatal(err)
	}
	if !qresp.Results[0].Unsupported {
		t.Fatalf("sample F0 must be flagged unsupported: %+v", qresp.Results[0])
	}
}

func TestDaemonOversizedBodyReturns413(t *testing.T) {
	const d, q, seed = 5, 2, 3
	eng, err := engine.NewSharded(func(shard int) (core.Summary, error) {
		return buildSummary("exact", d, q, 0.25, 0.05, 0.3, seed, shard)
	}, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, standardSubspaceBuilder("exact", d, q, 0.25, 0.05, 0.3, seed))
	srv.maxBody = 64
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})

	var rows [][]uint16
	for i := 0; i < 64; i++ {
		rows = append(rows, make([]uint16, d))
	}
	resp, body := postJSON(t, ts.URL+"/v1/observe", observeRequest{Rows: rows})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized observe: %d %s", resp.StatusCode, body)
	}
	if eng.Rows() != 0 {
		t.Fatalf("oversized observe ingested %d rows", eng.Rows())
	}
	resp2, err := http.Post(ts.URL+"/v1/push", "application/octet-stream", bytes.NewReader(make([]byte, 4096)))
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
	// Absorb's staleness-clock bookkeeping: a snapshot taken after a
	// push must include the pushed rows even with no new Observe calls.
	const d, q, seed = 5, 2, 3
	eng, err := engine.NewSharded(func(shard int) (core.Summary, error) {
		return buildSummary("exact", d, q, 0.25, 0.05, 0.3, seed, shard)
	}, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Observe(make(words.Word, d))
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	blob, _ := remoteWriter(t, "exact", d, q, 40, seed, 1)
	dec, err := core.UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Absorb(dec); err != nil {
		t.Fatal(err)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Rows() != 41 {
		t.Fatalf("snapshot rows %d, want 41", snap.Rows())
	}
	// Absorbing an incompatible donor fails typed and changes nothing.
	other, err := core.NewExact(d+1, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Absorb(other); !errors.Is(err, core.ErrIncompatibleMerge) {
		t.Fatalf("mismatched absorb: %v", err)
	}
	if eng.Rows() != 41 {
		t.Fatalf("failed absorb advanced the row clock to %d", eng.Rows())
	}
}

// TestDaemonSubspaceLifecycle drives the /v1/subspaces endpoints:
// register (mirror + registered kinds), list, planner-routed queries
// with the route reported in-band, and the conflict statuses for late
// or duplicate registrations.
func TestDaemonSubspaceLifecycle(t *testing.T) {
	const d, q, seed = 6, 3, 11
	ts, eng := startDaemon(t, "exact", d, q, seed)

	// Register one mirror and one sketch-backed subspace.
	if resp, body := postJSON(t, ts.URL+"/v1/subspaces", registerSubspaceRequest{Cols: []int{0, 1}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register mirror: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/subspaces", registerSubspaceRequest{Cols: []int{2, 3, 4}, Summary: "registered"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("register sketch: %d %s", resp.StatusCode, body)
	}
	// Duplicates conflict; bad columns and unknown kinds are bad requests.
	if resp, _ := postJSON(t, ts.URL+"/v1/subspaces", registerSubspaceRequest{Cols: []int{1, 0}}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate subspace: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/subspaces", registerSubspaceRequest{Cols: []int{99}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad columns: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/subspaces", registerSubspaceRequest{Cols: []int{5}, Summary: "bogus"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown summary kind: %d", resp.StatusCode)
	}

	// The listing shows both, in registration order.
	resp, err := http.Get(ts.URL + "/v1/subspaces")
	if err != nil {
		t.Fatal(err)
	}
	var list subspacesResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Subspaces) != 2 || list.Subspaces[0].Summary != "exact" || list.Subspaces[1].Summary != "registered(1 subsets)" {
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
	var stats statsResponse
	respS, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(respS.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	respS.Body.Close()
	if stats.Subspaces != 2 || stats.Rows != 300 {
		t.Fatalf("stats %+v", stats)
	}

	// Registration after ingestion conflicts.
	if resp, _ := postJSON(t, ts.URL+"/v1/subspaces", registerSubspaceRequest{Cols: []int{5}}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("late registration: %d", resp.StatusCode)
	}

	// Queries report their route: mirror exact-match, covering via the
	// sketch subspace's F0, full fallback for uncovered sets and for
	// classes the sketch cannot serve.
	respQ, body := postJSON(t, ts.URL+"/v1/query", queryRequest{Queries: []querySpec{
		{Kind: "f0", Cols: []int{0, 1}},
		{Kind: "f0", Cols: []int{2, 3, 4}},
		{Kind: "f0", Cols: []int{5}},
		{Kind: "freq", Cols: []int{2, 3, 4}, Pattern: []uint16{1, 1, 1}},
	}})
	if respQ.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", respQ.StatusCode, body)
	}
	var qresp queryResponse
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
	// The mirror's answer matches the catch-all exactly.
	truth, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantF0, err := truth.(*registry.Registry).Full().(core.F0Querier).F0(words.MustColumnSet(d, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if wantF0 == 0 || qresp.Results[0].Value != wantF0 {
		t.Fatalf("mirror-routed F0 %v != catch-all %v", qresp.Results[0].Value, wantF0)
	}
	// The sketch-backed subspace answers within its (1±ε) bound.
	sketchTruth, err := truth.(*registry.Registry).Full().(core.F0Querier).F0(words.MustColumnSet(d, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if sketchTruth == 0 || qresp.Results[1].Value < 0.7*sketchTruth || qresp.Results[1].Value > 1.3*sketchTruth {
		t.Fatalf("sketch-routed F0 %v outside bounds of exact %v", qresp.Results[1].Value, sketchTruth)
	}

	// The exported blob is a whole registry that an identically
	// configured daemon absorbs; bare pushes now conflict.
	respB, err := http.Get(ts.URL + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(respB.Body)
	respB.Body.Close()
	dec, err := core.UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if reg, ok := dec.(*registry.Registry); !ok || reg.NumSubspaces() != 2 {
		t.Fatalf("exported %T", dec)
	}
	ts2, eng2 := startDaemon(t, "exact", d, q, seed)
	if resp, body := postJSON(t, ts2.URL+"/v1/subspaces", registerSubspaceRequest{Cols: []int{0, 1}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("peer register: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts2.URL+"/v1/subspaces", registerSubspaceRequest{Cols: []int{2, 3, 4}, Summary: "registered"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("peer register: %d %s", resp.StatusCode, body)
	}
	respP, err := http.Post(ts2.URL+"/v1/push", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	pushBody, _ := io.ReadAll(respP.Body)
	respP.Body.Close()
	if respP.StatusCode != http.StatusOK {
		t.Fatalf("registry push: %d %s", respP.StatusCode, pushBody)
	}
	if eng2.Rows() != 300 {
		t.Fatalf("peer rows %d", eng2.Rows())
	}
	bare, _ := remoteWriter(t, "exact", d, q, 10, seed, 1)
	respBare, err := http.Post(ts2.URL+"/v1/push", "application/octet-stream", bytes.NewReader(bare))
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
	ts, _ := startDaemon(t, "exact", 2, 2, 1)
	resp, err := http.Post(ts.URL+"/v1/push", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kind-4 push: %d, want 400", resp.StatusCode)
	}
}
