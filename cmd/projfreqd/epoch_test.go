package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/node"
	"repro/internal/words"
)

// observeRows streams n deterministic rows through /v1/observe.
func observeRows(t *testing.T, url string, d, q, n, salt int) {
	t.Helper()
	var rows [][]uint16
	w := make(words.Word, d)
	for i := 0; i < n; i++ {
		for j := range w {
			w[j] = uint16((i*(j+1) + salt) % q)
		}
		rows = append(rows, append([]uint16{}, w...))
	}
	resp, body := postJSON(t, url+"/v1/observe", observeRequest{Rows: rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
}

// queryEpoch runs one f0 query and returns the response's epoch block.
func queryEpoch(t *testing.T, url string, cols []int) *node.Epoch {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/query", node.QueryRequest{
		Queries: []node.QuerySpec{{Kind: "f0", Cols: cols}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr node.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Epoch == nil {
		t.Fatal("query response missing the epoch block")
	}
	return qr.Epoch
}

func TestQueryResponseCarriesEpochStrict(t *testing.T) {
	const d, q = 6, 3
	ts := startDaemon(t, "exact", d, q, 1)
	observeRows(t, ts.URL, d, q, 40, 0)

	ep := queryEpoch(t, ts.URL, []int{0, 1})
	if ep.Rows != 40 || ep.StalenessRows != 0 {
		t.Fatalf("strict daemon epoch rows=%d staleness=%d, want 40/0", ep.Rows, ep.StalenessRows)
	}
	if ep.Seq == 0 {
		t.Fatal("epoch seq must be assigned")
	}

	// New rows must be visible immediately in strict mode, on a new
	// epoch.
	observeRows(t, ts.URL, d, q, 10, 7)
	ep2 := queryEpoch(t, ts.URL, []int{0, 1})
	if ep2.Rows != 50 || ep2.StalenessRows != 0 {
		t.Fatalf("strict daemon epoch rows=%d staleness=%d, want 50/0", ep2.Rows, ep2.StalenessRows)
	}
	if ep2.Seq <= ep.Seq {
		t.Fatalf("strict rebuild must advance the epoch seq (%d then %d)", ep.Seq, ep2.Seq)
	}
}

func TestStatsServedFromEpoch(t *testing.T) {
	const d, q = 6, 3
	ts := startDaemon(t, "exact", d, q, 1)
	observeRows(t, ts.URL, d, q, 30, 0)

	st := daemonStats(t, ts.URL)
	if st.Rows != 30 {
		t.Fatalf("stats rows %d, want 30", st.Rows)
	}
	if st.SizeBytes <= 0 {
		t.Fatalf("stats size_bytes %d, want > 0", st.SizeBytes)
	}
	if st.Epoch == nil {
		t.Fatal("stats response missing the epoch block")
	}
	if st.Epoch.Rows != 30 || st.Epoch.StalenessRows != 0 {
		t.Fatalf("stats epoch rows=%d staleness=%d, want 30/0", st.Epoch.Rows, st.Epoch.StalenessRows)
	}
}

// TestStatsReportVectorMemo: the epoch block of /v1/stats shows what
// the exact summary's per-column-set memo did since the epoch's cut —
// one build for a column set however many questions are asked about
// it, hits for the rest, a repeated request body included: the daemon
// keeps no answers, the memo is what makes the repeat cheap — and
// starts over on the next epoch.
func TestStatsReportVectorMemo(t *testing.T) {
	const d, q = 6, 3
	ts := startDaemon(t, "exact", d, q, 1)
	observeRows(t, ts.URL, d, q, 400, 0)
	stats := func() *node.Epoch {
		t.Helper()
		sr := daemonStats(t, ts.URL)
		if sr.Epoch == nil {
			t.Fatal("stats response missing the epoch block")
		}
		return sr.Epoch
	}
	for _, spec := range []node.QuerySpec{
		{Kind: "f0", Cols: []int{0, 1}},
		{Kind: "fp", Cols: []int{0, 1}, P: 2},
		{Kind: "hh", Cols: []int{0, 1}, P: 1, Phi: 0.1},
		{Kind: "f0", Cols: []int{2, 3, 4}},
	} {
		if resp, body := postJSON(t, ts.URL+"/v1/query", node.QueryRequest{Queries: []node.QuerySpec{spec}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, body)
		}
	}
	if ep := stats(); ep.MemoBuilds != 2 || ep.MemoHits != 2 || ep.MemoEvictions != 0 || ep.MemoBuildMS <= 0 {
		t.Fatalf("memo block %+v, want 2 builds and 2 hits", ep)
	}
	repeat := node.QueryRequest{Queries: []node.QuerySpec{{Kind: "hh", Cols: []int{0, 1}, P: 1, Phi: 0.1}}}
	var first, second node.QueryResponse
	for _, out := range []*node.QueryResponse{&first, &second} {
		resp, body := postJSON(t, ts.URL+"/v1/query", repeat)
		if resp.StatusCode != http.StatusOK || bytes.Contains(body, []byte("cached")) {
			t.Fatalf("repeated query: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(first.Results, second.Results) || len(first.Results[0].Hits) == 0 {
		t.Fatalf("repeated query answered %+v, then %+v", first.Results, second.Results)
	}
	if a, b := first.Epoch, second.Epoch; b.Seq != a.Seq || b.MemoHits != a.MemoHits+1 || b.MemoBuilds != 2 {
		t.Fatalf("repeated query: epoch %+v, then %+v; want the same epoch, one more hit, no build", a, b)
	}
	observeRows(t, ts.URL, d, q, 1, 1)
	if ep := stats(); ep.MemoBuilds != 0 || ep.MemoHits != 0 || ep.MemoBuildMS != 0 {
		t.Fatalf("memo block %+v on a new epoch, want zeros", ep)
	}
}
