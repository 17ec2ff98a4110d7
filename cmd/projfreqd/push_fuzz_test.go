package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/node"
)

// fuzzNode is one shared daemon for the whole fuzz run: rebuilding
// one per input would dominate the fuzz loop, and sharing it is itself
// part of the property — thousands of hostile inputs against one live
// engine must leave it consistent.
var (
	fuzzOnce sync.Once
	fuzzNode *node.Node
)

func fuzzDaemon(f *testing.F) *node.Node {
	f.Helper()
	fuzzOnce.Do(func() {
		n, err := node.New(testConfig("exact", 6, 3, 11))
		if err != nil {
			f.Fatal(err)
		}
		fuzzNode = n
	})
	return fuzzNode
}

// fuzzRows reads the rows the daemon serves, its own and every
// source's, off its /v1/stats.
func fuzzRows(t *testing.T, h http.Handler) int64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st node.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Epoch == nil {
		t.Fatalf("stats: %d %v %s", rec.Code, err, rec.Body.Bytes())
	}
	return st.Epoch.MergedRows
}

// FuzzHandlePush drives arbitrary source names and bytes through the
// full /v1/push?source= handler — HTTP plumbing, body read, envelope
// decode, absorb. The contract under attack: a missing name or a
// corrupt or truncated envelope must come back as a 4xx, never panic,
// and never partially absorb (the served rows are unchanged unless the
// handler answered 200).
func FuzzHandlePush(f *testing.F) {
	srv := fuzzDaemon(f)

	// Seeds: a valid envelope, truncations of it, a bit flip in the
	// header and in the payload, an incompatible-shape envelope, plain
	// garbage, and the valid envelope without a source name.
	valid, _ := remoteWriterF(f, "exact", 6, 3, 50, 11)
	f.Add("writer", valid)
	f.Add("writer", valid[:len(valid)/2])
	f.Add("h:/data/rows.csv", valid[:1])
	f.Add("writer", []byte{})
	flipped := append([]byte(nil), valid...)
	flipped[0] ^= 0xff
	f.Add("writer", flipped)
	flippedTail := append([]byte(nil), valid...)
	flippedTail[len(flippedTail)-1] ^= 0x01
	f.Add("other writer", flippedTail)
	wrongShape, _ := remoteWriterF(f, "exact", 7, 3, 5, 11)
	f.Add("writer", wrongShape)
	f.Add("writer&x=1", []byte("not a summary envelope at all"))
	f.Add("", valid)

	f.Fuzz(func(t *testing.T, source string, blob []byte) {
		before := fuzzRows(t, srv)
		req := httptest.NewRequest(http.MethodPost, "/v1/push?source="+url.QueryEscape(source), bytes.NewReader(blob))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("push of %d bytes: status %d %s", len(blob), rec.Code, rec.Body.Bytes())
		}
		if source == "" && rec.Code != http.StatusBadRequest {
			t.Fatalf("unnamed push answered %d, want 400", rec.Code)
		}
		if after := fuzzRows(t, srv); rec.Code != http.StatusOK && after != before {
			t.Fatalf("refused push (status %d) moved the served rows %d -> %d: partial absorb",
				rec.Code, before, after)
		}
		// The engine must stay able to serve after every input.
		sreq := httptest.NewRequest(http.MethodGet, "/v1/summary", nil)
		srec := httptest.NewRecorder()
		srv.ServeHTTP(srec, sreq)
		if srec.Code != http.StatusOK {
			t.Fatalf("summary export broken after push fuzz input: %d", srec.Code)
		}
	})
}

// remoteWriterF is remoteWriter for fuzz targets (testing.F lacks the
// *testing.T the helper takes).
func remoteWriterF(f *testing.F, kind string, d, q, n int, seed uint64) ([]byte, core.Summary) {
	f.Helper()
	sum, err := engine.StandardSummary(kind, d, q, 0.25, 0.05, 0.3, seed, 0)
	if err != nil {
		f.Fatal(err)
	}
	w := make([]uint16, d)
	for i := 0; i < n; i++ {
		for j := range w {
			w[j] = uint16((i + j) % q)
		}
		sum.Observe(w)
	}
	blob, err := core.MarshalSummary(sum)
	if err != nil {
		f.Fatal(err)
	}
	return blob, sum
}
