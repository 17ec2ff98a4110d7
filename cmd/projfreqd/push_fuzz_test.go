package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

// fuzzRows reads the daemon's row clock off its /v1/stats.
func fuzzRows(t *testing.T, h http.Handler) int64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st node.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats: %d %v", rec.Code, err)
	}
	return st.Rows
}

// FuzzHandlePush drives arbitrary bytes through the full /v1/push
// handler — HTTP plumbing, body read, envelope decode, absorb. The
// contract under attack: a corrupt or truncated envelope must come
// back as a 4xx, never panic, and never partially absorb (the row
// clock is unchanged unless the handler answered 200).
func FuzzHandlePush(f *testing.F) {
	srv := fuzzDaemon(f)

	// Seeds: a valid envelope, truncations of it, a bit flip in the
	// header and in the payload, an incompatible-shape envelope, and
	// plain garbage.
	valid, _ := remoteWriterF(f, "exact", 6, 3, 50, 11)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:1])
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[0] ^= 0xff
	f.Add(flipped)
	flippedTail := append([]byte(nil), valid...)
	flippedTail[len(flippedTail)-1] ^= 0x01
	f.Add(flippedTail)
	wrongShape, _ := remoteWriterF(f, "exact", 7, 3, 5, 11)
	f.Add(wrongShape)
	f.Add([]byte("not a summary envelope at all"))

	f.Fuzz(func(t *testing.T, blob []byte) {
		before := fuzzRows(t, srv)
		req := httptest.NewRequest(http.MethodPost, "/v1/push", bytes.NewReader(blob))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("push of %d bytes: status %d %s", len(blob), rec.Code, rec.Body.Bytes())
		}
		if after := fuzzRows(t, srv); rec.Code != http.StatusOK && after != before {
			t.Fatalf("refused push (status %d) moved the row clock %d -> %d: partial absorb",
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
