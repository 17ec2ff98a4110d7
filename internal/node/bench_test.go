package node

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/words"
	"repro/internal/workload"
)

// BenchmarkObserveExact times the /v1/observe handler of an in-memory
// exact daemon shaped like exact-coldquery's (d = 16, q = 4, 2 shards)
// on one 4,096-row Zipf body, served in process through
// httptest.NewRecorder; one iteration is one request. The final Flush
// charges the shard workers' share, so B/op counts the rows' storage:
// the packed rows a request retains are 16 KiB.
func BenchmarkObserveExact(b *testing.B) {
	n, err := New(Config{Summary: "exact", D: 16, Q: 4, Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { n.Close() })
	tb := words.Collect(workload.ZipfPatterns(16, 4, 4096, 4096, 1.1, 1), -1)
	rows := make([][]uint16, tb.NumRows())
	for i := range rows {
		rows[i] = tb.Row(i)
	}
	body, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("observe: %d %s", rec.Code, rec.Body)
		}
	}
	if _, err := n.eng.Flush(); err != nil {
		b.Fatal(err)
	}
}
