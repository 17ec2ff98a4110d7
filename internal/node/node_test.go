package node

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/wire"
)

// serve boots a daemon through New, serves it on a loopback test
// server, and returns a stop func that closes both (also run at
// cleanup; Close is idempotent).
func serve(t *testing.T, cfg Config) (*httptest.Server, func()) {
	t.Helper()
	n, err := New(cfg)
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

// call POSTs body as JSON (GETs when body is nil) and decodes the 200
// answer into out.
func call(t *testing.T, url string, body, out any) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		blob, _ := json.Marshal(body)
		resp, err = http.Post(url, "application/json", bytes.NewReader(blob))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %s", url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("%s: decoding %s: %v", url, raw, err)
	}
}

// servedRows polls /v1/stats until the serving epoch covers want rows
// (local rows plus absorbed sources), failing after five seconds.
func servedRows(t *testing.T, url string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st Stats
		call(t, url+"/v1/stats", nil, &st)
		if st.Epoch != nil && st.Epoch.MergedRows == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon serves %+v, want %d rows", st.Epoch, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestModeMatrix boots every daemon mode — role {ingest, aggregator} ×
// {in-memory, durable} — through New, the one construction path, so a
// mode whose wiring is broken (a typed-nil store in the engine's Log
// field panicked the first in-memory observe once) cannot hide. Each
// cell ingests (or pulls), answers a query, Closes, and boots again: a
// durable ingest node recovers every row, an in-memory one starts
// empty, an aggregator re-pulls. The durable aggregator is refused.
func TestModeMatrix(t *testing.T) {
	const d, q = 4, 3
	base := Config{Summary: "exact", D: d, Q: q, Eps: 0.05, Delta: 0.01, Alpha: 0.3, Seed: 1, Shards: 2,
		Fsync: "never", PullInterval: 10 * time.Millisecond, PullTimeout: time.Second}
	rows := make([][]uint16, 30)
	distinct := map[string]bool{}
	for i := range rows {
		rows[i] = []uint16{uint16(i % q), uint16(i / q % q), uint16(i % 2), 0}
		distinct[fmt.Sprint(rows[i])] = true
	}
	// The aggregator cells pull from one in-memory ingest node holding
	// the rows.
	src, _ := serve(t, base)
	call(t, src.URL+"/v1/observe", map[string]any{"rows": rows}, &ObserveResponse{})

	for _, role := range []string{"ingest", "aggregator"} {
		for _, durable := range []bool{false, true} {
			mode := map[bool]string{false: "in-memory", true: "durable"}[durable]
			t.Run(role+"/"+mode, func(t *testing.T) {
				cfg := base
				if durable {
					cfg.DataDir = t.TempDir()
				}
				if role == "aggregator" {
					cfg.PullFrom = []string{src.URL}
				}
				if role == "aggregator" && durable {
					n, err := New(cfg)
					if err == nil {
						n.Close()
						t.Fatal("a durable aggregator booted")
					}
					if !strings.Contains(err.Error(), "-pull-from and -data-dir are mutually exclusive") {
						t.Fatalf("durable aggregator refused with %q", err)
					}
					return
				}

				ts, stop := serve(t, cfg)
				if role == "ingest" {
					var ack ObserveResponse
					call(t, ts.URL+"/v1/observe", map[string]any{"rows": rows}, &ack)
					if ack.Accepted != len(rows) {
						t.Fatalf("observe accepted %d of %d rows", ack.Accepted, len(rows))
					}
				}
				servedRows(t, ts.URL, int64(len(rows)))
				var qr QueryResponse
				call(t, ts.URL+"/v1/query", QueryRequest{Queries: []QuerySpec{{Kind: "f0", Cols: []int{0, 1, 2, 3}}}}, &qr)
				if qr.Results[0].Error != "" || qr.Results[0].Value != float64(len(distinct)) {
					t.Fatalf("f0 answered %+v, want %d distinct rows", qr.Results[0], len(distinct))
				}
				stop()

				// Second boot over the same configuration (and directory).
				ts, _ = serve(t, cfg)
				want := int64(len(rows))
				if role == "ingest" && !durable {
					want = 0
				}
				servedRows(t, ts.URL, want)
			})
		}
	}
}

// post POSTs body as JSON and returns the status and the raw answer.
func post(t *testing.T, url string, body any) (int, string) {
	t.Helper()
	blob, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// TestRetiredSubspaceKindRefused: "registered" is the one subspace
// kind. A registration naming "mirror", or any other kind, answers 400
// naming it and leaves the engine without a subspace, so the same
// column set still registers afterwards with the kind omitted.
func TestRetiredSubspaceKindRefused(t *testing.T) {
	ts, _ := serve(t, Config{Summary: "exact", D: 4, Q: 3, Eps: 0.05, Seed: 1, Shards: 2})
	for kind, why := range map[string]string{"mirror": "retired", "bogus": "unknown"} {
		status, body := post(t, ts.URL+"/v1/subspaces", RegisterSubspaceRequest{Cols: []int{0, 1}, Summary: kind})
		if status != http.StatusBadRequest || !strings.Contains(body, kind) || !strings.Contains(body, why) || !strings.Contains(body, "registered") {
			t.Fatalf("%q registration: %d %s", kind, status, body)
		}
	}
	var st Stats
	call(t, ts.URL+"/v1/stats", nil, &st)
	if st.Subspaces != 0 {
		t.Fatalf("refused registrations left %d subspaces", st.Subspaces)
	}
	var list SubspacesResponse
	call(t, ts.URL+"/v1/subspaces", RegisterSubspaceRequest{Cols: []int{0, 1}}, &list)
	if len(list.Subspaces) != 1 || list.Subspaces[0].Summary != "registered(1 subsets)" {
		t.Fatalf("registration with the kind omitted: %+v", list.Subspaces)
	}
}

// TestSubspaceSizeIsOneKMV: a registered subspace holds one KMV over
// its column set and nothing else, so at ε = 0.05 (k = 403) a full
// one-shard subspace reports about 3.2 KB in /v1/subspaces.
func TestSubspaceSizeIsOneKMV(t *testing.T) {
	const d, q = 16, 4
	ts, _ := serve(t, Config{Summary: "exact", D: d, Q: q, Eps: 0.05, Seed: 1, Shards: 1})
	var list SubspacesResponse
	call(t, ts.URL+"/v1/subspaces", RegisterSubspaceRequest{Cols: []int{0, 1, 2, 3, 4, 5}}, &list)
	// 4,096 uniform rows over 4^6 = 4,096 patterns fill the KMV.
	src := rng.New(3)
	rows := make([][]int, 4096)
	for i := range rows {
		rows[i] = make([]int, d)
		for j := range rows[i] {
			rows[i][j] = src.Intn(q)
		}
	}
	call(t, ts.URL+"/v1/observe", map[string]any{"rows": rows}, &ObserveResponse{})
	call(t, ts.URL+"/v1/subspaces", nil, &list)
	if len(list.Subspaces) != 1 {
		t.Fatalf("subspaces %+v", list.Subspaces)
	}
	size := list.Subspaces[0].SizeBytes
	t.Logf("subspace %v: %d bytes", list.Subspaces[0].Cols, size)
	if size < 8*403 || size > 3300 {
		t.Fatalf("subspace reports %d bytes, want one full KMV (%d to 3,300)", size, 8*403)
	}
}

// TestRecoveryRefusesRetiredSubspaceKind: a data directory whose WAL
// or checkpoint records a subspace of the retired "mirror" kind does
// not boot. New fails naming the kind rather than serving a registry
// without the subspace the shards were built with; a valid
// registration sits ahead of the retired one, so recovery is part way
// through rebuilding the registry when it refuses.
func TestRecoveryRefusesRetiredSubspaceKind(t *testing.T) {
	metas := []store.SubspaceMeta{{Mask: 0b0011, Summary: "registered"}, {Mask: 0b1100, Summary: "mirror"}}
	for _, where := range []string{"wal", "checkpoint"} {
		t.Run(where, func(t *testing.T) {
			cfg := Config{Summary: "exact", D: 4, Q: 3, Eps: 0.05, Seed: 1, Shards: 2, DataDir: t.TempDir(), Fsync: "never"}
			st, err := store.Open(store.Options{Dir: cfg.DataDir, Dim: cfg.D, Alphabet: cfg.Q, Fsync: store.FsyncNever})
			if err != nil {
				t.Fatal(err)
			}
			if where == "wal" {
				for _, m := range metas {
					if err := st.AppendSubspace(m.Mask, m.Summary); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				empty, err := core.NewExact(cfg.D, cfg.Q)
				if err != nil {
					t.Fatal(err)
				}
				shard, err := core.MarshalSummary(empty)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.WriteCheckpoint(&store.Checkpoint{Subspaces: metas, Shards: [][]byte{shard, shard}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			n, err := New(cfg)
			if err == nil {
				n.Close()
				t.Fatal("a data directory holding a mirror subspace booted")
			}
			var kindErr *SubspaceKindError
			if !errors.As(err, &kindErr) || kindErr.Kind != "mirror" || !strings.Contains(err.Error(), `"mirror" was retired`) {
				t.Fatalf("recovery refused with %v", err)
			}
		})
	}
}

// TestRecoveryRefusesRetiredSampleMode: a data directory whose
// checkpoint holds a sample shard under sampler mode 0 (with-replacement
// slots that drew once per row, before skip-ahead slots) does not boot.
// New fails with the decoder's ErrBadEncoding naming the retired mode,
// rather than serving a summary that lost the checkpointed rows.
func TestRecoveryRefusesRetiredSampleMode(t *testing.T) {
	cfg := Config{Summary: "sample", D: 4, Q: 3, Eps: 0.2, Delta: 0.1, Seed: 1, Shards: 2, DataDir: t.TempDir(), Fsync: "never"}
	st, err := store.Open(store.Options{Dir: cfg.DataDir, Dim: cfg.D, Alphabet: cfg.Q, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// The mode-0 body: u32 t | i64 seen | t×(4×u64 xoshiro state) | t×row.
	const slots, seen = 2, 1
	w := &wire.Writer{}
	w.U8(0)
	w.U32(slots)
	w.I64(seen)
	for i := 0; i < 4*slots; i++ {
		w.U64(uint64(i + 1))
	}
	for i := 0; i < slots; i++ {
		w.U32(uint32(cfg.D))
		for j := 0; j < cfg.D; j++ {
			w.U16(1)
		}
	}
	shard, err := core.AppendEnvelope(core.KindSample, cfg.D, cfg.Q, 0, seen, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCheckpoint(&store.Checkpoint{Shards: [][]byte{shard, shard}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := New(cfg)
	if err == nil {
		n.Close()
		t.Fatal("a data directory holding a mode-0 sample checkpoint booted")
	}
	if !errors.Is(err, core.ErrBadEncoding) || !strings.Contains(err.Error(), "retired sampler mode 0") {
		t.Fatalf("recovery refused with %v, want ErrBadEncoding naming the retired sampler mode", err)
	}
}

// TestPullIntervalMustBeBelowTimeout: an aggregator's source holds an
// unchanged pull for up to -pull-interval, so an interval at or above
// -pull-timeout would end every idle hold as a client timeout. New
// refuses it, naming both flags.
func TestPullIntervalMustBeBelowTimeout(t *testing.T) {
	for _, iv := range []time.Duration{time.Second, 2 * time.Second, 0} {
		cfg := Config{Summary: "exact", D: 4, Q: 3, Eps: 0.05, Seed: 1, Shards: 1,
			PullFrom: []string{"http://127.0.0.1:1"}, PullInterval: iv, PullTimeout: time.Second}
		n, err := New(cfg)
		if err == nil {
			n.Close()
			t.Fatalf("-pull-interval %v with -pull-timeout 1s booted", iv)
		}
		if !strings.Contains(err.Error(), "-pull-interval") || !strings.Contains(err.Error(), "-pull-timeout") {
			t.Fatalf("-pull-interval %v refused with %q", iv, err)
		}
	}
}

// getSummary sends one GET /v1/summary with the given If-None-Match
// and raw query, and returns the response (body drained and closed)
// and its round trip.
func getSummary(t *testing.T, url, etag, query string) (*http.Response, time.Duration) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/summary"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp, time.Since(start)
}

// TestSummaryHold pins the long-poll contract of GET /v1/summary: a
// conditional GET with ?wait= whose tag is current is held until the
// epoch moves (200 with the new blob) or the wait runs out (304), every
// answer reports its hold in Server-Timing, Close releases a hold at
// once, and a bad wait is refused naming the parameter.
func TestSummaryHold(t *testing.T) {
	cfg := Config{Summary: "exact", D: 4, Q: 3, Eps: 0.05, Seed: 1, Shards: 2}
	ts, _ := serve(t, cfg)
	cold, _ := getSummary(t, ts.URL, "", "")
	tag := cold.Header.Get("ETag")
	if cold.StatusCode != http.StatusOK || tag == "" || cold.Header.Get("Server-Timing") != "hold;dur=0.000" {
		t.Fatalf("cold GET: %d, ETag %q, Server-Timing %q", cold.StatusCode, tag, cold.Header.Get("Server-Timing"))
	}

	t.Run("expires", func(t *testing.T) {
		resp, took := getSummary(t, ts.URL, tag, "?wait=100ms")
		if resp.StatusCode != http.StatusNotModified || took < 100*time.Millisecond {
			t.Fatalf("idle hold answered %d after %v, want 304 after >= 100ms", resp.StatusCode, took)
		}
		if st := resp.Header.Get("Server-Timing"); !strings.HasPrefix(st, "hold;dur=") || st == "hold;dur=0.000" {
			t.Fatalf("held 304 carries Server-Timing %q", st)
		}
	})

	t.Run("wakes", func(t *testing.T) {
		posted := make(chan time.Time, 1)
		go func() {
			time.Sleep(50 * time.Millisecond)
			resp, err := http.Post(ts.URL+"/v1/observe", "application/json", strings.NewReader(`{"rows": [[0, 1, 2, 0]]}`))
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("observe: %v %v", resp, err)
			}
			if err == nil {
				resp.Body.Close()
			}
			posted <- time.Now()
		}()
		resp, _ := getSummary(t, ts.URL, tag, "?wait=2s")
		answered := time.Now()
		at := <-posted
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == tag {
			t.Fatalf("held GET answered %d with ETag %q after a POST", resp.StatusCode, resp.Header.Get("ETag"))
		}
		if lag := answered.Sub(at); lag > 100*time.Millisecond {
			t.Fatalf("held GET answered %v after the POST, want < 100ms", lag)
		}
		tag = resp.Header.Get("ETag")
	})

	t.Run("bad wait", func(t *testing.T) {
		for _, q := range []string{"?wait=soon", "?wait=-1s", "?wait="} {
			resp, err := http.Get(ts.URL + "/v1/summary" + q)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "wait") {
				t.Fatalf("%s: %d %s", q, resp.StatusCode, body)
			}
		}
	})

	t.Run("close releases", func(t *testing.T) {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(n)
		defer ts.Close()
		cold, _ := getSummary(t, ts.URL, "", "")
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/summary?wait=10s", nil)
		req.Header.Set("If-None-Match", cold.Header.Get("ETag"))
		done := make(chan time.Duration, 1)
		go func() {
			start := time.Now()
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
			done <- time.Since(start)
		}()
		time.Sleep(50 * time.Millisecond)
		n.Close()
		select {
		case took := <-done:
			if took >= time.Second {
				t.Fatalf("Close released the hold after %v", took)
			}
		case <-time.After(time.Second):
			t.Fatal("Close did not release a 10s hold within 1s")
		}
	})
}
