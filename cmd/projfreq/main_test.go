package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/words"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 3,5")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Fatalf("parseInts: %v, %v", got, err)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("non-numeric must error")
	}
}

func TestParsePattern(t *testing.T) {
	w, err := parsePattern("2:0:7", 3)
	if err == nil {
		t.Fatal("colon separator must error")
	}
	w, err = parsePattern("2,0,7", 3)
	if err != nil || !w.Equal(words.Word{2, 0, 7}) {
		t.Fatalf("parsePattern: %v, %v", w, err)
	}
	if _, err := parsePattern("1,2", 3); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := parsePattern("-1,0,0", 3); err == nil {
		t.Fatal("negative symbol must error")
	}
}

func TestLoadDataDemo(t *testing.T) {
	tb, err := loadData("", true, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() == 0 || tb.Dim() != 8 {
		t.Fatalf("demo table: %d rows, %d cols", tb.NumRows(), tb.Dim())
	}
	if _, err := loadData("", false, 2, 1); err == nil {
		t.Fatal("missing -data without -demo must error")
	}
	if _, err := loadData("/nonexistent/rows.csv", false, 2, 1); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestBuildSummaryKinds(t *testing.T) {
	for _, kind := range []string{"exact", "sample", "net"} {
		s, err := engine.StandardSummary(kind, 8, 2, 0.2, 0.05, 0.3, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if s.Dim() != 8 {
			t.Fatalf("%s: dim %d", kind, s.Dim())
		}
	}
	if _, err := engine.StandardSummary("bogus", 8, 2, 0.2, 0.05, 0.3, 1, 0); err == nil {
		t.Fatal("unknown kind must error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	// A summary saved by one invocation answers identically when
	// loaded by another — the CLI's half of the wire-format contract.
	sum, err := engine.StandardSummary("net", 6, 3, 0.25, 0.05, 0.3, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := make(words.Word, 6)
	for i := 0; i < 500; i++ {
		for j := range w {
			w[j] = uint16((i*7 + j) % 3)
		}
		sum.Observe(w)
	}
	blob, err := core.MarshalSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.pfqs")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.UnmarshalSummary(saved)
	if err != nil {
		t.Fatal(err)
	}
	c := words.MustColumnSet(6, 0, 1)
	want, err := sum.(core.F0Querier).F0(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.(core.F0Querier).F0(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("loaded F0 %v != saved %v", got, want)
	}
}

// TestIngestFeedsEveryRowInOrder: ingest's fixed-size batches (the demo
// table ends on a ragged one) leave a summary bit-for-bit identical to
// one fed row by row (the exact summary's wire form is its retained
// rows in order).
func TestIngestFeedsEveryRowInOrder(t *testing.T) {
	tb, err := loadData("", true, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows()%ingestBatchRows == 0 {
		t.Fatalf("demo table of %d rows has no ragged last batch", tb.NumRows())
	}
	build := func() core.Summary {
		s, err := engine.StandardSummary("exact", tb.Dim(), tb.Alphabet(), 0.2, 0.05, 0.3, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rowWise := build()
	words.Drain(tb.Source(), rowWise.Observe)
	batched := build()
	ingest(batched, tb)
	want, err := core.MarshalSummary(rowWise)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.MarshalSummary(batched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("batched ingestion diverged from row-at-a-time ingestion")
	}
	ingest(build(), words.NewTable(tb.Dim(), tb.Alphabet())) // an empty table is a no-op
}

func TestPushSummaryAgainstStubDaemon(t *testing.T) {
	var gotBody []byte
	var gotSource string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/push" {
			t.Errorf("push path %q", r.URL.Path)
		}
		gotSource = r.URL.Query().Get("source")
		gotBody, _ = io.ReadAll(r.Body)
		fmt.Fprintln(w, `{"rows_merged": 10, "rows": 10}`)
	}))
	defer ts.Close()
	host, err := os.Hostname()
	if err != nil {
		t.Fatal(err)
	}
	// A push is named after its input, so the same input pushed again
	// replaces the earlier push.
	demo, err := pushSource("")
	if err != nil || demo != host+":demo" {
		t.Fatalf("demo source %q, %v", demo, err)
	}
	abs, err := filepath.Abs("rows.csv")
	if err != nil {
		t.Fatal(err)
	}
	if src, err := pushSource("rows.csv"); err != nil || src != host+":"+abs {
		t.Fatalf("-data rows.csv source %q, %v; want %q", src, err, host+":"+abs)
	}
	if err := pushSummary(ts.URL+"/", "h:/data/a b.csv", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if string(gotBody) != "blob" || gotSource != "h:/data/a b.csv" {
		t.Fatalf("daemon received %q from source %q", gotBody, gotSource)
	}
	// Non-200 responses surface as errors.
	tsErr := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"incompatible"}`, http.StatusConflict)
	}))
	defer tsErr.Close()
	if err := pushSummary(tsErr.URL, demo, []byte("blob")); err == nil {
		t.Fatal("conflict push must error")
	}
}

// TestRunBatch: -batch answers its F0 projections as one QueryBatch
// against the sharded engine; a malformed list is an error.
func TestRunBatch(t *testing.T) {
	tb, err := loadData("", true, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewSharded(func(shard int) (core.Summary, error) {
		return engine.StandardSummary("exact", tb.Dim(), tb.Alphabet(), 0.2, 0.05, 0.3, 1, shard)
	}, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ingest(eng, tb)
	if err := runBatch(eng, tb.Dim(), "0,1; 4,5"); err != nil {
		t.Fatal(err)
	}
	if err := runBatch(eng, tb.Dim(), "0,x"); err == nil {
		t.Fatal("malformed -batch must error")
	}
}

func TestInspectDir(t *testing.T) {
	const d, q = 3, 4
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Dim: d, Alphabet: q, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	b := words.NewBatch(d, 2)
	b.AppendRow()
	copy(b.AppendRow(), words.Word{1, 2, 3})
	for i := 0; i < 3; i++ {
		if err := st.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteCheckpoint(&store.Checkpoint{LSN: 2, Next: 2, Rows: 4, Shards: [][]byte{[]byte("s")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := inspect(dir, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"d=3, Q=4", "segments (1):", "records=3 rows=6", "checkpoints (1):", "lsn=2 rows=4 shards=1", "ok",
		"boot: restores ckpt-0000000000000002.pfqc (lsn=2); reads 1 segment(s)", "skips 0 below the cut; replays records=1 rows=2"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "damaged") {
		t.Fatalf("clean directory reported damage:\n%s", report)
	}

	// Tear the tail: the report flags it and leaves the file alone.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := inspect(dir, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "TORN TAIL") || !strings.Contains(out.String(), "1 damaged file(s)") {
		t.Fatalf("torn tail not reported:\n%s", out.String())
	}
	if got, _ := os.ReadFile(segs[0]); len(got) != len(data)-2 {
		t.Fatal("inspect modified the segment")
	}

	// An empty directory errors rather than printing an empty report.
	if err := inspect(t.TempDir(), io.Discard); err == nil {
		t.Fatal("empty directory must error")
	}

	// Small segments between two checkpoints: the report ends with what
	// Recover itself then restores, reads, skips and replays, before
	// and after the newer checkpoint rots.
	opts := store.Options{Dir: t.TempDir(), Dim: d, Alphabet: q, Fsync: store.FsyncNever, SegmentBytes: 64}
	st, err = store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for lsn := range uint64(10) { // four 11-byte frames a segment
		if lsn == 3 || lsn == 9 {
			if err := st.WriteCheckpoint(&store.Checkpoint{LSN: lsn, Next: lsn, Rows: 2 * int64(lsn), Shards: [][]byte{[]byte("s")}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	bootMatchesRecover := func(want string) {
		t.Helper()
		out.Reset()
		if err := inspect(opts.Dir, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report does not end with %q:\n%s", want, out.String())
		}
		rep, err := store.Inspect(opts.Dir)
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		info, err := st.Recover(nil, func(store.Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		got := rep.Boot
		if got.CheckpointLSN != info.CheckpointLSN || got.Segments != info.SegmentsRead || got.Skipped != info.SegmentsSkipped ||
			got.Records != info.Records || got.Rows != info.Rows {
			t.Fatalf("inspect plans %+v, Recover did %+v", got, info)
		}
	}
	bootMatchesRecover("boot: restores ckpt-0000000000000009.pfqc (lsn=9); reads 1 segment(s), 46 bytes, skips 2 below the cut; replays records=1 rows=2\n")
	newer := filepath.Join(opts.Dir, "ckpt-0000000000000009.pfqc")
	data, err = os.ReadFile(newer)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newer, data, 0o644); err != nil {
		t.Fatal(err)
	}
	bootMatchesRecover("boot: restores ckpt-0000000000000003.pfqc (lsn=3); reads 3 segment(s), 182 bytes, skips 0 below the cut; replays records=7 rows=14\n")
}

func TestSaveIsAtomicAndLeavesNoStaging(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.pfqs")
	// Pre-existing content survives a successful overwrite as either
	// old or new, never torn — here we just verify the new content and
	// that no temp files remain.
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := core.NewExact(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum.Observe(words.Word{0, 1, 0})
	blob, err := core.MarshalSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFileAtomic(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("saved blob mismatch (%v)", err)
	}
	dec, err := core.UnmarshalSummary(got)
	if err != nil || dec.Rows() != 1 {
		t.Fatalf("saved blob does not decode: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("staging files left behind: %v", entries)
	}
}
