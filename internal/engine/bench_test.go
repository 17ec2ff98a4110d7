package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/words"
	"repro/internal/workload"
)

// The three hot paths whose allocations are pinned, each as a fixture
// shared by a test (the gate, part of go test ./...) and a benchmark
// (the profiling entry point):
//
//	go test ./internal/engine -run '^$' -bench 'ObserveBatch|ExactWarm|EpochRebuild' -cpuprofile cpu.pb.gz

// observeBatchFixture builds the ingest fixture: 4 shards of the
// serving with-replacement sampler, t = 256 — a batch in which no
// slot accepts costs O(1) and the state does not grow, so what is left
// is the engine's own path, one arena copy and one channel send per
// chunk — and one 256-row batch (one chunk). Each of the 256 slots
// accepts a row with probability 1 over the rows its shard has seen,
// and an acceptance clones the row, so the fixture first ingests 4M
// rows: an acceptance is then a once-in-sixteen-batches event and the
// average the gate reads is the engine's.
func observeBatchFixture(tb testing.TB) (*Sharded, *words.Batch) {
	tb.Helper()
	eng, err := NewSharded(func(shard int) (core.Summary, error) {
		return core.NewSample(16, 4, 256, uint64(shard)+1)
	}, Config{Shards: 4, Queue: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	data := make([]uint16, 256*16)
	src := rng.New(35)
	for i := range data {
		data[i] = uint16(src.Intn(4))
	}
	batch := words.BatchOf(16, data)
	for range 1 << 14 {
		eng.ObserveBatch(batch)
	}
	if _, err := eng.Flush(); err != nil {
		tb.Fatal(err)
	}
	return eng, batch
}

// TestObserveBatchDoesNotAllocate pins the ingest hot path, producer
// and shard workers together (AllocsPerRun counts the whole process
// and reports the integral average), at zero heap allocations per
// batch.
func TestObserveBatchDoesNotAllocate(t *testing.T) {
	eng, batch := observeBatchFixture(t)
	if allocs := testing.AllocsPerRun(200, func() { eng.ObserveBatch(batch) }); allocs != 0 {
		t.Fatalf("ObserveBatch of one %d-row chunk allocates %v times, want 0", batch.Len(), allocs)
	}
}

// BenchmarkObserveBatch times the same path; one iteration is one
// 256-row batch, and the final Flush charges the workers' share.
func BenchmarkObserveBatch(b *testing.B) {
	eng, batch := observeBatchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ObserveBatch(batch)
	}
	if _, err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
}

// exactWarmFixture builds the warm exact-query fixture: 2 shards of
// exact summaries holding 20000 Zipf rows (the state must not grow with
// b.N: an exact summary's cold query is a pass over every retained
// row), and all four kinds about one column set, asked once so that the
// epoch is cut and the column set's vector is memoized.
func exactWarmFixture(tb testing.TB) (*Sharded, []Query) {
	tb.Helper()
	eng, err := NewSharded(exactFactory(16, 4), Config{Shards: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	eng.ObserveBatch(words.Collect(workload.ZipfPatterns(16, 4, 20000, 4096, 1.1, 35), -1).Batch())
	qs := fourKinds(words.MustColumnSet(16, 1, 5, 9))
	for _, r := range eng.QueryBatch(qs) {
		if r.Err != nil {
			tb.Fatal(r.Err)
		}
	}
	return eng, qs
}

// exactWarmAllocCeiling is the measured 29 allocations per warm
// four-kind batch plus 10 %, rounded down. With Exact.Vector bypassing
// its memo the same batch measures 185.
const exactWarmAllocCeiling = 31

// TestExactWarmQueryAllocs pins the memoized read path: a batch about
// a column set the epoch has been asked about is answered from the
// memoized vector, within exactWarmAllocCeiling allocations.
func TestExactWarmQueryAllocs(t *testing.T) {
	eng, qs := exactWarmFixture(t)
	if allocs := testing.AllocsPerRun(200, func() { eng.QueryBatch(qs) }); allocs > exactWarmAllocCeiling {
		t.Fatalf("warm four-kind batch allocates %v times, ceiling %d", allocs, exactWarmAllocCeiling)
	}
}

// BenchmarkExactWarmQuery times the same batch; one iteration is one
// 4-query batch.
func BenchmarkExactWarmQuery(b *testing.B) {
	eng, qs := exactWarmFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := eng.QueryBatch(qs); res[3].Err != nil {
			b.Fatal(res[3].Err)
		}
	}
}

// exactEpochRows is the row count of each shard (or source) of the
// epoch-cut fixture: 100k rows of d = 16 are 3.2 MB apiece.
const exactEpochRows = 100_000

// exactEpochFixture builds an exact engine of 2 shards whose rows an
// epoch cut must cover: 2 × exactEpochRows ingested rows, or with
// sources set, empty shards plus 2 absorbed exact sources of
// exactEpochRows rows each (an aggregator).
func exactEpochFixture(tb testing.TB, sources bool) *Sharded {
	tb.Helper()
	eng, err := NewSharded(exactFactory(16, 4), Config{Shards: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	for s := range 2 {
		rows := distinctRows(s, 0, exactEpochRows)
		if !sources {
			eng.ObserveBatch(rows)
			continue
		}
		donor, err := core.NewExact(16, 4)
		if err != nil {
			tb.Fatal(err)
		}
		donor.ObserveBatch(rows)
		if err := eng.AbsorbSource(string(rune('a'+s)), donor); err != nil {
			tb.Fatal(err)
		}
	}
	if snap, err := eng.Flush(); err != nil || snap.Rows() != 2*exactEpochRows {
		tb.Fatalf("fixture epoch: %v rows, %v", snap.Rows(), err)
	}
	return eng
}

// rebuild cuts one epoch, as the first read after a write does.
func (s *Sharded) rebuild(tb testing.TB) *epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.rebuildLocked()
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// exactEpochCutLimit bounds the bytes one cut of the fixture may
// allocate: a fresh registry and a slice header per run. Copying the
// rows, as a Merge that appends them does, allocates the 6.4 MB table.
const exactEpochCutLimit = 64 << 10

// TestExactEpochCutDoesNotCopyRows gates the cost of an epoch cut on
// an exact engine: exact shards' and sources' rows are shared by the
// epoch, so a cut allocates far less than the rows it covers.
func TestExactEpochCutDoesNotCopyRows(t *testing.T) {
	for _, sources := range []bool{false, true} {
		eng := exactEpochFixture(t, sources)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := eng.rebuild(t)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= exactEpochCutLimit {
			t.Fatalf("sources=%v: one epoch cut allocated %d bytes, limit %d (the rows are %d bytes)",
				sources, got, exactEpochCutLimit, e.size)
		}
	}
}

// BenchmarkEpochRebuildExact times one epoch cut over the same
// fixtures: shards=2 is a node's cut, sources=2 an aggregator's.
func BenchmarkEpochRebuildExact(b *testing.B) {
	for _, v := range []struct {
		name    string
		sources bool
	}{{"shards=2", false}, {"sources=2", true}} {
		b.Run(v.name, func(b *testing.B) {
			eng := exactEpochFixture(b, v.sources)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.rebuild(b)
			}
		})
	}
}

// netEpochFixture builds a net engine of the given shards shaped like
// net-ingest's daemon (StandardSummary("net", d, 4, …), α 0.3, ε 0.05)
// and feeds it 4096 Zipf rows, so that an epoch cut covers every
// member's sketches.
func netEpochFixture(tb testing.TB, d, shards int) *Sharded {
	tb.Helper()
	eng, err := NewSharded(func(shard int) (core.Summary, error) {
		return StandardSummary("net", d, 4, 0.05, 0.01, 0.3, 1, shard)
	}, Config{Shards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	eng.ObserveBatch(words.Collect(workload.ZipfPatterns(d, 4, 4096, 4096, 1.1, 36), -1).Batch())
	if snap, err := eng.Flush(); err != nil || snap.Rows() != 4096 {
		tb.Fatalf("fixture epoch: %v rows, %v", snap.Rows(), err)
	}
	return eng
}

// netEpochCutAllocCeiling is the measured allocations of one cut of the
// d = 8 fixture, 105 with 1 shard and 106 with 2, plus 10 %, rounded
// down. Building a fresh net and merging every shard into it measured
// 4,007 and 4,024.
const netEpochCutAllocCeiling = 116

// TestNetEpochCutAllocs pins the cost of a net epoch cut: shard 0 is
// copied, not rebuilt and merged. Under the race detector the cuts
// still run, but the count is not asserted: sync.Pool then drops one
// Put in four, and each dropped KMV merge buffer is allocated again.
func TestNetEpochCutAllocs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		eng := netEpochFixture(t, 8, shards)
		if allocs := testing.AllocsPerRun(20, func() { eng.rebuild(t) }); allocs > netEpochCutAllocCeiling && !raceEnabled {
			t.Fatalf("shards=%d: one net epoch cut allocates %v times, ceiling %d", shards, allocs, netEpochCutAllocCeiling)
		}
	}
}

// BenchmarkEpochRebuildNet times one epoch cut of the net fixture at
// d = 8 (18 members) and d = 16 (1,394 members).
func BenchmarkEpochRebuildNet(b *testing.B) {
	for _, d := range []int{8, 16} {
		for _, shards := range []int{1, 2} {
			b.Run(fmt.Sprintf("d=%d/shards=%d", d, shards), func(b *testing.B) {
				eng := netEpochFixture(b, d, shards)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.rebuild(b)
				}
			})
		}
	}
}

// replayRecords is the record count of the replay fixture's log tail:
// 2,048 batches of 256 rows at d = 16 take 2.1 MB of packed rows at
// q = 4 and 3.2 MB at q = 7, three and four 1 MiB segments (16.8 MB
// as u16 symbols). At d = 8, q = 4 they take 1.05 MB, two segments.
const replayRecords = 2048

// replayFixture writes a log tail shaped like durable-mixed's, d
// columns over [q], into a temporary directory — 256-row Zipf batches,
// cycled from a pool of 64 — and returns the store opened over it and
// the tail's row count.
func replayFixture(tb testing.TB, d, q int) (*store.Store, int64) {
	tb.Helper()
	const batchRows, pool = 256, 64
	opts := store.Options{Dir: tb.TempDir(), Dim: d, Alphabet: q, Fsync: store.FsyncNever}
	w, err := store.Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	rows := words.Collect(workload.ZipfPatterns(d, q, pool*batchRows, 4096, 1.1, 36), -1).Batch()
	for i := range replayRecords {
		lo := i % pool * batchRows
		if err := w.AppendBatch(rows.Slice(lo, lo+batchRows)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	// Recover runs before the first append, so the tail is read back
	// through a second Open, as a restarted daemon reads it.
	st, err := store.Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	return st, replayRecords * batchRows
}

// BenchmarkReplay times recovery of that tail into a 2-shard engine
// as the daemon replays it: reading the segments, verifying every
// frame, and routing each record's packed body as it lies in the
// segment (Record.Packed → ReplayPacked), up to the workers' last row.
// The q rows are the durable-mixed engine (d = 16, Theorem 5.1's
// sampler at ε 0.2, δ 0.1): at q = 4 every 2-bit field is a symbol; at
// q = 7 verifying a frame checks each 3-bit field against the
// alphabet, the only unpack left. The net row is net-ingest's summary
// (d = 8, q = 4, α 0.3, ε 0.05), where the shard workers' sketch
// updates are nearly all of a replay. One iteration is one whole
// recovery; ns/row divides it by the tail's rows.
//
//	go test ./internal/engine -run '^$' -bench Replay -benchmem
func BenchmarkReplay(b *testing.B) {
	for _, q := range []int{4, 7} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			benchmarkReplay(b, 16, q, func(shard int) (core.Summary, error) {
				return StandardSummary("sample", 16, q, 0.2, 0.1, 0, 1, shard)
			})
		})
	}
	b.Run("net/d=8/q=4", func(b *testing.B) {
		benchmarkReplay(b, 8, 4, func(shard int) (core.Summary, error) {
			return StandardSummary("net", 8, 4, 0.05, 0.01, 0.3, 1, shard)
		})
	})
}

func benchmarkReplay(b *testing.B, d, q int, factory Factory) {
	st, rows := replayFixture(b, d, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewSharded(factory, Config{Shards: 2})
		if err != nil {
			b.Fatal(err)
		}
		info, err := st.Recover(nil, func(rec store.Record) error {
			return eng.ReplayPacked(rec.Packed)
		})
		if err != nil || info.Rows != rows {
			b.Fatalf("recovered %d rows of %d: %v", info.Rows, rows, err)
		}
		if _, err := eng.Flush(); err != nil {
			b.Fatal(err)
		}
		eng.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*rows), "ns/row")
}
