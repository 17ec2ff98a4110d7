package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/words"
	"repro/internal/workload"
)

// The two hot paths whose allocation counts are pinned, each as a
// fixture shared by a test (the gate, part of go test ./...) and a
// benchmark (the profiling entry point):
//
//	go test ./internal/engine -run '^$' -bench 'ObserveBatch|ExactWarm' -cpuprofile cpu.pb.gz

// observeBatchFixture builds the ingest fixture: 4 shards of bounded
// reservoir samples — per-row work is one RNG draw and the state does
// not grow, so what is left is the engine's own path, one arena copy
// and one channel send per chunk — and one 256-row batch (one chunk).
// A reservoir allocates when it replaces a row, with probability 256
// over the rows its shard has seen, so the fixture first ingests 4M
// rows: a replacement is then a once-in-sixteen-batches event and the
// average the gate reads is the engine's.
func observeBatchFixture(tb testing.TB) (*Sharded, *words.Batch) {
	tb.Helper()
	eng, err := NewSharded(func(shard int) (core.Summary, error) {
		return core.NewSample(16, 4, 256, uint64(shard)+1, core.WithReservoir())
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
