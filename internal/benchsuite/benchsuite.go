// Package benchsuite holds the repository's reproducible benchmark
// workloads as plain functions over *testing.B, so the same code runs
// two ways: wrapped as ordinary Benchmark* functions in the root
// bench_test.go (go test -bench), and driven by cmd/bench through
// testing.Benchmark to produce the committed BENCH_<n>.json trajectory
// files. Every workload here times one row (ingestion benches) or one
// batch (query benches) per iteration, so ns/op convert directly to
// rows/sec or batches/sec.
package benchsuite

import (
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/words"
	"repro/internal/workload"
)

const (
	benchDim   = 16
	benchQ     = 4
	benchPool  = 1 << 12 // distinct rows cycled through the benches
	ingestRows = 256     // batch size for batched ingestion
)

// benchEngine builds the standard bench engine: 4 shards over bounded
// reservoir-sample summaries, so per-row work is one RNG draw and the
// state (and hence merge cost) stays constant regardless of b.N — what
// the benches then measure is the engine machinery itself.
func benchEngine(b *testing.B, cfg engine.Config) *engine.Sharded {
	b.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Queue == 0 {
		cfg.Queue = 1024
	}
	eng, err := engine.NewSharded(func(shard int) (core.Summary, error) {
		return core.NewSample(benchDim, benchQ, 256, uint64(shard)+1, core.WithReservoir())
	}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchRows builds the shared row pool.
func benchRows() *words.Batch {
	data := make([]uint16, benchPool*benchDim)
	src := rng.New(35)
	for i := range data {
		data[i] = uint16(src.Intn(benchQ))
	}
	return words.BatchOf(benchDim, data)
}

// IngestBatch times batched engine ingestion in chunks of 256 rows
// (one arena copy and one channel send per chunk). One iteration is
// one row.
func IngestBatch(b *testing.B) {
	eng := benchEngine(b, engine.Config{})
	defer eng.Close()
	rows := benchRows()
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < b.N; lo += ingestRows {
		n := ingestRows
		if lo+n > b.N {
			n = b.N - lo
		}
		eng.ObserveBatch(rows.Slice(0, n))
	}
	if _, err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
}

// SketchIngest times the batched key pipeline through a sketch-backed
// summary: a Subset summary over the C(16, 2) = 120 subset KMVs
// consumes 256-row batches directly (no engine), so ns/op isolates the
// per-(member, row) projection + fingerprint + sketch cost that the
// member-major loops pay — the number the key-pipeline refactor moves.
// One iteration is one row (each row fans out to all 120 members).
func SketchIngest(b *testing.B) {
	sum, err := core.NewSubset(benchDim, benchQ, 2, 0.1, 42, 0)
	if err != nil {
		b.Fatal(err)
	}
	rows := benchRows()
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < b.N; lo += ingestRows {
		n := ingestRows
		if lo+n > b.N {
			n = b.N - lo
		}
		sum.ObserveBatch(rows.Slice(0, n))
	}
}

// benchQueries is a small mixed read batch over the bench engine's
// reservoir-sample shards: point-frequency probes across distinct
// projections (the class the sample summary answers).
func benchQueries() []engine.Query {
	var qs []engine.Query
	for i := 0; i < 4; i++ {
		c := words.MustColumnSet(benchDim, i, i+4, i+8)
		qs = append(qs, engine.Query{
			Kind:    engine.KindFrequency,
			Cols:    c,
			Pattern: make(words.Word, 3),
		})
	}
	return qs
}

// QueryWarm times QueryBatch against a settled engine: the epoch is
// current and the result cache is hot, so this is the read fast path.
// One iteration is one 4-query batch.
func QueryWarm(b *testing.B) {
	eng := benchEngine(b, engine.Config{})
	defer eng.Close()
	rows := benchRows()
	eng.ObserveBatch(rows.Slice(0, benchPool))
	qs := benchQueries()
	if res := eng.QueryBatch(qs); res[0].Err != nil {
		b.Fatal(res[0].Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := eng.QueryBatch(qs); res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
}

// Plan times the planner alone — registry.Registry.Plan over an
// 8-subspace registry, cycling an exact-match probe, a covering scan
// and a full fallback. No summary is queried. One iteration is one
// planning decision.
func Plan(b *testing.B) {
	full, err := core.NewExact(benchDim, 2)
	if err != nil {
		b.Fatal(err)
	}
	reg, err := registry.New(full)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		sub, err := core.NewExact(benchDim, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := reg.RegisterSubspace(words.MustColumnSet(benchDim, i, i+1, i+2), sub); err != nil {
			b.Fatal(err)
		}
	}
	probes := []words.ColumnSet{
		words.MustColumnSet(benchDim, 3, 4, 5), // exact
		words.MustColumnSet(benchDim, 6, 7),    // covering
		words.MustColumnSet(benchDim, 12, 15),  // full fallback
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := reg.Plan(probes[i%len(probes)]); t.Summary == nil {
			b.Fatal("nil plan target")
		}
	}
}

// exactQueryRows is the fixed state of the exact-query benches. An
// exact summary's cold query is a pass over every retained row, so the
// state must not grow with b.N.
const exactQueryRows = 20000

// exactQueryEngine builds a 2-shard engine over exact summaries holding
// exactQueryRows Zipf-distributed rows, with the result cache cut down
// to one entry so that every query is evaluated.
func exactQueryEngine(b *testing.B) *engine.Sharded {
	b.Helper()
	eng, err := engine.NewSharded(func(int) (core.Summary, error) {
		return core.NewExact(benchDim, benchQ)
	}, engine.Config{Shards: 2, CacheSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	words.Drain(workload.ZipfPatterns(benchDim, benchQ, exactQueryRows, 4096, 1.1, 35), eng.Observe)
	if _, err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
	return eng
}

// ExactCold times an exact query whose column set is new to the epoch:
// plan, one pass over the 20k retained rows into a frequency vector,
// answer. The column sets cycle through all C(16, 3) = 560 triples —
// far more than an exact summary memoizes — so no iteration finds its
// vector built. One iteration is one single-query batch.
func ExactCold(b *testing.B) {
	eng := exactQueryEngine(b)
	defer eng.Close()
	var sets []words.ColumnSet
	for i := 0; i < benchDim; i++ {
		for j := i + 1; j < benchDim; j++ {
			for k := j + 1; k < benchDim; k++ {
				sets = append(sets, words.MustColumnSet(benchDim, i, j, k))
			}
		}
	}
	q := []engine.Query{{Kind: engine.KindF0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q[0].Cols = sets[i%len(sets)]
		if res := eng.QueryBatch(q); res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
}

// ExactWarm times exact queries about a column set the epoch has
// already been asked about: all four kinds in one batch, answered from
// the memoized vector. The one-entry result cache would hold the last
// answer of the previous batch, so the last query's φ moves a little
// every iteration and all four are evaluated. One iteration is one
// 4-query batch; its allocs/op are CI-gated.
func ExactWarm(b *testing.B) {
	eng := exactQueryEngine(b)
	defer eng.Close()
	c := words.MustColumnSet(benchDim, 1, 5, 9)
	qs := []engine.Query{
		{Kind: engine.KindF0, Cols: c},
		{Kind: engine.KindFp, Cols: c, P: 2},
		{Kind: engine.KindFrequency, Cols: c, Pattern: make(words.Word, 3)},
		{Kind: engine.KindHeavyHitters, Cols: c, P: 1, Phi: 0.05},
	}
	if res := eng.QueryBatch(qs); res[3].Err != nil {
		b.Fatal(res[3].Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qs[3].Phi = 0.05 + float64(1+i%1024)*1e-9
		for _, r := range eng.QueryBatch(qs) {
			if r.Err != nil || r.Cached {
				b.Fatalf("warm batch: error %v, served by the result cache: %v", r.Err, r.Cached)
			}
		}
	}
}

// WALAppend times write-ahead-log batch appends (256 rows per record,
// interval fsync — the daemon's default policy). One iteration is one
// row.
func WALAppend(b *testing.B) {
	dir, err := os.MkdirTemp("", "benchwal")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	wal, err := store.Open(store.Options{Dir: dir, Dim: benchDim, Alphabet: benchQ, Fsync: store.FsyncInterval})
	if err != nil {
		b.Fatal(err)
	}
	defer wal.Close()
	rows := benchRows()
	chunk := rows.Slice(0, ingestRows)
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < b.N; lo += ingestRows {
		if err := wal.AppendBatch(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// MixedMode selects the read-side configuration of MixedReadWrite.
type MixedMode int

// The mixed-workload variants. Comparing EpochReaders against
// IngestOnly measures how much the read load costs ingestion under the
// epoch read path; StrictReaders is the quiesce-on-every-read baseline
// the epoch refactor replaced.
const (
	// MixedIngestOnly runs the writer alone: the read-free ingestion
	// ceiling the other variants are measured against.
	MixedIngestOnly MixedMode = iota
	// MixedEpochReaders issues the read load against an engine with a
	// staleness budget: reads serve the published epoch lock-free.
	MixedEpochReaders
	// MixedStrictReaders issues the same read load against a strict
	// (zero-budget) engine: every read under write traffic rebuilds
	// through the worker quiesce barrier.
	MixedStrictReaders
)

// mixedReadEvery is the read cadence: one QueryBatch per this many
// ingested rows (a dashboard polling a busy writer, several hundred
// reads/sec at the measured ingest rates).
const mixedReadEvery = 8192

// mixedSampleT is the reservoir capacity of the mixed workload's
// summaries. It is deliberately large: per-row ingestion stays a
// cheap constant (one RNG draw), but cutting a snapshot merges four
// 8k-row reservoirs with the workers paused — the
// ingest-cheap/merge-expensive ratio where the quiesce barrier hurts
// most. Bounded state keeps the merge cost constant in b.N, which a
// benchmark requires (retain-everything summaries like Exact make
// rebuild cost grow with the iteration count and the numbers
// meaningless).
const mixedSampleT = 1 << 13

// MixedReadWrite times trickle ingestion (one Observe call, i.e. a
// one-row batch, per row) under a fixed read load: one 4-query
// QueryBatch every 8192 ingested rows, issued between rows so the
// schedule is deterministic (time-based polling goroutines make
// single-core runs scheduler-noise-dominated; the -race stress test
// covers true read/write races). One iteration is one ingested row:
// ns/op is the cost of a row's share of the whole mixed workload, and
// the ns/read metric is the mean read latency.
//
// Under strict mode every read under write traffic pays a full
// rebuild — quiesce all workers, merge four reservoirs, re-evaluate
// the batch against a cold cache generation. Under a staleness budget
// rebuilds amortize to once per budget and the in-between reads are
// lock-free cache hits on the published epoch, so reads neither stall
// ingestion nor wait for it.
func MixedReadWrite(b *testing.B, mode MixedMode) {
	cfg := engine.Config{Shards: 4, Queue: 8}
	if mode == MixedEpochReaders {
		// Reads may lag ingestion by up to 1M rows before a rebuild
		// (under 200ms at the measured ingest rates); the benchmark's
		// answers stay bounded-stale, never wrong.
		cfg.MaxStalenessRows = 1 << 20
	}
	eng, err := engine.NewSharded(func(shard int) (core.Summary, error) {
		return core.NewSample(benchDim, benchQ, mixedSampleT, uint64(shard)+1, core.WithReservoir())
	}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	rows := benchRows()
	eng.ObserveBatch(rows.Slice(0, benchPool)) // settle a first epoch
	qs := benchQueries()
	if res := eng.QueryBatch(qs); res[0].Err != nil {
		b.Fatal(res[0].Err)
	}

	var readNS, reads int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Observe(rows.Row(i % benchPool))
		if mode != MixedIngestOnly && i%mixedReadEvery == 0 {
			t0 := time.Now()
			if res := eng.QueryBatch(qs); res[0].Err != nil {
				b.Fatal(res[0].Err)
			}
			readNS += int64(time.Since(t0))
			reads++
		}
	}
	// The final Flush stays inside the timed region: it waits for the
	// workers to fully process every enqueued row, so ns/op charges the
	// worker time reads steal (barrier pauses) instead of measuring
	// only the enqueue side, which a queue can hide.
	if _, err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if reads > 0 {
		b.ReportMetric(float64(readNS)/float64(reads), "ns/read")
	}
}
