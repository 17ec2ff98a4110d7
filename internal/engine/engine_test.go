package engine

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/rng"
	"repro/internal/words"
)

// testTable builds a deterministic skewed table over d=10 binary
// columns with a planted heavy pattern on columns {0,1,2}.
func testTable(n int, seed uint64) *words.Table {
	src := rng.New(seed)
	tb := words.NewTable(10, 2)
	for i := 0; i < n; i++ {
		w := make(words.Word, 10)
		if src.Float64() < 0.3 {
			w[0], w[1], w[2] = 1, 1, 1
			for j := 6; j < 10; j++ {
				w[j] = uint16(src.Intn(2))
			}
		} else {
			for j := range w {
				w[j] = uint16(src.Intn(2))
			}
		}
		tb.Append(w)
	}
	return tb
}

func exactFactory(d, q int) Factory {
	return func(int) (core.Summary, error) { return core.NewExact(d, q) }
}

func netFactory(d, q int, cfg core.NetConfig) Factory {
	return func(int) (core.Summary, error) { return core.NewNet(d, q, cfg) }
}

func feedEngine(t *testing.T, s *Sharded, tb *words.Table) {
	t.Helper()
	src := tb.Source()
	for {
		w, ok := src.Next()
		if !ok {
			return
		}
		s.Observe(w)
	}
}

func TestShardedExactMatchesSingleSummary(t *testing.T) {
	tb := testTable(5000, 1)
	single, err := core.NewExact(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewSharded(exactFactory(10, 2), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	src := tb.Source()
	for {
		w, ok := src.Next()
		if !ok {
			break
		}
		single.Observe(w)
		eng.Observe(w)
	}
	if eng.Rows() != single.Rows() {
		t.Fatalf("rows %d != %d", eng.Rows(), single.Rows())
	}
	c := words.MustColumnSet(10, 0, 1, 2)
	for _, q := range []Query{
		{Kind: KindF0, Cols: c},
		{Kind: KindFp, Cols: c, P: 2},
		{Kind: KindFrequency, Cols: c, Pattern: words.Word{1, 1, 1}},
	} {
		got := eng.QueryBatch([]Query{q})[0]
		want := answer(single, q)
		if got.Err != nil || want.Err != nil {
			t.Fatal(got.Err, want.Err)
		}
		if got.Value != want.Value {
			t.Fatalf("%s: sharded %v != single %v", q.Kind, got.Value, want.Value)
		}
	}
	hh := eng.QueryBatch([]Query{{Kind: KindHeavyHitters, Cols: c, P: 1, Phi: 0.25}})[0]
	if hh.Err != nil || len(hh.Hits) == 0 || !hh.Hits[0].Pattern.Equal(words.Word{1, 1, 1}) {
		t.Fatalf("heavy hitters through engine: %+v (%v)", hh.Hits, hh.Err)
	}
}

func TestShardedNetMatchesSingleSummary(t *testing.T) {
	// Same-seed Net shards merge to exactly the single-pass summary:
	// KMV union and p-stable sum are both order-independent.
	cfg := core.NetConfig{Alpha: 0.3, Epsilon: 0.25, Moments: []float64{2}, StableReps: 40, Seed: 7}
	tb := testTable(2000, 2)
	single, err := core.NewNet(10, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewSharded(netFactory(10, 2, cfg), Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	src := tb.Source()
	for {
		w, ok := src.Next()
		if !ok {
			break
		}
		single.Observe(w)
		eng.Observe(w)
	}
	for _, cols := range [][]int{{0, 1}, {0, 1, 2, 3, 4}, {5, 6, 7}} {
		c := words.MustColumnSet(10, cols...)
		gotF0, err1 := eng.F0(c)
		wantF0, err2 := single.F0(c)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if gotF0 != wantF0 {
			t.Fatalf("F0(%v): sharded %v != single %v", cols, gotF0, wantF0)
		}
		gotF2, err1 := eng.Fp(c, 2)
		wantF2, err2 := single.Fp(c, 2)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if math.Abs(gotF2-wantF2) > 1e-9*math.Abs(wantF2) {
			t.Fatalf("F2(%v): sharded %v != single %v", cols, gotF2, wantF2)
		}
	}
}

func TestShardedSampleFrequencyWithinTolerance(t *testing.T) {
	tb := testTable(20000, 3)
	eng, err := NewSharded(func(shard int) (core.Summary, error) {
		// Independent per-shard seeds: Sample merges do not require
		// seed equality, and independent shards sample better.
		return core.NewSample(10, 2, 1200, 100+uint64(shard))
	}, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	feedEngine(t, eng, tb)
	c := words.MustColumnSet(10, 0, 1, 2)
	truth := float64(freq.FromTable(tb, c).CountWord(words.Word{1, 1, 1}))
	got, err := eng.Frequency(c, words.Word{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-truth) > 0.05*float64(tb.NumRows()) {
		t.Fatalf("sharded sample estimate %v, truth %v", got, truth)
	}
}

func TestShardedUnsupportedQueryClass(t *testing.T) {
	eng, err := NewSharded(func(shard int) (core.Summary, error) {
		return core.NewSample(10, 2, 64, uint64(shard))
	}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Observe(make(words.Word, 10))
	if _, err := eng.F0(words.MustColumnSet(10, 0)); !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("sample engine F0 must be unsupported, got %v", err)
	}
}

func TestShardedFactoryValidation(t *testing.T) {
	if _, err := NewSharded(func(int) (core.Summary, error) {
		return unmergeable{}, nil
	}, Config{Shards: 2}); err == nil {
		t.Fatal("non-mergeable base summary must be rejected")
	}
	shape := 0
	if _, err := NewSharded(func(int) (core.Summary, error) {
		shape++
		return core.NewExact(3+shape, 2)
	}, Config{Shards: 2}); err == nil {
		t.Fatal("mismatched shard shapes must be rejected")
	}
}

// TestConcurrentObserveAndQuery drives ingestion and batched queries
// from many goroutines at once; run under -race this is the engine's
// central soundness check.
func TestConcurrentObserveAndQuery(t *testing.T) {
	eng, err := NewSharded(exactFactory(10, 2), Config{Shards: 4, Queue: 64})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers        = 4
		rowsPerWriter  = 2000
		readers        = 3
		queriesPerRead = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w + 1))
			row := make(words.Word, 10)
			for i := 0; i < rowsPerWriter; i++ {
				for j := range row {
					row[j] = uint16(src.Intn(2))
				}
				eng.Observe(row)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := words.MustColumnSet(10, r, r+1, r+2)
			for i := 0; i < queriesPerRead; i++ {
				res := eng.QueryBatch([]Query{
					{Kind: KindF0, Cols: c},
					{Kind: KindFrequency, Cols: c, Pattern: words.Word{1, 1, 1}},
				})
				for _, x := range res {
					if x.Err != nil {
						t.Error(x.Err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	eng.Close()
	want := int64(writers * rowsPerWriter)
	if eng.Rows() != want {
		t.Fatalf("rows %d, want %d", eng.Rows(), want)
	}
	// After close the engine still answers, and the final snapshot
	// reflects every accepted row.
	snap, err := eng.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Rows() != want {
		t.Fatalf("snapshot rows %d, want %d", snap.Rows(), want)
	}
}

// TestShardedObserveBatchMatchesRowPath: batch ingestion through the
// engine answers every query exactly like per-row ingestion — chunked
// routing only changes which shard holds which rows, which the merge
// contract makes invisible. Checked for Exact (order-free merge) and
// a same-seed Net (sketch merges are exact).
func TestShardedObserveBatchMatchesRowPath(t *testing.T) {
	tb := testTable(5000, 8)
	netCfg := core.NetConfig{Alpha: 0.3, Epsilon: 0.25, Moments: []float64{2}, StableReps: 20, Seed: 7}
	for _, tc := range []struct {
		name    string
		factory Factory
	}{
		{"exact", exactFactory(10, 2)},
		{"net", netFactory(10, 2, netCfg)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rowEng, err := NewSharded(tc.factory, Config{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer rowEng.Close()
			feedEngine(t, rowEng, tb)

			batchEng, err := NewSharded(tc.factory, Config{Shards: 3, BatchChunk: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer batchEng.Close()
			// Feed in uneven batches, reusing one Batch buffer across
			// calls: the engine must copy chunks before handoff.
			batch := words.NewBatch(10, 128)
			src := tb.Source()
			sizes := []int{1, 97, 3, 128, 64}
			for si := 0; ; si++ {
				batch.Reset()
				want := sizes[si%len(sizes)]
				for batch.Len() < want {
					w, ok := src.Next()
					if !ok {
						break
					}
					batch.Append(w)
				}
				if batch.Len() == 0 {
					break
				}
				batchEng.ObserveBatch(batch)
			}
			if batchEng.Rows() != rowEng.Rows() {
				t.Fatalf("rows %d != %d", batchEng.Rows(), rowEng.Rows())
			}
			for _, cols := range [][]int{{0, 1, 2}, {5, 6}, {3, 7, 9}} {
				c := words.MustColumnSet(10, cols...)
				queries := []Query{
					{Kind: KindF0, Cols: c},
					{Kind: KindFp, Cols: c, P: 2},
				}
				if tc.name == "exact" {
					queries = append(queries, Query{Kind: KindFrequency, Cols: c, Pattern: make(words.Word, len(cols))})
				}
				got := batchEng.QueryBatch(queries)
				want := rowEng.QueryBatch(queries)
				for i := range queries {
					if got[i].Err != nil || want[i].Err != nil {
						t.Fatal(got[i].Err, want[i].Err)
					}
					if math.Abs(got[i].Value-want[i].Value) > 1e-9*math.Abs(want[i].Value) {
						t.Fatalf("%s %v: batch %v != row %v", queries[i].Kind, cols, got[i].Value, want[i].Value)
					}
				}
			}
		})
	}
}

// TestObserveShapePanicIsTheCallers: a wrong-length row panics in the
// goroutine that called Observe, where it can be recovered, and the
// engine keeps ingesting. Without a durability log the row used to
// reach a shard worker unchecked and panic there, which no caller
// frame can recover: it took the process down.
func TestObserveShapePanicIsTheCallers(t *testing.T) {
	eng, err := NewSharded(exactFactory(4, 2), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a 3-symbol row into a 4-column engine must panic")
			}
		}()
		eng.Observe(words.Word{0, 1, 0})
	}()
	eng.Observe(words.Word{0, 1, 0, 1})
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if eng.Rows() != 1 {
		t.Fatalf("engine holds %d rows after one good row, want 1", eng.Rows())
	}
}

// TestFlushReflectsAcceptedRows is the regression test for the
// accepted-rows clock ordering: Observe/ObserveBatch must count a row
// only once it is in a shard queue, so any Flush that starts after an
// Observe returned is guaranteed to reflect that row. The old code
// incremented the clock before the channel send, letting a concurrent
// Flush quiesce in the gap and return a snapshot claiming rows it did
// not contain.
func TestFlushReflectsAcceptedRows(t *testing.T) {
	eng, err := NewSharded(exactFactory(10, 2), Config{Shards: 4, Queue: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			row := make(words.Word, 10)
			batch := words.NewBatch(10, 8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if i%3 == 0 {
					batch.Reset()
					for r := 0; r < 5; r++ {
						batch.Append(row)
					}
					eng.ObserveBatch(batch)
				} else {
					eng.Observe(row)
				}
			}
		}(w)
	}
	for i := 0; i < 60; i++ {
		accepted := eng.Rows()
		snap, err := eng.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Rows() < accepted {
			t.Fatalf("flush snapshot has %d rows, but %d were accepted before the flush", snap.Rows(), accepted)
		}
	}
	close(stop)
	wg.Wait()
}

// TestObserveBatchInterleavedWithAbsorbAndQueryBatch drives batched
// ingestion, donor merges, and batched queries concurrently (the
// -race soundness check for the batch path), then verifies the final
// row accounting.
func TestObserveBatchInterleavedWithAbsorbAndQueryBatch(t *testing.T) {
	eng, err := NewSharded(exactFactory(10, 2), Config{Shards: 4, Queue: 32, BatchChunk: 16})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers       = 3
		batchesPerW   = 40
		rowsPerBatch  = 25
		absorbs       = 10
		rowsPerDonor  = 30
		readerQueries = 30
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w + 100))
			batch := words.NewBatch(10, rowsPerBatch)
			for i := 0; i < batchesPerW; i++ {
				batch.Reset()
				for r := 0; r < rowsPerBatch; r++ {
					row := batch.AppendRow()
					for j := range row {
						row[j] = uint16(src.Intn(2))
					}
				}
				eng.ObserveBatch(batch)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < absorbs; i++ {
			donor, err := core.NewExact(10, 2)
			if err != nil {
				t.Error(err)
				return
			}
			row := make(words.Word, 10)
			for r := 0; r < rowsPerDonor; r++ {
				row[0] = uint16(r % 2)
				donor.Observe(row)
			}
			if err := eng.Absorb(donor); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := words.MustColumnSet(10, 0, 1, 2)
		for i := 0; i < readerQueries; i++ {
			res := eng.QueryBatch([]Query{
				{Kind: KindF0, Cols: c},
				{Kind: KindFp, Cols: c, P: 2},
			})
			for _, r := range res {
				if r.Err != nil {
					t.Error(r.Err)
					return
				}
			}
		}
	}()
	wg.Wait()
	eng.Close()
	want := int64(writers*batchesPerW*rowsPerBatch + absorbs*rowsPerDonor)
	if eng.Rows() != want {
		t.Fatalf("rows %d, want %d", eng.Rows(), want)
	}
	snap, err := eng.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Rows() != want {
		t.Fatalf("snapshot rows %d, want %d", snap.Rows(), want)
	}
}

// unmergeable is a minimal summary without Merge, for factory
// validation tests (every core summary is mergeable these days).
type unmergeable struct{}

func (unmergeable) ObserveBatch(*words.Batch) {}
func (unmergeable) Observe(words.Word)        {}
func (unmergeable) Dim() int                  { return 4 }
func (unmergeable) Alphabet() int             { return 2 }
func (unmergeable) Rows() int64               { return 0 }
func (unmergeable) SizeBytes() int            { return 0 }
func (unmergeable) Name() string              { return "unmergeable" }

func TestAbsorbInvalidatesSnapshotDespiteDonorRowCount(t *testing.T) {
	// A donor blob can carry sketch state while claiming zero rows
	// (Net row counts cannot be cross-checked against sketch content),
	// so Absorb must drop any existing snapshot outright instead of
	// relying on the row clock to mark it stale.
	cfg := core.NetConfig{Alpha: 0.3, Epsilon: 0.3, Seed: 5}
	eng, err := NewSharded(netFactory(10, 2, cfg), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Observe(make(words.Word, 10))
	if _, err := eng.Flush(); err != nil { // builds a snapshot
		t.Fatal(err)
	}
	donor, err := core.NewNet(10, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		w := make(words.Word, 10)
		for j := range w {
			w[j] = uint16((i >> j) & 1)
		}
		donor.Observe(w)
	}
	blob, err := core.MarshalSummary(donor)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(blob[24:], 0) // lie: zero rows
	dec, err := core.UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rows() != 0 {
		t.Fatalf("crafted donor reports %d rows", dec.Rows())
	}
	if err := eng.Absorb(dec); err != nil {
		t.Fatal(err)
	}
	c := words.MustColumnSet(10, 0, 1, 2)
	f0, err := eng.F0(c)
	if err != nil {
		t.Fatal(err)
	}
	if f0 < 2 {
		t.Fatalf("post-absorb snapshot is stale: F0 = %v, want the donor's patterns visible", f0)
	}
}
