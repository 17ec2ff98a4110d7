package engine

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/words"
)

// fourKinds asks every query class about one column set.
func fourKinds(c words.ColumnSet) []Query {
	return []Query{
		{Kind: KindF0, Cols: c},
		{Kind: KindFp, Cols: c, P: 1},
		{Kind: KindFrequency, Cols: c, Pattern: make(words.Word, c.Len())},
		{Kind: KindHeavyHitters, Cols: c, P: 1, Phi: 0.1},
	}
}

// TestQueryBatchBuildsOncePerColumnSet: a batch is evaluated in groups
// of (target, column set), so an exact engine makes one pass over its
// retained rows per distinct C however many questions the batch asks
// about it — and later batches on the same epoch make none.
func TestQueryBatchBuildsOncePerColumnSet(t *testing.T) {
	for _, workers := range []int{1, 4} {
		eng, err := NewSharded(exactFactory(10, 2), Config{Shards: 2, QueryWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		feedEngine(t, eng, testTable(3000, 31))
		sets := []words.ColumnSet{
			words.MustColumnSet(10, 0, 1, 2), words.MustColumnSet(10, 3, 4), words.MustColumnSet(10, 5),
		}
		// Interleave the sets so that grouping, not batch order, is what
		// brings one C's questions together.
		var batch []Query
		for k := 0; k < 4; k++ {
			for _, c := range sets {
				batch = append(batch, fourKinds(c)[k])
			}
		}
		got, info := eng.QueryBatchInfo(batch)
		if want := (core.MemoStats{Builds: 3, Hits: 9}); info.Memo.Builds != want.Builds || info.Memo.Hits != want.Hits {
			t.Fatalf("workers=%d: memo %+v after one batch, want %d builds and %d hits", workers, info.Memo, want.Builds, want.Hits)
		}
		if info.Memo.BuildTime <= 0 {
			t.Fatalf("workers=%d: no build time recorded", workers)
		}
		epochSeq := info.Seq
		// Every question again, alone, on the same epoch: each is
		// evaluated anew — one more memo hit — and none makes a pass.
		for i, q := range batch {
			one, info := eng.QueryBatchInfo([]Query{q})
			if got[i].Err != nil || one[0].Value != got[i].Value || len(one[0].Hits) != len(got[i].Hits) {
				t.Fatalf("workers=%d: query %d answered %+v in the batch, %+v alone", workers, i, got[i], one[0])
			}
			if info.Seq != epochSeq || info.Memo.Builds != 3 || info.Memo.Hits != int64(9+i+1) {
				t.Fatalf("workers=%d: query %d alone: epoch %d (batch: %d), memo %+v; want one more hit and no build",
					workers, i, info.Seq, epochSeq, info.Memo)
			}
		}
		// A new question about a known C on the same epoch: no new pass.
		r, info := eng.QueryBatchInfo([]Query{{Kind: KindFp, Cols: sets[1], P: 2}})
		if r[0].Err != nil || info.Memo.Builds != 3 || info.Memo.Hits != 22 {
			t.Fatalf("workers=%d: %+v, memo %+v; want a memo hit and no build", workers, r[0], info.Memo)
		}
		// New rows make a new epoch, whose summary starts with no memo.
		eng.Observe(make(words.Word, 10))
		if _, info = eng.QueryBatchInfo(fourKinds(sets[0])); info.Memo.Builds != 1 || info.Memo.Hits != 3 {
			t.Fatalf("workers=%d: memo %+v on the next epoch, want 1 build and 3 hits", workers, info.Memo)
		}
	}
}

// TestConcurrentQueriesShareEpochVectors hammers epochs of an exact
// engine from many goroutines with all four kinds over a few column
// sets while a writer keeps forcing new epochs. It exists for -race
// (shared memoized vectors, the group workers); what it can assert is
// that every batch is answered from one epoch: F1 does not depend on C
// and never falls from one batch of a reader to the next.
func TestConcurrentQueriesShareEpochVectors(t *testing.T) {
	eng, err := NewSharded(exactFactory(10, 2), Config{Shards: 2, QueryWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tb := testTable(4000, 37)
	feedEngine(t, eng, tb)
	sets := []words.ColumnSet{
		words.MustColumnSet(10, 0, 1, 2), words.MustColumnSet(10, 6, 7, 8, 9), words.MustColumnSet(10, 4),
	}
	var batch []Query
	for _, c := range sets {
		batch = append(batch, fourKinds(c)...)
	}

	// The writer adds a row whenever a reader finishes a batch, so new
	// epochs keep coming without the table growing beyond the readers.
	tick := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		i := 0
		for range tick {
			eng.Observe(tb.Row(i % tb.NumRows()))
			i++
		}
	}()
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := 0.0
			for i := 0; i < 40; i++ {
				// Whole batches and single questions, rotated so that
				// goroutines meet on the same C at the same time.
				qs := batch
				if i%2 == 1 {
					qs = batch[(g+i)%len(batch):][:1]
				}
				res, info := eng.QueryBatchInfo(qs)
				select {
				case tick <- struct{}{}:
				default:
				}
				for j, r := range res {
					if r.Err != nil {
						t.Errorf("reader %d batch %d query %d: %v", g, i, j, r.Err)
						return
					}
				}
				if len(qs) == 1 {
					continue
				}
				f1 := res[1].Value
				if res[5].Value != f1 || res[9].Value != f1 || f1 < float64(info.Rows) || f1 < last {
					t.Errorf("reader %d batch %d: F1 per column set %v %v %v, epoch rows %d, previous F1 %v",
						g, i, f1, res[5].Value, res[9].Value, info.Rows, last)
					return
				}
				last = f1
			}
		}()
	}
	readers.Wait()
	close(tick)
	writer.Wait()
}
