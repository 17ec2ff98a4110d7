package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/freq"
	"repro/internal/words"
)

// sameVector reports whether two vectors hold the same counts.
func sameVector(a, b *freq.Vector) bool {
	ea, eb := a.Entries(), b.Entries()
	if len(ea) != len(eb) || a.Total() != b.Total() {
		return false
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return false
		}
	}
	return true
}

func TestExactVectorIsMemoizedPerColumnSet(t *testing.T) {
	e := mustExact(t, 10, 2)
	feed(e, testData(3000, 5))
	c, other := words.MustColumnSet(10, 0, 1, 2), words.MustColumnSet(10, 0, 1, 3)
	size, blob := e.SizeBytes(), mustMarshal(t, e)

	v := e.Vector(c)
	if e.Vector(c) != v || e.Vector(words.MustColumnSet(10, 2, 1, 0)) != v {
		t.Fatal("a repeated column set must return the memoized vector")
	}
	if e.Vector(other) == v {
		t.Fatal("another column set must not share the vector")
	}
	// All four query kinds about one C read one vector.
	if _, err := e.F0(c); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fp(c, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Frequency(c, words.Word{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.HeavyHitters(c, 1, 0.1); err != nil {
		t.Fatal(err)
	}
	if st := e.MemoStats(); st.Builds != 2 || st.Hits != 6 || st.Evictions != 0 || st.BuildTime <= 0 {
		t.Fatalf("memo stats %+v, want 2 builds and 6 hits", st)
	}
	if !sameVector(v, freq.FromTable(e.Table(), c)) {
		t.Fatal("memoized vector differs from a fresh pass")
	}
	// The memo is derived state: not space the summary reports, not
	// bytes it ships.
	if e.SizeBytes() != size || !bytes.Equal(mustMarshal(t, e), blob) {
		t.Fatal("memoized vectors leaked into SizeBytes or the wire form")
	}
}

func mustMarshal(t *testing.T, e *Exact) []byte {
	t.Helper()
	blob, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestExactMutationDropsMemo(t *testing.T) {
	donor := mustExact(t, 10, 2)
	feed(donor, testData(500, 6))
	extra := words.Word{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	batch := words.NewBatch(10, 2)
	batch.Append(extra)
	batch.Append(extra)
	c := words.MustColumnSet(10, 0, 1, 2)
	for name, mutate := range map[string]func(e *Exact){
		"Observe":      func(e *Exact) { e.Observe(extra) },
		"ObserveBatch": func(e *Exact) { e.ObserveBatch(batch) },
		"Merge": func(e *Exact) {
			if err := e.Merge(donor); err != nil {
				t.Fatal(err)
			}
		},
	} {
		e := mustExact(t, 10, 2)
		feed(e, testData(3000, 7))
		before := e.Vector(c)
		mutate(e)
		if st := e.MemoStats(); st != (MemoStats{}) {
			t.Fatalf("%s: memo stats %+v survived the mutation", name, st)
		}
		after := e.Vector(c)
		if after == before {
			t.Fatalf("%s: stale vector served after the mutation", name)
		}
		if after.Total() != e.Rows() || !sameVector(after, freq.FromTable(e.Table(), c)) {
			t.Fatalf("%s: vector does not reflect the mutated table", name)
		}
	}
}

// memoInvariant checks the memo's own accounting and bounds.
func memoInvariant(t *testing.T, e *Exact) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	sum := 0
	for _, ent := range e.memo.entries {
		sum += ent.bytes
	}
	if sum != e.memo.bytes {
		t.Fatalf("memo accounts %d bytes, entries hold %d", e.memo.bytes, sum)
	}
	if len(e.memo.entries) > maxMemoSets || e.memo.bytes > e.memoBudget() {
		t.Fatalf("memo holds %d sets and %d bytes; bounds are %d sets and %d bytes",
			len(e.memo.entries), e.memo.bytes, maxMemoSets, e.memoBudget())
	}
}

func TestExactMemoEvictsOldestAtSetBound(t *testing.T) {
	e := mustExact(t, 10, 2)
	feed(e, testData(3000, 8))
	var sets []words.ColumnSet
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			for c := b + 1; c < 10 && len(sets) <= maxMemoSets; c++ {
				sets = append(sets, words.MustColumnSet(10, a, b, c))
			}
		}
	}
	first := e.Vector(sets[0])
	for _, c := range sets[1:maxMemoSets] {
		e.Vector(c)
	}
	if e.Vector(sets[0]) != first || e.MemoStats().Evictions != 0 {
		t.Fatalf("evicted below the bound of %d sets", maxMemoSets)
	}
	e.Vector(sets[maxMemoSets]) // one more than fits: the oldest goes
	memoInvariant(t, e)
	if st := e.MemoStats(); st.Evictions != 1 {
		t.Fatalf("%d evictions, want 1", st.Evictions)
	}
	again := e.Vector(sets[0])
	if again == first {
		t.Fatal("the oldest set was not the one evicted")
	}
	if e.Vector(sets[2]) == nil || e.MemoStats().Builds != int64(maxMemoSets)+2 {
		t.Fatalf("a younger set was evicted: %+v", e.MemoStats())
	}
	if !sameVector(again, first) {
		t.Fatal("rebuilt vector differs from the evicted one")
	}
	memoInvariant(t, e)
}

func TestExactMemoStaysWithinTableBytes(t *testing.T) {
	// Wide projections of 3000 random rows are nearly all distinct
	// patterns: each vector is a large share of the 60 kB table, so
	// the byte bound — not the set bound — does the evicting.
	e := mustExact(t, 10, 2)
	feed(e, testData(3000, 9))
	for drop := 0; drop < 10; drop++ {
		cols := make([]int, 0, 9)
		for j := 0; j < 10; j++ {
			if j != drop {
				cols = append(cols, j)
			}
		}
		c := words.MustColumnSet(10, cols...)
		v := e.Vector(c)
		memoInvariant(t, e)
		if !sameVector(v, freq.FromTable(e.Table(), c)) {
			t.Fatalf("vector for %v is wrong", c)
		}
		got, err := e.F0(c)
		if err != nil || got != float64(v.Support()) {
			t.Fatalf("F0(%v) = %v, %v; want %d", c, got, err, v.Support())
		}
	}
	if st := e.MemoStats(); st.Evictions == 0 {
		t.Fatalf("ten wide vectors fit beside a %d-byte table: %+v", e.memoBudget(), st)
	}
	// A vector larger than the whole table is handed out but not kept.
	tiny := mustExact(t, 10, 2)
	tiny.Observe(make(words.Word, 10))
	c := words.FullColumnSet(10)
	if v := tiny.Vector(c); v.Total() != 1 || tiny.Vector(c) == v {
		t.Fatal("a vector larger than its table must be rebuilt, not retained")
	}
	memoInvariant(t, tiny)
}

// TestExactConcurrentQueriesBuildOnce is the race-detector test of the
// memo: many goroutines ask about a few column sets at once, every
// asker of one set gets the same vector, and each set is built once.
func TestExactConcurrentQueriesBuildOnce(t *testing.T) {
	e := mustExact(t, 10, 2)
	feed(e, testData(3000, 10))
	sets := []words.ColumnSet{
		words.MustColumnSet(10, 0, 1, 2), words.MustColumnSet(10, 3, 4), words.MustColumnSet(10, 5),
	}
	const askers = 16
	got := make([][]*freq.Vector, askers)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*freq.Vector, len(sets))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range sets {
				c := sets[(i+g)%len(sets)]
				if _, err := e.Fp(c, 2); err != nil {
					t.Error(err)
				}
				if _, err := e.HeavyHitters(c, 1, 0.05); err != nil {
					t.Error(err)
				}
				got[g][(i+g)%len(sets)] = e.Vector(c)
				e.MemoStats()
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i := range sets {
			if got[g][i] != got[0][i] {
				t.Fatalf("asker %d got its own vector for %v", g, sets[i])
			}
		}
	}
	if st := e.MemoStats(); st.Builds != int64(len(sets)) || st.Hits != int64(3*askers*len(sets)-len(sets)) {
		t.Fatalf("memo stats %+v, want %d builds", st, len(sets))
	}
}

// TestExactMergeAppendsLikeRowWiseObserve pins the flat-append Merge
// to the row loop it replaced: same wire bytes, donor untouched, and
// an empty donor is a no-op.
func TestExactMergeAppendsLikeRowWiseObserve(t *testing.T) {
	a, b := testData(700, 11), testData(900, 12)
	flat, rows, donor := mustExact(t, 10, 2), mustExact(t, 10, 2), mustExact(t, 10, 2)
	feed(flat, a)
	feed(rows, a)
	feed(donor, b)
	donorBlob := mustMarshal(t, donor)
	if err := flat.Merge(donor); err != nil {
		t.Fatal(err)
	}
	feed(rows, b)
	if !bytes.Equal(mustMarshal(t, flat), mustMarshal(t, rows)) {
		t.Fatal("Merge is not the donor's rows appended in order")
	}
	if !bytes.Equal(mustMarshal(t, donor), donorBlob) {
		t.Fatal("Merge changed the donor")
	}
	before := mustMarshal(t, flat)
	if err := flat.Merge(mustExact(t, 10, 2)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, flat), before) {
		t.Fatal("merging an empty donor changed the receiver")
	}
}
