package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// stableTruth computes exact ||f||_p^p for a frequency map.
func stableTruth(freqs map[uint64]int64, p float64) float64 {
	s := 0.0
	for _, c := range freqs {
		s += math.Pow(float64(c), p)
	}
	return s
}

func TestStableNormEstimates(t *testing.T) {
	freqs := zipfStream(500, 40000, 51)
	for _, p := range []float64{0.5, 1.0, 1.5, 2.0} {
		s := NewStable(p, 400, 53)
		for item, c := range freqs {
			s.AddCount(item, c)
		}
		truth := stableTruth(freqs, p)
		got := s.EstimateMoment()
		if math.Abs(got-truth)/truth > 0.3 {
			t.Fatalf("p=%v: moment %v, truth %v", p, got, truth)
		}
		normTruth := math.Pow(truth, 1/p)
		if gotN := s.EstimateNorm(); math.Abs(gotN-normTruth)/normTruth > 0.15 {
			t.Fatalf("p=%v: norm %v, truth %v", p, gotN, normTruth)
		}
	}
}

// stableBatchStream is a skewed item stream: few distinct items, item
// 0 among them, most repeated many times.
func stableBatchStream(n int, seed uint64) []uint64 {
	src := rng.New(seed)
	items := make([]uint64, n)
	for i := range items {
		if src.Float64() < 0.7 {
			items[i] = uint64(src.Intn(8)) // heavy repeats, item 0 included
		} else {
			items[i] = src.Uint64()
		}
	}
	return items
}

// stableBlob feeds items to a fresh sketch through feed and returns
// its wire bytes.
func stableBlob(t *testing.T, p float64, reps int, feed func(*Stable)) []byte {
	t.Helper()
	s := NewStable(p, reps, 77)
	feed(s)
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// stableAddLoop is the reference AddBatch must match: Add per item.
func stableAddLoop(items []uint64) func(*Stable) {
	return func(s *Stable) {
		for _, item := range items {
			s.Add(item)
		}
	}
}

// tableRows is the row capacity a fresh table starts with, the first
// edge AddBatch crosses.
const tableRows = tableStartBuckets * tableWays

// TestStableAddBatchMatchesAdd pins AddBatch's reuse of variates
// through the table: whatever the split, the table's size and what it
// evicts, the wire bytes equal those of the per-item Add loop, for
// every p branch of the variate.
func TestStableAddBatchMatchesAdd(t *testing.T) {
	// Enough distinct items to outgrow the starting table inside one
	// batch, with a repeat on each side of the first growth.
	long := stableBatchStream(3*tableRows+17, 5)
	for i := range long[:2*tableRows] {
		if i%2 == 1 {
			long[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
	}
	long[tableRows-1], long[2*tableRows] = 12345, 12345
	long[tableRows-2], long[2*tableRows+1] = 0, 0
	distinct := make([]uint64, 200)
	for i := range distinct {
		distinct[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	cases := map[string]struct {
		items  []uint64
		reps   int
		budget int   // variate budget of the sketch's table; 0 means its own default one
		splits []int // batch lengths; the remainder goes in one last batch
		// check holds the table's statistics to the edge the case crosses.
		check func(StableTableStats) bool
	}{
		"heavy-repeats": {items: stableBatchStream(300, 1), reps: 7},
		"item-zero":     {items: []uint64{0, 0, 1, 0, 0}, reps: 7},
		"all-distinct":  {items: distinct, reps: 7},
		"growth-mid-batch": {items: long, reps: 7,
			check: func(st StableTableStats) bool { return st.Rows > tableRows }},
		"uneven": {items: long, reps: 7, splits: []int{1, 0, 3, tableRows - 1, 2, 70, 0, tableRows + 1}},
		// A table at its budget from the start (two buckets): nearly
		// every distinct item evicts a row that is asked for again.
		"at-budget-evicts": {items: append(distinct, long...), reps: 7, budget: 7 * 2 * tableWays,
			check: func(st StableTableStats) bool { return st.Rows == st.MaxRows && st.Misses > 4*uint64(st.MaxRows) }},
		// A row larger than the budget: the table holds that one row.
		"row-over-budget": {items: stableBatchStream(300, 3), reps: 200, budget: 150,
			check: func(st StableTableStats) bool { return st.MaxRows == 1 && st.Hits > 0 }},
	}
	for name, c := range cases {
		for _, p := range []float64{0.5, 1, 1.5, 2} {
			want := stableBlob(t, p, c.reps, stableAddLoop(c.items))
			var table *StableTable
			got := stableBlob(t, p, c.reps, func(s *Stable) {
				if c.budget > 0 {
					s.ShareTable(NewStableTable(p, c.reps, c.budget))
				}
				rest := c.items
				for _, n := range c.splits {
					n = min(n, len(rest))
					s.AddBatch(rest[:n])
					rest = rest[n:]
				}
				s.AddBatch(rest)
				table = s.table
			})
			if !bytes.Equal(got, want) {
				t.Fatalf("%s p=%v: AddBatch state differs from the Add loop", name, p)
			}
			if st := table.Stats(); c.check != nil && !c.check(st) {
				t.Fatalf("%s p=%v: the table did not reach the case's edge: %+v", name, p, st)
			}
		}
	}
}

// TestStableSharedTable: sketches sharing one table leave the state
// the Add loop does, whether their seeds give distinct keys or two
// (seed, item) pairs are built to give the same one; decoding keeps a
// fitting table, and a table of another (p, reps) is refused.
func TestStableSharedTable(t *testing.T) {
	const reps = 9
	items := stableBatchStream(4*tableRows, 21)
	// Seed b maps item y to the key seed a gives item x.
	const a, x, y = 77, 3, 5
	for name, seeds := range map[string][2]uint64{
		"distinct-seeds": {a, 78},
		"shared-key":     {a, a ^ rng.Mix64(x) ^ rng.Mix64(y)},
	} {
		for _, p := range []float64{0.5, 1, 1.5, 2} {
			table := NewStableTable(p, reps, 16*reps)
			var shared, ref [2]*Stable
			for i, seed := range seeds {
				shared[i], ref[i] = NewStable(p, reps, seed), NewStable(p, reps, seed)
				shared[i].ShareTable(table)
			}
			// Interleave the two sketches batch by batch, as an α-net's
			// members ingest; both see x and y throughout.
			for lo := 0; lo < len(items); lo += 50 {
				batch := append([]uint64{x, y}, items[lo:min(lo+50, len(items))]...)
				for i := range shared {
					shared[i].AddBatch(batch)
					stableAddLoop(batch)(ref[i])
				}
			}
			for i := range shared {
				got, _ := shared[i].MarshalBinary()
				want, _ := ref[i].MarshalBinary()
				if !bytes.Equal(got, want) {
					t.Fatalf("%s p=%v: sketch %d on the shared table differs from the Add loop", name, p, i)
				}
			}
		}
	}
	// Decoding keeps the receiver's table when it fits the blob's
	// (p, reps), and drops it otherwise.
	table := NewStableTable(1.5, reps, 1<<10)
	s := NewStable(1.5, reps, 1)
	s.ShareTable(table)
	blob, _ := NewStable(1.5, reps, 2).MarshalBinary()
	if err := s.UnmarshalBinary(blob); err != nil || s.table != table {
		t.Fatalf("decoding replaced the receiver's table (err %v)", err)
	}
	blob, _ = NewStable(2, reps, 2).MarshalBinary()
	if err := s.UnmarshalBinary(blob); err != nil || s.table != nil {
		t.Fatalf("a p=2 sketch decoded onto a p=1.5 table (err %v)", err)
	}
	for _, other := range []*StableTable{NewStableTable(1, reps, 1<<10), NewStableTable(1.5, reps+1, 1<<10)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("a table of p=%v reps=%d was shared with a p=1.5 reps=%d sketch", other.p, other.reps, reps)
				}
			}()
			NewStable(1.5, reps, 1).ShareTable(other)
		}()
	}
}

// TestStableTableGrowthBound: the table starts empty, grows to its
// budget and no further, and its live memory across a growth step stays
// within 1.5× the budget.
func TestStableTableGrowthBound(t *testing.T) {
	const reps = 60
	table := NewStableTable(2, reps, StableTableBudget)
	if st := table.Stats(); st.Rows != 0 || table.rows != nil {
		t.Fatalf("a fresh table holds memory: %+v", st)
	}
	s := NewStable(2, reps, 1)
	s.ShareTable(table)
	items := make([]uint64, 256)
	prev := 0
	for n := uint64(0); table.Stats().Rows < table.Stats().MaxRows; n++ {
		for i := range items {
			items[i] = n*uint64(len(items)) + uint64(i)
		}
		s.AddBatch(items)
		st := table.Stats()
		if st.Rows != prev {
			if variates := 8 * (prev + st.Rows) * reps; variates > 3*8*StableTableBudget/2 {
				t.Fatalf("growing %d → %d rows holds %d bytes of variates, above 1.5× the budget", prev, st.Rows, variates)
			}
			prev = st.Rows
		}
	}
	st := table.Stats()
	if st.MaxRows != StableTableBudget/reps/tableWays*tableWays || 8*st.Rows*reps > 8*StableTableBudget {
		t.Fatalf("table at its budget: %+v", st)
	}
	t.Logf("at the budget: %d rows, %d lookups derived", st.Rows, st.Misses)
}

// TestStableAddBatchConcurrent: sketches with their own tables ingest
// at once without seeing each other's variates (run with -race); each
// stream outgrows the starting table.
func TestStableAddBatchConcurrent(t *testing.T) {
	const workers = 4
	items := make([][]uint64, workers)
	want := make([][]byte, workers)
	for w := range items {
		items[w] = stableBatchStream(8*tableRows+50, uint64(w)+10)
		want[w] = stableBlob(t, 1.5, 9, stableAddLoop(items[w]))
	}
	sketches := make([]*Stable, workers)
	var wg sync.WaitGroup
	for w := range workers {
		sketches[w] = NewStable(1.5, 9, 77)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sketches[w].AddBatch(items[w][:100])
			sketches[w].AddBatch(items[w][100:])
		}()
	}
	wg.Wait()
	for w, s := range sketches {
		got, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[w]) {
			t.Fatalf("worker %d: concurrent AddBatch state differs from the Add loop", w)
		}
	}
}

func TestStableLinearity(t *testing.T) {
	// Adding then removing an item must cancel exactly.
	s := NewStable(1.5, 50, 57)
	s.AddCount(99, 1000)
	s.AddCount(42, 7)
	s.AddCount(99, -1000)
	only := NewStable(1.5, 50, 57)
	only.AddCount(42, 7)
	if math.Abs(s.EstimateNorm()-only.EstimateNorm()) > 1e-6 {
		t.Fatalf("cancellation failed: %v vs %v", s.EstimateNorm(), only.EstimateNorm())
	}
}

func TestStableMerge(t *testing.T) {
	a := NewStable(0.5, 60, 59)
	b := NewStable(0.5, 60, 59)
	whole := NewStable(0.5, 60, 59)
	for i := uint64(0); i < 500; i++ {
		whole.AddCount(i, 3)
		if i%2 == 0 {
			a.AddCount(i, 3)
		} else {
			b.AddCount(i, 3)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.EstimateNorm()-whole.EstimateNorm()) > 1e-9 {
		t.Fatal("merged stable sketch must equal whole-stream sketch")
	}
	if err := a.Merge(NewStable(0.6, 60, 59)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("p mismatch: %v", err)
	}
}

// TestStableCloneMatchesMergeIntoFresh pins Clone to the merge it
// replaces, sign of zero included: a −0.0 counter must come out +0.0
// from both, and every other counter unchanged.
func TestStableCloneMatchesMergeIntoFresh(t *testing.T) {
	s := NewStable(2, 8, 64)
	s.AddCount(7, 3)
	s.sums[0], s.sums[1], s.sums[2] = math.Copysign(0, -1), 0, math.Inf(-1)
	fresh := NewStable(2, 8, 64)
	if err := fresh.Merge(s); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if c.table != nil {
		t.Fatal("a clone must not share its source's variate table")
	}
	for i := range c.sums {
		if got, want := math.Float64bits(c.sums[i]), math.Float64bits(fresh.sums[i]); got != want {
			t.Fatalf("counter %d: clone %#x, merge into a fresh sketch %#x", i, got, want)
		}
	}
	if math.Signbit(c.sums[0]) {
		t.Fatal("a −0.0 counter must clone to +0.0")
	}
	c.AddCount(9, 1)
	if s.sums[3] != fresh.sums[3] || s.sums[4] != fresh.sums[4] {
		t.Fatal("feeding a clone changed its source")
	}
}

func TestStableSerializationRoundTrip(t *testing.T) {
	s := NewStable(1.2, 40, 61)
	src := rng.New(63)
	for i := 0; i < 200; i++ {
		s.AddCount(src.Uint64(), int64(src.Intn(10))+1)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Stable
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.EstimateNorm() != s.EstimateNorm() || back.P() != 1.2 || back.Reps() != 40 {
		t.Fatal("serialization round trip drifted")
	}
	if err := back.UnmarshalBinary(data[:5]); err == nil {
		t.Fatal("truncated payload must error")
	}
}

func TestStablePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewStable(0, 10, 1) },
		func() { NewStable(2.5, 10, 1) },
		func() { NewStable(1, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestStableAbsMedianCached(t *testing.T) {
	// p = 1 is the analytic value 1 (median |Cauchy|).
	if v := stableAbsMedian(1); v != 1 {
		t.Fatalf("median |Cauchy| = %v", v)
	}
	// Repeated calls hit the cache and must agree exactly.
	a := stableAbsMedian(0.7)
	b := stableAbsMedian(0.7)
	if a != b {
		t.Fatal("cache must be deterministic")
	}
	// p = 2: |N(0,2)| has median sqrt(2)*z_{0.75} ≈ 0.9539.
	if v := stableAbsMedian(2); math.Abs(v-0.9539) > 0.01 {
		t.Fatalf("median |stable_2| = %v, want ≈0.954", v)
	}
}

func TestStableUnmarshalRejectsNaNOrder(t *testing.T) {
	s := NewStable(1.5, 5, 9)
	s.Add(42)
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The moment order p sits right after the 1-byte tag; NaN fails
	// every comparison, so a non-NaN-safe range check would admit it
	// and the decoded sketch would estimate NaN forever.
	binary.LittleEndian.PutUint64(blob[1:], math.Float64bits(math.NaN()))
	var dec Stable
	if err := dec.UnmarshalBinary(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NaN moment order must be corrupt, got %v", err)
	}
}
