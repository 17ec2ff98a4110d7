package sketch

import (
	"math/bits"

	"repro/internal/rng"
)

// StableTableBudget is the variate budget of the tables the summaries
// build, in float64s: 2^21 = 16 MiB, about 34k rows at 60 repetitions.
const StableTableBudget = 1 << 21

// StableTable caches rows of p-stable variates for Stable.AddBatch.
// The row of sketch seed s and item x is X_{x,0..reps-1}, and it is a
// pure function of the key k = s ^ Mix64(x) for a fixed (p, reps)
// (see Stable.variate), so one table keyed by k serves every sketch
// built for that (p, reps): sketches with distinct seeds do not clash,
// and two (seed, item) pairs that do give the same key have the same
// row, so sharing it is still exact. The table changes when a variate
// is derived, never its value.
//
// The table is set-associative, tableWays slots per bucket with CLOCK
// replacement inside a bucket. It allocates nothing until its first
// lookup. A miss into a full bucket of a table at least half full grows
// it tableGrowth-fold, up to budget float64s of variates; at the budget
// the miss evicts instead. It always holds at least one row, so a row
// larger than the budget still works. It is never serialized. It is not
// safe for concurrent use: the sketches that share one must ingest one
// at a time.
type StableTable struct {
	p    float64
	reps int
	// ways is the slots per bucket and maxBuckets the bucket count at
	// the budget; buckets is the count now.
	ways, buckets, maxBuckets int
	used                      int       // occupied slots
	keys                      []uint64  // slot → key
	state                     []uint8   // slot → slotEmpty, slotCold or slotHot
	hand                      []uint8   // bucket → the slot CLOCK inspects next
	rows                      []float64 // slot i: rows[i*reps : (i+1)*reps]
	fresh                     []float64 // the row a miss derives
	salts                     []uint64  // salts[j] = variateSalt(j)
	hits, misses              uint64
}

// Table geometry: each bucket holds tableWays slots; a fresh table
// starts with tableStartBuckets buckets and grows tableGrowth-fold. A
// size above half the budget is rounded up to the budget, so the table
// before a growth step is at most half the budget, and the live memory
// of a step peaks at 1.5× the budget.
const (
	tableWays         = 8
	tableStartBuckets = 8
	tableGrowth       = 8
)

// Slot states. A lookup that hits marks its slot hot; CLOCK cools a hot
// slot as its hand passes and evicts the first cold one.
const (
	slotEmpty uint8 = iota
	slotCold
	slotHot
)

// NewStableTable returns an empty table of (p, reps) variate rows that
// may grow to budget float64s (at least one row).
func NewStableTable(p float64, reps, budget int) *StableTable {
	if !(p > 0 && p <= 2) {
		panic("sketch: stability parameter outside (0, 2]")
	}
	if reps < 3 {
		panic("sketch: stable sketch needs at least 3 repetitions")
	}
	if budget < 1 {
		panic("sketch: stable table budget must be positive")
	}
	maxRows := max(1, budget/reps)
	ways := min(tableWays, maxRows)
	return &StableTable{p: p, reps: reps, ways: ways, maxBuckets: maxRows / ways}
}

// StableTableStats reports a table's lookups and size.
type StableTableStats struct {
	// Hits and Misses count AddBatch lookups served from the table and
	// derived afresh.
	Hits, Misses uint64
	// Rows is the rows the table holds room for now, MaxRows the rows
	// it may grow to.
	Rows, MaxRows int
}

// Stats returns the table's counters and size.
func (t *StableTable) Stats() StableTableStats {
	return StableTableStats{
		Hits:    t.hits,
		Misses:  t.misses,
		Rows:    len(t.keys),
		MaxRows: t.maxBuckets * t.ways,
	}
}

// row returns key's reps variates, deriving them on a miss. The slice
// is valid until the next call.
func (t *StableTable) row(key uint64) []float64 {
	if t.buckets == 0 {
		t.fresh = make([]float64, t.reps)
		t.salts = make([]uint64, t.reps)
		for j := range t.salts {
			t.salts[j] = variateSalt(j)
		}
		t.resize(t.capped(tableStartBuckets))
	}
	b := t.bucket(key)
	lo := b * t.ways
	for k, kk := range t.keys[lo : lo+t.ways] {
		if i := lo + k; kk == key && t.state[i] != slotEmpty {
			t.state[i] = slotHot
			t.hits++
			return t.rows[i*t.reps : (i+1)*t.reps]
		}
	}
	t.misses++
	i := t.free(b)
	if i < 0 && t.buckets < t.maxBuckets && 2*t.used >= len(t.keys) {
		t.resize(t.capped(tableGrowth * t.buckets))
		b = t.bucket(key)
		i = t.free(b)
	}
	if i < 0 {
		i = t.evict(b)
	} else {
		t.used++
	}
	t.keys[i], t.state[i] = key, slotCold
	// Derive into the cache-hot fresh row, then copy it into the slot
	// in one pass: writing each variate straight into a slot far off in
	// a large table stalls on a cache miss per line.
	for j, salt := range t.salts {
		t.fresh[j] = stableDraw(t.p, key^salt)
	}
	copy(t.rows[i*t.reps:(i+1)*t.reps], t.fresh)
	return t.fresh
}

// bucket maps a key to its bucket. Keys are Mix64 outputs xor a seed,
// so their high bits are already uniform.
func (t *StableTable) bucket(key uint64) int {
	hi, _ := bits.Mul64(key, uint64(t.buckets))
	return int(hi)
}

// free returns an empty slot of bucket b, or -1 when b is full.
func (t *StableTable) free(b int) int {
	for i := b * t.ways; i < (b+1)*t.ways; i++ {
		if t.state[i] == slotEmpty {
			return i
		}
	}
	return -1
}

// evict picks the CLOCK victim of the full bucket b: the first cold
// slot from the hand on, cooling each hot slot it passes.
func (t *StableTable) evict(b int) int {
	for {
		i := b*t.ways + int(t.hand[b])
		t.hand[b] = uint8((int(t.hand[b]) + 1) % t.ways)
		if t.state[i] == slotCold {
			return i
		}
		t.state[i] = slotCold
	}
}

// capped returns the bucket count of a growth step to n buckets: n,
// or the budget's count when n is above half of it.
func (t *StableTable) capped(n int) int {
	if 2*n > t.maxBuckets {
		return t.maxBuckets
	}
	return n
}

// resize moves the table to n buckets, carrying every row over. With
// bucket = ⌊key·n / 2^64⌋, growing to a multiple of the old count
// splits each bucket and never overflows one; the last step to the
// budget may not be a multiple, and a row that finds its new bucket
// full is dropped (it is derived again when next asked for).
func (t *StableTable) resize(n int) {
	old := *t
	slots := n * t.ways
	t.buckets = n
	t.keys = make([]uint64, slots)
	t.state = make([]uint8, slots)
	t.hand = make([]uint8, n)
	t.rows = make([]float64, slots*t.reps)
	t.used = 0
	for i, st := range old.state {
		if st == slotEmpty {
			continue
		}
		j := t.free(t.bucket(old.keys[i]))
		if j < 0 {
			continue
		}
		t.keys[j], t.state[j] = old.keys[i], st
		t.used++
		copy(t.rows[j*t.reps:(j+1)*t.reps], old.rows[i*t.reps:(i+1)*t.reps])
	}
}

// variateSalt is what variate j's seed xors into its row's key: the
// variate is stableDraw(p, key ^ variateSalt(j)).
func variateSalt(j int) uint64 {
	return rng.Mix64(uint64(j)*0x9e3779b97f4a7c15 + 1)
}

// stableDraw returns the p-stable draw of a Source seeded, on the
// stack, as rng.New(seed) would be.
func stableDraw(p float64, seed uint64) float64 {
	var src rng.Source
	src.Seed(seed)
	return src.Stable(p)
}
