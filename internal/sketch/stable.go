package sketch

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/rng"
	"repro/internal/wire"
)

// Stable is Indyk's p-stable sketch for F_p, 0 < p ≤ 2: reps counters
// S_j = Σ_i f_i · X_{i,j}, with X_{i,j} independent standard
// symmetric p-stable variates derived deterministically from
// (seed, item, j) via the Chambers–Mallows–Stuck method. By
// p-stability, S_j is distributed as ‖f‖_p · X for a fresh stable X,
// so median(|S_j|) / median(|X|) estimates ‖f‖_p, and raising to the
// p-th power gives F_p. This is the (1±ε) F_p sketch the Algorithm 1
// upper bound (Theorem 6.5) instantiates for 0 < p ≤ 2.
type Stable struct {
	p     float64
	reps  int
	seed  uint64
	sums  []float64
	table *StableTable // AddBatch's variate rows; not part of the state
}

// NewStable returns a p-stable sketch with the given repetition count;
// reps = O(1/ε²) gives a (1±ε) estimate with constant probability.
func NewStable(p float64, reps int, seed uint64) *Stable {
	if !(p > 0 && p <= 2) {
		panic("sketch: stability parameter outside (0, 2]")
	}
	if reps < 3 {
		panic("sketch: stable sketch needs at least 3 repetitions")
	}
	return &Stable{p: p, reps: reps, seed: seed, sums: make([]float64, reps)}
}

// P returns the moment order p.
func (s *Stable) P() float64 { return s.p }

// Reps returns the repetition count.
func (s *Stable) Reps() int { return s.reps }

// variate returns the deterministic p-stable X_{item,j}, given
// mixed = rng.Mix64(item): variate j of the row keyed seed ^ mixed.
func (s *Stable) variate(mixed uint64, j int) float64 {
	return stableDraw(s.p, s.seed^mixed^variateSalt(j))
}

// AddCount adds count occurrences of item (negative counts allowed:
// the sketch is linear). It derives the item's variates afresh, with
// no table: it is the reference AddBatch is tested against.
func (s *Stable) AddCount(item uint64, count int64) {
	mixed := rng.Mix64(item)
	for j := range s.sums {
		s.sums[j] += float64(count) * s.variate(mixed, j)
	}
}

// Add observes a single occurrence of item.
func (s *Stable) Add(item uint64) { s.AddCount(item, 1) }

// ShareTable makes AddBatch look variates up in t, which other
// sketches of the same (p, reps) may share (see StableTable). It
// panics if t was built for another (p, reps).
func (s *Stable) ShareTable(t *StableTable) {
	if t.p != s.p || t.reps != s.reps {
		panic("sketch: stable table built for another p or repetition count")
	}
	s.table = t
}

// AddBatch observes every item of items in order and leaves the
// counters bit-for-bit as Add per item would: item by item, in stream
// order, it looks the item's row of variates up in the sketch's table
// (deriving it on a miss) and adds it to the counters — the same
// additions in the same order as the per-item loop. (Adding count·X
// once per distinct item instead would reassociate the float sums and
// change the state.) A sketch given no table by ShareTable builds its
// own of StableTableBudget on its first AddBatch.
func (s *Stable) AddBatch(items []uint64) {
	if s.table == nil {
		s.table = NewStableTable(s.p, s.reps, StableTableBudget)
	}
	for _, item := range items {
		row := s.table.row(s.seed ^ rng.Mix64(item))
		sums := s.sums[:len(row)]
		for j, x := range row {
			sums[j] += x
		}
	}
}

// EstimateNorm returns the estimate of ‖f‖_p.
func (s *Stable) EstimateNorm() float64 {
	abs := make([]float64, s.reps)
	for j, v := range s.sums {
		abs[j] = math.Abs(v)
	}
	sort.Float64s(abs)
	var med float64
	if s.reps%2 == 1 {
		med = abs[s.reps/2]
	} else {
		med = (abs[s.reps/2-1] + abs[s.reps/2]) / 2
	}
	return med / stableAbsMedian(s.p)
}

// EstimateMoment returns the estimate of F_p = ‖f‖_p^p.
func (s *Stable) EstimateMoment() float64 {
	return math.Pow(s.EstimateNorm(), s.p)
}

// Merge adds another Stable sketch counter-wise.
func (s *Stable) Merge(o *Stable) error {
	if o.p != s.p || o.reps != s.reps || o.seed != s.seed {
		return fmt.Errorf("%w: stable sketch p/reps/seed mismatch", ErrIncompatible)
	}
	for i, v := range o.sums {
		s.sums[i] += v
	}
	return nil
}

// Clone returns a copy of s with no variate table (ShareTable or its
// first AddBatch gives it one). Each counter is written as 0 + v, the
// addition a Merge into a fresh sketch makes, so the copy is bit for
// bit that merge: a −0.0 counter becomes +0.0 in both.
func (s *Stable) Clone() *Stable {
	c := &Stable{p: s.p, reps: s.reps, seed: s.seed, sums: make([]float64, len(s.sums))}
	for i, v := range s.sums {
		c.sums[i] = 0 + v
	}
	return c
}

// SizeBytes returns the serialized size.
func (s *Stable) SizeBytes() int { return 1 + 8 + 4 + 8 + 8*len(s.sums) }

// MarshalBinary encodes the sketch.
func (s *Stable) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(s.SizeBytes())
	w.U8(tagStable)
	w.F64(s.p)
	w.U32(uint32(s.reps))
	w.U64(s.seed)
	for _, v := range s.sums {
		w.F64(v)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a sketch produced by MarshalBinary,
// replacing the receiver's state; it keeps the receiver's table when
// that was built for the decoded (p, reps). The claimed repetition
// count must exactly fill the input, so allocation is bounded by the
// blob and any constructible sketch round-trips.
func (s *Stable) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, ErrCorrupt)
	if r.U8() != tagStable {
		return fmt.Errorf("%w: not a stable sketch", ErrCorrupt)
	}
	p := r.F64()
	reps := int(r.U32())
	seed := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if !(p > 0 && p <= 2) || reps < 3 || r.Remaining() != 8*reps {
		return fmt.Errorf("%w: stable sketch header", ErrCorrupt)
	}
	tmp := NewStable(p, reps, seed)
	for i := range tmp.sums {
		tmp.sums[i] = r.F64()
	}
	if err := r.Done(); err != nil {
		return err
	}
	if t := s.table; t != nil && t.p == p && t.reps == reps {
		tmp.table = t
	}
	*s = *tmp
	return nil
}

var (
	stableMedianMu    sync.Mutex
	stableMedianCache = map[float64]float64{
		1: 1, // median |Cauchy| = tan(π/4)
	}
)

// stableAbsMedian returns the median of |X| for X standard symmetric
// p-stable, estimated once per p by a deterministic Monte-Carlo run
// (fixed seed, 200001 samples ⇒ the scaling constant is stable to
// ~0.3%, well inside every ε used by the experiments).
func stableAbsMedian(p float64) float64 {
	stableMedianMu.Lock()
	defer stableMedianMu.Unlock()
	if v, ok := stableMedianCache[p]; ok {
		return v
	}
	const samples = 200001
	src := rng.New(0x5eedc0de ^ math.Float64bits(p))
	xs := make([]float64, samples)
	for i := range xs {
		xs[i] = math.Abs(src.Stable(p))
	}
	sort.Float64s(xs)
	v := xs[samples/2]
	stableMedianCache[p] = v
	return v
}
