package sketch

import (
	"fmt"
	"math"
	"runtime"
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
	p    float64
	reps int
	seed uint64
	sums []float64
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

// StableForEpsilon sizes the sketch for relative error ε on ‖f‖_p.
func StableForEpsilon(p, eps float64, seed uint64) *Stable {
	if !(eps > 0 && eps < 1) {
		panic("sketch: epsilon outside (0,1)")
	}
	return NewStable(p, int(6/(eps*eps))+3, seed)
}

// P returns the moment order p.
func (s *Stable) P() float64 { return s.p }

// Reps returns the repetition count.
func (s *Stable) Reps() int { return s.reps }

// variate returns the deterministic p-stable X_{item,j}, given
// mixed = rng.Mix64(item): the Stable draw of a Source seeded, on the
// stack, as rng.New(seed ^ Mix64(item) ^ Mix64(j·φ + 1)) would be.
func (s *Stable) variate(mixed uint64, j int) float64 {
	var src rng.Source
	src.Seed(s.seed ^ mixed ^ rng.Mix64(uint64(j)*0x9e3779b97f4a7c15+1))
	return src.Stable(s.p)
}

// AddCount adds count occurrences of item (negative counts allowed:
// the sketch is linear).
func (s *Stable) AddCount(item uint64, count int64) {
	mixed := rng.Mix64(item)
	for j := range s.sums {
		s.sums[j] += float64(count) * s.variate(mixed, j)
	}
}

// Add observes a single occurrence of item.
func (s *Stable) Add(item uint64) { s.AddCount(item, 1) }

// AddBatch observes every item of items in order and leaves the
// counters bit-for-bit as Add per item would. It derives each distinct
// item's reps variates once per chunk of at most stableChunk items and
// adds them to the counters on every occurrence, in stream order: the
// same additions in the same order as the per-item loop. (Adding
// count·X once per distinct item instead would reassociate the float
// sums and change the state.)
func (s *Stable) AddBatch(items []uint64) {
	chunk := min(stableChunk, max(1, stableScratchFloats/s.reps))
	var sc *stableScratch
	select {
	case sc = <-stableScratchFree:
	default:
		sc = new(stableScratch)
	}
	for len(items) > 0 {
		n := min(len(items), chunk)
		s.addChunk(sc, items[:n])
		items = items[n:]
	}
	select {
	case stableScratchFree <- sc:
	default:
	}
}

// stableChunk caps the items one AddBatch table covers, and
// stableScratchFloats the variates it holds, so the scratch stays
// bounded whatever the batch length and repetition count.
const (
	stableChunk         = 512
	stableScratchFloats = 1 << 16
)

// stableScratch is AddBatch's working set: an open-addressing table
// from each distinct item of a chunk to its row of variates. It is
// shared rather than kept per sketch, because an α-net's members
// ingest one after another.
type stableScratch struct {
	keys []uint64  // slot → item
	rows []int32   // slot → 1 + the item's row of vars; 0 is an empty slot
	vars []float64 // row r: the reps variates of the chunk's r-th distinct item
}

// stableScratchFree holds idle scratch, one per P, about as many as
// there are AddBatch calls running at once: a warm process allocates
// none, and the idle memory stays bounded. (A sync.Pool would hand
// its scratch to the collector at every GC, and under the race
// detector it drops a share of its puts on purpose.)
var stableScratchFree = make(chan *stableScratch, runtime.GOMAXPROCS(0))

// addChunk feeds one chunk of AddBatch through sc.
func (s *Stable) addChunk(sc *stableScratch, items []uint64) {
	size := 2
	for size < 2*len(items) {
		size <<= 1
	}
	if len(sc.keys) < size {
		sc.keys, sc.rows = make([]uint64, size), make([]int32, size)
	}
	if need := len(items) * s.reps; len(sc.vars) < need {
		sc.vars = make([]float64, need)
	}
	keys, rows, mask := sc.keys[:size], sc.rows[:size], uint64(size-1)
	clear(rows)
	distinct := 0
	for _, item := range items {
		mixed := rng.Mix64(item)
		h := mixed & mask
		for rows[h] != 0 && keys[h] != item {
			h = (h + 1) & mask
		}
		if rows[h] == 0 {
			xs := sc.vars[distinct*s.reps : (distinct+1)*s.reps]
			for j := range xs {
				xs[j] = s.variate(mixed, j)
			}
			distinct++
			keys[h], rows[h] = item, int32(distinct)
		}
		r := int(rows[h]) - 1
		for j, x := range sc.vars[r*s.reps : (r+1)*s.reps] {
			s.sums[j] += x
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
// replacing the receiver's state. The claimed repetition count must
// exactly fill the input, so allocation is bounded by the blob and
// any constructible sketch round-trips.
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
