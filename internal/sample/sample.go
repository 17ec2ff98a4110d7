// Package sample implements the row-sampling primitives behind the
// paper's upper bounds: the with-replacement uniform sampler of
// Theorem 5.1 (uSample), whose slots skip ahead to their next
// acceptance and so draw once per acceptance rather than once per row,
// and classical reservoir sampling, an ablation that experiment E3
// runs beside it and the sampled Index protocol (internal/comm) sends.
// Both samplers take rows in batches and are deterministic given their
// seed; only the with-replacement sampler merges and serializes, and
// it keeps its rows packed (words.Packing) in one slab, where the
// reservoir keeps words.Word rows.
package sample

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rng"
	"repro/internal/words"
)

// WithReplacement implements the sampler of Theorem 5.1: t independent
// uniform row samples, drawn with replacement, maintained online.
// Each of the t slots runs an independent reservoir of size one, which
// is exactly a uniform draw from the stream; the slots are mutually
// independent, so the Chernoff argument of Appendix A.1 applies.
//
// A slot does not draw per row. It keeps the stream position of its
// next acceptance and draws once per acceptance (Vitter 1985; Li 1994,
// Algorithm L): about ln n draws per slot over n rows.
//
// The t rows sit packed in one slab of t·s bytes, s the layout's row
// stride: slot i's row is rows[i·s : (i+1)·s]. The slab is allocated
// with the first row, which every slot accepts, and is nil before.
type WithReplacement struct {
	t     int
	seen  int64
	pk    words.Packing
	rows  []byte
	slots []slot
	// minNext is the smallest slots[i].next: a batch that ends before
	// it accepts in no slot.
	minNext uint64
	packBuf words.PackedBatch // ObserveBatch's packed copy of its batch
}

// slot is one size-one reservoir: its private SplitMix64 stream and
// the 1-based stream position of its next acceptance. next > seen
// always holds, and a fresh slot accepts the first row.
type slot struct {
	src  rng.SplitMix64
	next uint64
}

// skip draws the slot's next acceptance after one at stream position
// m ≥ 1: next = ⌊m/U⌋ + 1 for U = k/2⁵³ uniform on (0, 1], so that
// P(next > m′) = m/m′ for every m′ ≥ m — the chance that a uniform
// draw from the first m′ rows lies among the first m. Positions past
// 2⁶⁴ − 1 saturate there; no row count reaches them.
func (sl *slot) skip(m uint64) {
	k := sl.src.Uint64()>>11 + 1
	hi, lo := bits.Mul64(m, 1<<53)
	sl.next = math.MaxUint64
	if hi < k {
		if q, _ := bits.Div64(hi, lo, k); q < math.MaxUint64 {
			sl.next = q + 1
		}
	}
}

// NewWithReplacement returns a sampler with t slots whose rows keep
// 16 bits a symbol, the layout of rows over any alphabet, at the
// dimension of the first batch it observes. NewWithReplacementPacked
// packs rows of a known shape tighter.
func NewWithReplacement(t int, seed uint64) *WithReplacement {
	return NewWithReplacementPacked(words.Packing{}, t, seed)
}

// NewWithReplacementPacked returns a sampler with t slots of rows in
// pk's layout.
func NewWithReplacementPacked(pk words.Packing, t int, seed uint64) *WithReplacement {
	if t < 1 {
		panic("sample: need at least one slot")
	}
	master := rng.New(seed)
	s := &WithReplacement{
		t:       t,
		pk:      pk,
		slots:   make([]slot, t),
		minNext: 1,
	}
	for i := range s.slots {
		s.slots[i] = slot{src: *rng.NewSplitMix64(master.Uint64()), next: 1}
	}
	return s
}

// SizeForError returns the sample size t = ⌈2 ln(2/δ)/ε²⌉ that
// Theorem 5.1's Chernoff bound needs for additive error ε‖f‖₁ with
// probability 1-δ.
func SizeForError(eps, delta float64) int {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic("sample: error parameters outside (0,1)")
	}
	return int(2.0*math.Log(2/delta)/(eps*eps)) + 1
}

// ObserveBatch feeds every row of b, whose dimension must be the
// layout's. A batch that ends before the earliest pending acceptance
// only advances the row count; any other is packed in the sampler's
// layout into a buffer the sampler keeps and fed to ObservePacked
// (words.ObserveU16), which panics on a symbol outside the layout's
// alphabet, which no slot can hold.
func (s *WithReplacement) ObserveBatch(b *words.Batch) {
	if end := uint64(s.seen) + uint64(b.Len()); s.minNext > end {
		s.seen = int64(end)
		return
	}
	if s.pk == (words.Packing{}) {
		s.pk = words.NewPacking(b.Dim(), words.MaxAlphabet)
	}
	words.ObserveU16(s, &s.packBuf, s.pk, b, "sample: sampler")
}

// ObservePacked feeds every row of b, whose layout must be the
// sampler's (a sampler built without one takes b's). A batch that ends
// before the earliest pending acceptance only advances the row count.
// Otherwise each slot whose next acceptance falls inside the batch
// accepts and redraws until it passes the batch's end, and copies only
// the last row it accepted, s bytes, into its place in the slab. Only
// the first row allocates: the slab. Draws depend on the stream
// positions only, not on where batches are cut.
func (s *WithReplacement) ObservePacked(b *words.PackedBatch) {
	base := uint64(s.seen)
	end := base + uint64(b.Len())
	s.seen = int64(end)
	if s.minNext > end {
		return
	}
	if s.rows == nil {
		s.start(b.Packing())
	}
	if b.Packing() != s.pk {
		panic("sample: packed batch layout differs from the sampler's")
	}
	minNext := uint64(math.MaxUint64)
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.next <= end {
			var kept uint64
			for sl.next <= end {
				kept = sl.next
				sl.skip(kept)
			}
			copy(s.slot(i), b.Row(int(kept-base-1)))
		}
		minNext = min(minNext, sl.next)
	}
	s.minNext = minNext
}

// start allocates the slab of a sampler that has seen no row, since
// every slot is about to take one. A sampler built without a layout
// takes pk's.
func (s *WithReplacement) start(pk words.Packing) {
	if s.pk == (words.Packing{}) {
		s.pk = pk
	}
	s.rows = make([]byte, s.t*s.pk.Stride())
}

// slot returns slot i's packed row in the slab.
func (s *WithReplacement) slot(i int) []byte {
	st := s.pk.Stride()
	return s.rows[i*st : (i+1)*st]
}

// Merge folds another with-replacement sampler built over a disjoint
// segment of the stream into s. Slot i keeps its own row with
// probability seen/(seen+other.seen) and takes the peer's otherwise,
// which is exactly the reservoir step, so each slot remains a uniform
// draw from the concatenated stream and the slots stay mutually
// independent. The slot's pending acceptance is that draw: it lies
// past the merged count with exactly the keep probability, and then it
// is still a valid next acceptance for the merged stream, because the
// skip is memoryless. A slot that takes the peer's row redraws its
// next acceptance from the merged count. The peer is left intact.
func (s *WithReplacement) Merge(o *WithReplacement) error {
	if o.t != s.t {
		return fmt.Errorf("sample: merging samplers of different size (%d vs %d)", s.t, o.t)
	}
	if o.seen == 0 {
		return nil
	}
	if s.pk != (words.Packing{}) && s.pk != o.pk {
		return fmt.Errorf("sample: merging samplers of different row layouts")
	}
	if s.rows == nil {
		s.start(o.pk)
	}
	total := uint64(s.seen + o.seen)
	minNext := uint64(math.MaxUint64)
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.next <= total {
			copy(s.slot(i), o.slot(i))
			sl.skip(total)
		}
		minNext = min(minNext, sl.next)
	}
	s.seen = int64(total)
	s.minNext = minNext
	return nil
}

// Seen returns the stream length n observed so far.
func (s *WithReplacement) Seen() int64 { return s.seen }

// Size returns the number of slots t.
func (s *WithReplacement) Size() int { return s.t }

// EstimateFrequency returns the Theorem 5.1 estimator of the absolute
// frequency of pattern b on projection c: the sample count g scaled by
// n/t.
func (s *WithReplacement) EstimateFrequency(c words.ColumnSet, b words.Word) float64 {
	if s.seen == 0 {
		return 0
	}
	if len(b) != c.Len() {
		panic(fmt.Sprintf("sample: pattern length %d != |C| = %d", len(b), c.Len()))
	}
	bkey := words.AppendKey(nil, b, words.FullColumnSet(len(b)))
	keys := s.pk.AppendKeys(nil, s.rows, c)
	w, g := len(bkey), 0
	for i := range s.t {
		if string(keys[i*w:(i+1)*w]) == string(bkey) {
			g++
		}
	}
	return float64(g) / float64(s.t) * float64(s.seen)
}

// ProjectedCounts returns the pattern→sample-count map of the sample
// projected onto c, the input to sample-based heavy hitter detection.
func (s *WithReplacement) ProjectedCounts(c words.ColumnSet) map[string]int {
	counts := make(map[string]int)
	if s.seen == 0 {
		return counts
	}
	keys := s.pk.AppendKeys(nil, s.rows, c)
	w := 2 * c.Len()
	for i := range s.t {
		counts[string(keys[i*w:(i+1)*w])]++
	}
	return counts
}

// Reservoir is classical Algorithm-R reservoir sampling: a uniform
// sample of size t without replacement. It is the ablation partner of
// WithReplacement, run by experiment E3 (internal/experiments,
// RunSampling) and by comm.Sampled; no summary is built on it.
type Reservoir struct {
	t    int
	seen int64
	rows []words.Word
	src  *rng.Source
}

// NewReservoir returns a reservoir of capacity t.
func NewReservoir(t int, seed uint64) *Reservoir {
	if t < 1 {
		panic("sample: need positive reservoir size")
	}
	return &Reservoir{t: t, src: rng.New(seed)}
}

// ObserveBatch feeds every row of b (Algorithm R: fill the first t
// slots, then the row at stream position n replaces a uniform slot
// with probability t/n) and defers cloning: a slot hit several times
// within the batch keeps only the last assignment, so the batch costs
// one clone per touched slot rather than one per acceptance. The draw
// sequence depends on the stream positions only, not on where batches
// are cut.
func (r *Reservoir) ObserveBatch(b *words.Batch) {
	n := b.Len()
	i := 0
	for ; i < n && len(r.rows) < r.t; i++ {
		r.seen++
		r.rows = append(r.rows, b.Row(i).Clone())
	}
	var pending map[uint64]int
	for ; i < n; i++ {
		r.seen++
		if j := r.src.Uint64n(uint64(r.seen)); j < uint64(r.t) {
			if pending == nil {
				pending = make(map[uint64]int)
			}
			pending[j] = i
		}
	}
	for j, row := range pending {
		r.rows[j] = b.Row(row).Clone()
	}
}

// Seen returns the stream length observed.
func (r *Reservoir) Seen() int64 { return r.seen }

// Rows returns the current sample (length ≤ t).
func (r *Reservoir) Rows() []words.Word { return r.rows }

// EstimateFrequency scales the sample count of pattern b on c by n/|sample|.
func (r *Reservoir) EstimateFrequency(c words.ColumnSet, b words.Word) float64 {
	if len(r.rows) == 0 {
		return 0
	}
	full := words.FullColumnSet(len(b))
	bkey := words.AppendKey(nil, b, full)
	var rkey []byte
	g := 0
	for _, row := range r.rows {
		rkey = words.AppendKey(rkey[:0], row, c)
		if string(rkey) == string(bkey) {
			g++
		}
	}
	return float64(g) / float64(len(r.rows)) * float64(r.seen)
}
