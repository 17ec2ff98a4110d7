package sketch

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hashing"
	"repro/internal/wire"
)

// CountSketch is the Charikar–Chen–Farach-Colton sketch: depth rows of
// width counters, each row pairing a pairwise-independent bucket hash
// with a 4-wise independent ±1 sign hash. Point estimates are the
// median across rows of sign·counter, with additive error
// O(‖f‖₂/√width) — the ℓ₂ guarantee that distinguishes it from
// CountMin's ℓ₁ bound. Its row counters double as a fast-AMS F₂
// estimator (EstimateF2).
type CountSketch struct {
	width  int
	depth  int
	seed   uint64
	bucket []*hashing.PolyHash
	sign   []*hashing.PolyHash
	counts []int64 // depth × width, row-major
}

// NewCountSketch returns a CountSketch with the given shape.
func NewCountSketch(width, depth int, seed uint64) *CountSketch {
	if width < 1 || depth < 1 {
		panic("sketch: CountSketch shape must be positive")
	}
	s := &CountSketch{
		width:  width,
		depth:  depth,
		seed:   seed,
		bucket: make([]*hashing.PolyHash, depth),
		sign:   make([]*hashing.PolyHash, depth),
		counts: make([]int64, width*depth),
	}
	for i := 0; i < depth; i++ {
		s.bucket[i] = hashing.NewPolyHash(seed+uint64(2*i)*0xa0761d6478bd642f, 2)
		s.sign[i] = hashing.NewPolyHash(seed+uint64(2*i+1)*0xa0761d6478bd642f, 4)
	}
	return s
}

// CountSketchForError sizes the sketch for additive error ε‖f‖₂ with
// failure probability δ.
func CountSketchForError(eps, delta float64, seed uint64) *CountSketch {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic("sketch: CountSketch error parameters outside (0,1)")
	}
	w := int(math.Ceil(3 / (eps * eps)))
	d := int(math.Ceil(math.Log(1/delta))) | 1 // odd for a strict median
	if d < 1 {
		d = 1
	}
	return NewCountSketch(w, d, seed)
}

// Width returns the per-row counter count.
func (s *CountSketch) Width() int { return s.width }

// Depth returns the number of rows.
func (s *CountSketch) Depth() int { return s.depth }

// AddCount adds count occurrences of item (count may be negative:
// CountSketch supports turnstile updates).
func (s *CountSketch) AddCount(item uint64, count int64) {
	for r := 0; r < s.depth; r++ {
		b := s.bucket[r].Bucket(item, s.width)
		s.counts[r*s.width+b] += int64(s.sign[r].Sign(item)) * count
	}
}

// Add observes a single occurrence of item.
func (s *CountSketch) Add(item uint64) { s.AddCount(item, 1) }

// EstimateCount returns the median-of-rows estimate of f_item.
func (s *CountSketch) EstimateCount(item uint64) float64 {
	est := make([]float64, s.depth)
	for r := 0; r < s.depth; r++ {
		b := s.bucket[r].Bucket(item, s.width)
		est[r] = float64(s.sign[r].Sign(item)) * float64(s.counts[r*s.width+b])
	}
	return median(est)
}

// EstimateF2 returns the fast-AMS estimate of F₂ = ‖f‖₂²: the median
// across rows of the sum of squared counters.
func (s *CountSketch) EstimateF2() float64 {
	est := make([]float64, s.depth)
	for r := 0; r < s.depth; r++ {
		sum := 0.0
		for b := 0; b < s.width; b++ {
			c := float64(s.counts[r*s.width+b])
			sum += c * c
		}
		est[r] = sum
	}
	return median(est)
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Merge adds another CountSketch counter-wise.
func (s *CountSketch) Merge(o *CountSketch) error {
	if o.width != s.width || o.depth != s.depth || o.seed != s.seed {
		return fmt.Errorf("%w: CountSketch shape/seed mismatch", ErrIncompatible)
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	return nil
}

// SizeBytes returns the serialized size.
func (s *CountSketch) SizeBytes() int { return 1 + 4 + 4 + 8 + 8*len(s.counts) }

// MarshalBinary encodes the sketch.
func (s *CountSketch) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(s.SizeBytes())
	w.U8(tagCountSketch)
	w.U32(uint32(s.width))
	w.U32(uint32(s.depth))
	w.U64(s.seed)
	for _, c := range s.counts {
		w.I64(c)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a sketch produced by MarshalBinary,
// replacing the receiver's state. The claimed shape must exactly fill
// the input, so allocation is bounded by the blob.
func (s *CountSketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, ErrCorrupt)
	if r.U8() != tagCountSketch {
		return fmt.Errorf("%w: not a CountSketch", ErrCorrupt)
	}
	width := int(r.U32())
	depth := int(r.U32())
	seed := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if width < 1 || depth < 1 || r.Remaining()%8 != 0 ||
		int64(width)*int64(depth) != int64(r.Remaining()/8) {
		return fmt.Errorf("%w: CountSketch shape", ErrCorrupt)
	}
	tmp := NewCountSketch(width, depth, seed)
	for i := range tmp.counts {
		tmp.counts[i] = r.I64()
	}
	if err := r.Done(); err != nil {
		return err
	}
	*s = *tmp
	return nil
}
