package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/hashing"
	"repro/internal/wire"
)

// BJKST is the Bar-Yossef–Jayram–Kumar–Sivakumar–Trevisan distinct
// counter: it keeps the set B of (hashed) items whose hash has at
// least z trailing zeros, doubling z whenever |B| exceeds the bucket
// budget, and estimates F0 = |B| · 2^z. With budget = O(1/ε²) the
// estimate is (1±ε) with constant probability. Included as the third
// point in the F0-sketch ablation of experiment E8.
type BJKST struct {
	budget int
	seed   uint64
	h      hashing.Mixer
	z      uint8
	set    map[uint64]struct{}
}

// NewBJKST returns a BJKST sketch with the given bucket budget.
func NewBJKST(budget int, seed uint64) *BJKST {
	if budget < 8 {
		panic("sketch: BJKST budget must be at least 8")
	}
	return &BJKST{
		budget: budget,
		seed:   seed,
		h:      hashing.NewMixer(seed),
		set:    make(map[uint64]struct{}, mapHint(budget)),
	}
}

// BJKSTForEpsilon sizes the budget as 24/ε² (constant from the
// standard analysis, rounded generously).
func BJKSTForEpsilon(eps float64, seed uint64) *BJKST {
	if !(eps > 0 && eps < 1) {
		panic("sketch: epsilon outside (0,1)")
	}
	return NewBJKST(int(24/(eps*eps))+8, seed)
}

// Budget returns the bucket budget.
func (s *BJKST) Budget() int { return s.budget }

// Seed returns the hash seed.
func (s *BJKST) Seed() uint64 { return s.seed }

// Add observes an item.
func (s *BJKST) Add(item uint64) {
	s.addHash(s.h.Hash(item))
}

// AddBatch observes every item of items in order, equivalent to
// calling Add per item.
func (s *BJKST) AddBatch(items []uint64) {
	for _, item := range items {
		s.addHash(s.h.Hash(item))
	}
}

func (s *BJKST) addHash(hv uint64) {
	if uint8(bits.TrailingZeros64(hv|1<<63)) < s.z {
		return
	}
	s.set[hv] = struct{}{}
	for len(s.set) > s.budget {
		s.z++
		for v := range s.set {
			if uint8(bits.TrailingZeros64(v|1<<63)) < s.z {
				delete(s.set, v)
			}
		}
	}
}

// Estimate returns the approximate number of distinct items.
func (s *BJKST) Estimate() float64 {
	return float64(len(s.set)) * math.Ldexp(1, int(s.z))
}

// Merge unions another BJKST into s.
func (s *BJKST) Merge(o *BJKST) error {
	if o.budget != s.budget || o.seed != s.seed {
		return fmt.Errorf("%w: BJKST budget/seed mismatch", ErrIncompatible)
	}
	if o.z > s.z {
		s.z = o.z
		for v := range s.set {
			if uint8(bits.TrailingZeros64(v|1<<63)) < s.z {
				delete(s.set, v)
			}
		}
	}
	for v := range o.set {
		s.addHash(v)
	}
	return nil
}

// SizeBytes returns the serialized size.
func (s *BJKST) SizeBytes() int { return 1 + 4 + 8 + 1 + 4 + 8*len(s.set) }

// MarshalBinary encodes the sketch.
func (s *BJKST) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(s.SizeBytes())
	w.U8(tagBJKST)
	w.U32(uint32(s.budget))
	w.U64(s.seed)
	w.U8(s.z)
	w.U32(uint32(len(s.set)))
	vals := make([]uint64, 0, len(s.set))
	for v := range s.set {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, v := range vals {
		w.U64(v)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a sketch produced by MarshalBinary,
// replacing the receiver's state. Allocation is bounded by the stored
// value count, which must exactly fill the input.
func (s *BJKST) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, ErrCorrupt)
	if r.U8() != tagBJKST {
		return fmt.Errorf("%w: not a BJKST sketch", ErrCorrupt)
	}
	budget := int(r.U32())
	seed := r.U64()
	z := r.U8()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if budget < 8 || n > budget || r.Remaining() != 8*n {
		return fmt.Errorf("%w: BJKST header", ErrCorrupt)
	}
	tmp := &BJKST{
		budget: budget,
		seed:   seed,
		h:      hashing.NewMixer(seed),
		z:      z,
		set:    make(map[uint64]struct{}, n),
	}
	for i := 0; i < n; i++ {
		v := r.U64()
		if uint8(bits.TrailingZeros64(v|1<<63)) < z {
			return fmt.Errorf("%w: BJKST value below level", ErrCorrupt)
		}
		tmp.set[v] = struct{}{}
	}
	if err := r.Done(); err != nil {
		return err
	}
	*s = *tmp
	return nil
}
