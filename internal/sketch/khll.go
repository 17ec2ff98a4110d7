package sketch

import (
	"fmt"
	"sort"

	"repro/internal/hashing"
	"repro/internal/wire"
)

// KHLL is the KHyperLogLog sketch of Chia et al. (IEEE S&P 2019),
// the tool the paper's privacy/linkability motivation (Section 1)
// cites: a KMV sample of k hashed values, each paired with a small
// HyperLogLog counting the distinct ids observed with that value.
// From it one estimates both the number of distinct values and the
// distribution of ids-per-value — in the projected-frequency setting,
// how close projected patterns come to uniquely identifying rows.
//
// KHLL answers the "target dimensions known in advance" regime of the
// linkability problem; for dimensions revealed after the data, the
// paper's Section 4 lower bound applies and the α-net summary is the
// tool instead.
type KHLL struct {
	k         int
	precision int
	seed      uint64
	h         hashing.Mixer
	entries   map[uint64]*HLL // value hash → id counter, k smallest kept
	maxHash   uint64          // current k-th smallest (threshold), valid when full
}

// NewKHLL returns a KHLL retaining k values with 2^precision-register
// HLLs.
func NewKHLL(k, precision int, seed uint64) *KHLL {
	if k < 2 {
		panic("sketch: KHLL requires k >= 2")
	}
	if precision < 4 || precision > 16 {
		panic("sketch: KHLL precision outside [4, 16]")
	}
	return &KHLL{
		k:         k,
		precision: precision,
		seed:      seed,
		h:         hashing.NewMixer(seed),
		entries:   make(map[uint64]*HLL, mapHint(k)),
	}
}

// K returns the value-retention parameter.
func (s *KHLL) K() int { return s.k }

// Add observes one (value, id) pair — in the linkability use, value is
// the fingerprint of a projected pattern and id identifies the row or
// user it belongs to.
func (s *KHLL) Add(value, id uint64) {
	hv := s.h.Hash(value)
	if hll, ok := s.entries[hv]; ok {
		hll.Add(id)
		return
	}
	if len(s.entries) >= s.k {
		if hv >= s.maxHash {
			return
		}
		delete(s.entries, s.maxHash)
	}
	hll := NewHLL(s.precision, s.seed^0x9e3779b97f4a7c15)
	hll.Add(id)
	s.entries[hv] = hll
	s.refreshMax()
}

// AddBatch observes values[i] with id baseID+i for every i, equivalent
// to calling Add(values[i], baseID+i) in order — the id assignment the
// registered summary's row counter produces for a contiguous batch.
func (s *KHLL) AddBatch(values []uint64, baseID uint64) {
	for i, v := range values {
		s.Add(v, baseID+uint64(i))
	}
}

func (s *KHLL) refreshMax() {
	if len(s.entries) < s.k {
		s.maxHash = ^uint64(0)
		return
	}
	max := uint64(0)
	for hv := range s.entries {
		if hv > max {
			max = hv
		}
	}
	s.maxHash = max
}

// UniquenessDistribution returns, for each requested ids-per-value
// threshold t, the estimated fraction of values carrying at most t
// distinct ids. The retained values are a uniform sample of the
// distinct values, so sample fractions estimate population fractions
// (the core KHLL observation).
func (s *KHLL) UniquenessDistribution(thresholds []int) []float64 {
	out := make([]float64, len(thresholds))
	if len(s.entries) == 0 {
		return out
	}
	counts := make([]float64, 0, len(s.entries))
	for _, hll := range s.entries {
		counts = append(counts, hll.Estimate())
	}
	sort.Float64s(counts)
	for i, t := range thresholds {
		idx := sort.SearchFloat64s(counts, float64(t)+0.5)
		out[i] = float64(idx) / float64(len(counts))
	}
	return out
}

// HighlyIdentifying estimates the fraction of values seen with at
// most maxIDs distinct ids — the re-identification risk measure.
func (s *KHLL) HighlyIdentifying(maxIDs int) float64 {
	return s.UniquenessDistribution([]int{maxIDs})[0]
}

// SizeBytes reports the serialized footprint: 8 bytes per retained
// hash plus one HLL register block each.
func (s *KHLL) SizeBytes() int {
	total := 1 + 4 + 4 + 8
	for _, hll := range s.entries {
		total += 8 + hll.SizeBytes()
	}
	return total
}

// MarshalBinary encodes the sketch: the retained value hashes in
// ascending order, each followed by its id-counting HLL block.
func (s *KHLL) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(s.SizeBytes() + 4)
	w.U8(tagKHLL)
	w.U32(uint32(s.k))
	w.U8(uint8(s.precision))
	w.U64(s.seed)
	w.U32(uint32(len(s.entries)))
	hashes := make([]uint64, 0, len(s.entries))
	for hv := range s.entries {
		hashes = append(hashes, hv)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	for _, hv := range hashes {
		b, err := s.entries[hv].MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.U64(hv)
		w.Block(b)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a sketch produced by MarshalBinary,
// replacing the receiver's state. Allocation is bounded by the stored
// entry count, which is validated against the remaining input.
func (s *KHLL) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, ErrCorrupt)
	if r.U8() != tagKHLL {
		return fmt.Errorf("%w: not a KHLL sketch", ErrCorrupt)
	}
	k := int(r.U32())
	precision := int(r.U8())
	seed := r.U64()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	// Each entry costs at least its hash and block prefix (12 bytes).
	if k < 2 || precision < 4 || precision > 16 || n > k || 12*n > r.Remaining() {
		return fmt.Errorf("%w: KHLL header k=%d precision=%d n=%d", ErrCorrupt, k, precision, n)
	}
	tmp := &KHLL{
		k:         k,
		precision: precision,
		seed:      seed,
		h:         hashing.NewMixer(seed),
		entries:   make(map[uint64]*HLL, n),
	}
	prev := uint64(0)
	for i := 0; i < n; i++ {
		hv := r.U64()
		blob := r.Block()
		if err := r.Err(); err != nil {
			return err
		}
		if i > 0 && hv <= prev {
			return fmt.Errorf("%w: KHLL hashes out of order", ErrCorrupt)
		}
		prev = hv
		hll := &HLL{}
		if err := hll.UnmarshalBinary(blob); err != nil {
			return err
		}
		if hll.Precision() != precision {
			return fmt.Errorf("%w: KHLL member precision %d != %d", ErrCorrupt, hll.Precision(), precision)
		}
		tmp.entries[hv] = hll
	}
	if err := r.Done(); err != nil {
		return err
	}
	tmp.refreshMax()
	*s = *tmp
	return nil
}

// Merge folds another KHLL built with identical parameters into s.
func (s *KHLL) Merge(o *KHLL) error {
	if o.k != s.k || o.precision != s.precision || o.seed != s.seed {
		return fmt.Errorf("%w: KHLL k/precision/seed mismatch", ErrIncompatible)
	}
	for hv, ohll := range o.entries {
		if hll, ok := s.entries[hv]; ok {
			if err := hll.Merge(ohll); err != nil {
				return err
			}
			continue
		}
		cp := NewHLL(s.precision, s.seed^0x9e3779b97f4a7c15)
		if err := cp.Merge(ohll); err != nil {
			return err
		}
		s.entries[hv] = cp
	}
	// Trim back to the k smallest hashes.
	if len(s.entries) > s.k {
		hashes := make([]uint64, 0, len(s.entries))
		for hv := range s.entries {
			hashes = append(hashes, hv)
		}
		sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
		for _, hv := range hashes[s.k:] {
			delete(s.entries, hv)
		}
	}
	s.refreshMax()
	return nil
}
