package core

import (
	"fmt"
	"sort"

	"repro/internal/hashing"
	"repro/internal/sketch"
	"repro/internal/words"
)

// Registered is the summary for the easy regime the paper's
// introduction contrasts with: the target column subsets are *known
// in advance* (as in the KHyperLogLog deployment of Chia et al. [6]).
// One (1±ε) F0 sketch and one KHLL uniqueness sketch are maintained
// per registered subset, so space is linear in the number of
// registered queries — no 2^Ω(d) anywhere, which is exactly the gap
// between this model and the paper's reveal-after-observation model.
type Registered struct {
	d, q    int
	cfg     RegisteredConfig
	masks   []uint64
	subsets []words.ColumnSet
	f0      []*sketch.KMV
	khll    []*sketch.KHLL
	keyBuf  []byte   // reusable key arena for ObserveBatch
	fps     []uint64 // reusable fingerprint arena for ObserveBatch
	rows    int64
}

// RegisteredConfig configures NewRegistered.
type RegisteredConfig struct {
	// Epsilon is the F0 sketch accuracy (default 0.05).
	Epsilon float64
	// KHLLValues is the per-subset KHLL value-sample size k
	// (default 512).
	KHLLValues int
	// KHLLPrecision is the per-value HLL precision (default 8).
	KHLLPrecision int
	// Seed drives all sketch randomness.
	Seed uint64
}

// NewRegistered builds a summary for an explicit list of query
// subsets, all over dimension d ≤ 64 (subsets are looked up by a
// 64-bit column mask). Duplicate subsets are collapsed.
func NewRegistered(d, q int, subsets []words.ColumnSet, cfg RegisteredConfig) (*Registered, error) {
	if len(subsets) == 0 {
		return nil, fmt.Errorf("core: no subsets registered")
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.05
	}
	if !(cfg.Epsilon > 0 && cfg.Epsilon < 1) {
		return nil, fmt.Errorf("core: registered epsilon %v outside (0,1)", cfg.Epsilon)
	}
	if err := validateEpsRetention("registered", cfg.Epsilon); err != nil {
		return nil, err
	}
	if cfg.KHLLValues == 0 {
		cfg.KHLLValues = 512
	}
	if cfg.KHLLPrecision == 0 {
		cfg.KHLLPrecision = 8
	}
	if cfg.KHLLValues < 2 || cfg.KHLLValues > maxSketchRetention {
		return nil, badParam("registered", "khllvalues", cfg.KHLLValues,
			fmt.Sprintf("outside [2, %d]", maxSketchRetention))
	}
	if cfg.KHLLPrecision < 4 || cfg.KHLLPrecision > 16 {
		return nil, badParam("registered", "khllprecision", cfg.KHLLPrecision, "outside [4, 16]")
	}
	if d > 64 {
		return nil, badParam("registered", "d", d, "exceeds the 64 columns a subset mask holds")
	}
	s := &Registered{d: d, q: q, cfg: cfg}
	seen := map[uint64]bool{}
	for _, c := range subsets {
		if c.Dim() != d {
			return nil, fmt.Errorf("core: subset %v has dimension %d, want %d", c, c.Dim(), d)
		}
		if c.Len() == 0 {
			return nil, fmt.Errorf("core: empty subset registered")
		}
		mask := c.Mask()
		if seen[mask] {
			continue
		}
		seen[mask] = true
		s.masks = append(s.masks, mask)
		s.subsets = append(s.subsets, c)
	}
	// Sort by mask for binary-search lookup.
	idx := make([]int, len(s.masks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.masks[idx[a]] < s.masks[idx[b]] })
	masks := make([]uint64, len(idx))
	sets := make([]words.ColumnSet, len(idx))
	for i, j := range idx {
		masks[i], sets[i] = s.masks[j], s.subsets[j]
	}
	s.masks, s.subsets = masks, sets
	for i := range s.subsets {
		s.f0 = append(s.f0, sketch.KMVForEpsilon(cfg.Epsilon, cfg.Seed+uint64(i)*0x9e3779b97f4a7c15))
		s.khll = append(s.khll, sketch.NewKHLL(cfg.KHLLValues, cfg.KHLLPrecision, cfg.Seed^uint64(i)*0xa0761d6478bd642f))
	}
	return s, nil
}

// Observe feeds one row into every registered subset's sketches.
func (s *Registered) Observe(w words.Word) {
	s.ObserveBatch(words.RowBatch(w))
}

// ObserveBatch feeds the batch subset-major through the batched key
// pipeline: each registered subset's whole-batch key arena
// (words.AppendBatchKeys) is fingerprinted in one pass
// (hashing.AppendFingerprints64) and fed to its F0 and KHLL sketches
// via AddBatch. The running row index serves as the KHLL id, so ids
// (and the per-stream id semantics Merge documents) do not depend on
// where batches are cut.
func (s *Registered) ObserveBatch(b *words.Batch) {
	if b.Dim() != s.d {
		panic(fmt.Sprintf("core: batch dimension %d != dimension %d", b.Dim(), s.d))
	}
	n := b.Len()
	if n == 0 {
		return
	}
	base := uint64(s.rows)
	s.rows += int64(n)
	for i, c := range s.subsets {
		s.keyBuf = words.AppendBatchKeys(s.keyBuf[:0], b, c)
		s.fps = hashing.AppendFingerprints64(s.fps[:0], s.keyBuf, n, 2*c.Len())
		s.f0[i].AddBatch(s.fps)
		s.khll[i].AddBatch(s.fps, base)
	}
}

// Dim returns d.
func (s *Registered) Dim() int { return s.d }

// Alphabet returns Q.
func (s *Registered) Alphabet() int { return s.q }

// Rows returns n.
func (s *Registered) Rows() int64 { return s.rows }

// NumSubsets returns the number of registered subsets.
func (s *Registered) NumSubsets() int { return len(s.subsets) }

// SizeBytes totals the sketch footprints.
func (s *Registered) SizeBytes() int {
	total := 0
	for i := range s.f0 {
		total += s.f0[i].SizeBytes() + s.khll[i].SizeBytes()
	}
	return total
}

// Name identifies the summary.
func (s *Registered) Name() string {
	return fmt.Sprintf("registered(%d subsets)", len(s.subsets))
}

// Merge implements Mergeable: it unites each registered subset's F0
// and KHLL sketches with its peer's. Both summaries must have been
// built with the same shape, subset list, and configuration (including
// Seed, so paired sketches hash identically). F0 estimates merge
// exactly (KMV union); KHLL ids are per-stream row indexes, so rows
// holding the same index in the two streams collapse to one id and
// merged Uniqueness estimates are conservative (biased toward
// reporting values as more identifying).
func (s *Registered) Merge(other Summary) error {
	o, ok := other.(*Registered)
	if !ok {
		return mergeErr("cannot merge %s with %T", s.Name(), other)
	}
	if o == s {
		return errSelfMerge
	}
	if o.d != s.d || o.q != s.q {
		return mergeErr("shape mismatch: %d cols/[%d] vs %d cols/[%d]", s.d, s.q, o.d, o.q)
	}
	if o.cfg != s.cfg {
		return mergeErr("merging registered summaries with different configs")
	}
	if len(o.masks) != len(s.masks) {
		return mergeErr("merging registered summaries with different subset lists")
	}
	for i := range s.masks {
		if s.masks[i] != o.masks[i] {
			return mergeErr("subset %d mask mismatch", i)
		}
	}
	for i := range s.f0 {
		if err := s.f0[i].Merge(o.f0[i]); err != nil {
			return mergeWrap(err)
		}
		if err := s.khll[i].Merge(o.khll[i]); err != nil {
			return mergeWrap(err)
		}
	}
	s.rows += o.rows
	return nil
}

func (s *Registered) lookup(c words.ColumnSet) (int, error) {
	if c.Dim() != s.d {
		return 0, fmt.Errorf("core: query dimension %d != data dimension %d", c.Dim(), s.d)
	}
	mask := c.Mask()
	i := sort.Search(len(s.masks), func(i int) bool { return s.masks[i] >= mask })
	if i >= len(s.masks) || s.masks[i] != mask {
		return 0, fmt.Errorf("%w: subset %v was not registered before observation", ErrUnsupported, c)
	}
	return i, nil
}

// F0 answers a registered subset's distinct-pattern count within
// (1±ε) — no rounding distortion, because the subset was known up
// front.
func (s *Registered) F0(c words.ColumnSet) (float64, error) {
	i, err := s.lookup(c)
	if err != nil {
		return 0, err
	}
	return s.f0[i].Estimate(), nil
}

// Uniqueness estimates the fraction of distinct patterns on the
// registered subset c that occur in at most maxRows rows — the
// KHyperLogLog re-identifiability measure.
func (s *Registered) Uniqueness(c words.ColumnSet, maxRows int) (float64, error) {
	i, err := s.lookup(c)
	if err != nil {
		return 0, err
	}
	if maxRows < 1 {
		return 0, fmt.Errorf("core: maxRows must be positive")
	}
	return s.khll[i].HighlyIdentifying(maxRows), nil
}
