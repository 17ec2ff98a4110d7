package core

import (
	"fmt"
	"sort"

	"repro/internal/combin"
	"repro/internal/hashing"
	"repro/internal/rng"
	"repro/internal/sketch"
	"repro/internal/words"
)

// Subset is the enumeration baseline of Section 3.1: when the query
// size t = |C| is known in advance, keep one (1±ε) F0 sketch for each
// of the C(d, t) subsets of [d] with size t. Queries of exactly that
// size are answered directly (no rounding distortion), at Ω(d^t)
// space — the cost the paper notes "does not give a major reduction".
type Subset struct {
	d, q, t int
	eps     float64
	seed    uint64
	masks   []uint64
	subsets []words.ColumnSet
	sk      []*sketch.KMV
	keyBuf  []byte   // reusable key arena for ObserveBatch
	fps     []uint64 // reusable fingerprint arena for ObserveBatch
	rows    int64
}

// NewSubset enumerates all C(d, t) sketches; it refuses shapes whose
// enumeration exceeds maxSketches to protect callers from accidental
// combinatorial explosions, and d > 64: subsets are looked up by a
// 64-bit column mask.
func NewSubset(d, q, t int, eps float64, seed uint64, maxSketches int) (*Subset, error) {
	if err := validateShape("subset", d, q); err != nil {
		return nil, err
	}
	if d > 64 {
		return nil, badParam("subset", "d", d, "exceeds the 64 columns a subset mask holds")
	}
	if t < 1 || t > d {
		return nil, badParam("subset", "t", t, fmt.Sprintf("outside [1, %d]", d))
	}
	if !(eps > 0 && eps < 1) {
		return nil, badParam("subset", "eps", eps, "outside (0,1)")
	}
	if err := validateEpsRetention("subset", eps); err != nil {
		return nil, err
	}
	count, err := combin.Binomial(d, t)
	if err != nil {
		return nil, err
	}
	if maxSketches > 0 && count > uint64(maxSketches) {
		return nil, fmt.Errorf("core: C(%d,%d) = %d exceeds sketch budget %d", d, t, count, maxSketches)
	}
	s := &Subset{d: d, q: q, t: t, eps: eps, seed: seed}
	master := rng.New(seed)
	combin.Combinations(d, t, func(cols []int) bool {
		cs := words.MustColumnSet(d, cols...)
		s.masks = append(s.masks, maskOf(cols))
		s.subsets = append(s.subsets, cs)
		s.sk = append(s.sk, sketch.KMVForEpsilon(eps, master.Uint64()))
		return true
	})
	// Combinations enumerates in lexicographic order; queries look up
	// by mask, so keep a mask-sorted view.
	idx := make([]int, len(s.masks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.masks[idx[a]] < s.masks[idx[b]] })
	masks := make([]uint64, len(idx))
	subsets := make([]words.ColumnSet, len(idx))
	sk := make([]*sketch.KMV, len(idx))
	for i, j := range idx {
		masks[i], subsets[i], sk[i] = s.masks[j], s.subsets[j], s.sk[j]
	}
	s.masks, s.subsets, s.sk = masks, subsets, sk
	return s, nil
}

func maskOf(cols []int) uint64 {
	var m uint64
	for _, c := range cols {
		m |= 1 << uint(c)
	}
	return m
}

// Observe feeds one row into every subset sketch.
func (s *Subset) Observe(w words.Word) {
	s.ObserveBatch(words.RowBatch(w))
}

// ObserveBatch feeds the batch subset-major through the batched key
// pipeline: for each of the C(d, t) subsets the whole batch is
// projected into one flat key arena (words.AppendBatchKeys),
// fingerprinted in one pass (hashing.AppendFingerprints64), and fed to
// that subset's KMV via AddBatch. Both arenas are owned by the summary
// and reused across subsets and batches.
func (s *Subset) ObserveBatch(b *words.Batch) {
	if b.Dim() != s.d {
		panic(fmt.Sprintf("core: batch dimension %d != data dimension %d", b.Dim(), s.d))
	}
	n := b.Len()
	if n == 0 {
		return
	}
	s.rows += int64(n)
	stride := 2 * s.t
	for i, cs := range s.subsets {
		s.keyBuf = words.AppendBatchKeys(s.keyBuf[:0], b, cs)
		s.fps = hashing.AppendFingerprints64(s.fps[:0], s.keyBuf, n, stride)
		s.sk[i].AddBatch(s.fps)
	}
}

// Dim returns d.
func (s *Subset) Dim() int { return s.d }

// Alphabet returns Q.
func (s *Subset) Alphabet() int { return s.q }

// Rows returns n.
func (s *Subset) Rows() int64 { return s.rows }

// QuerySize returns the fixed query size t.
func (s *Subset) QuerySize() int { return s.t }

// NumSketches returns C(d, t).
func (s *Subset) NumSketches() int { return len(s.sk) }

// SizeBytes totals the sketch sizes.
func (s *Subset) SizeBytes() int {
	total := 0
	for _, k := range s.sk {
		total += k.SizeBytes()
	}
	return total
}

// Name identifies the summary.
func (s *Subset) Name() string { return fmt.Sprintf("subset(t=%d)", s.t) }

// Merge implements Mergeable: it unites each of the C(d, t) member
// KMV sketches with its peer. Both summaries must share (d, q, t, ε,
// seed) so paired sketches hash identically; the merged sketch set is
// then exactly the sketch set of the concatenated stream.
func (s *Subset) Merge(other Summary) error {
	o, ok := other.(*Subset)
	if !ok {
		return mergeErr("cannot merge %s with %T", s.Name(), other)
	}
	if o == s {
		return errSelfMerge
	}
	if o.d != s.d || o.q != s.q || o.t != s.t {
		return mergeErr("merging subset summaries of different shape (d=%d,q=%d,t=%d vs d=%d,q=%d,t=%d)",
			s.d, s.q, s.t, o.d, o.q, o.t)
	}
	if o.eps != s.eps || o.seed != s.seed {
		return mergeErr("merging subset summaries with different configs")
	}
	for i := range s.sk {
		if err := s.sk[i].Merge(o.sk[i]); err != nil {
			return fmt.Errorf("%w: subset %d: %w", ErrIncompatibleMerge, i, err)
		}
	}
	s.rows += o.rows
	return nil
}

// F0 answers a query of exactly size t from its dedicated sketch.
func (s *Subset) F0(c words.ColumnSet) (float64, error) {
	if err := validateQuery(s, c); err != nil {
		return 0, err
	}
	if c.Len() != s.t {
		return 0, fmt.Errorf("%w: subset summary only answers |C| = %d, got %d", ErrUnsupported, s.t, c.Len())
	}
	mask := c.Mask()
	i := sort.Search(len(s.masks), func(i int) bool { return s.masks[i] >= mask })
	if i >= len(s.masks) || s.masks[i] != mask {
		return 0, fmt.Errorf("core: subset %v not materialized", c)
	}
	return s.sk[i].Estimate(), nil
}
