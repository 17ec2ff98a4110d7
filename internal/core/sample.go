package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/words"
)

// Sample is the uniform-row-sampling summary of Theorem 5.1 and
// Corollary 5.2: t with-replacement uniform row samples kept while
// streaming, independent of any future query C. Each slot draws only
// when it accepts a row, about ln n times over n rows, and a batch in
// which no slot accepts costs O(1).
//
// Guarantees (from the paper):
//   - Frequency: additive error ε‖f‖₁ ≤ ε‖f‖_p for 0 < p ≤ 1 with
//     t = O(ε⁻² log 1/δ) (Theorem 5.1, Corollary 5.2).
//   - HeavyHitters: report f̂ ≥ φ‖f‖_p estimates for 0 < p ≤ 1
//     (Section 5.1's discussion).
//   - SampleLp: exact for p = 1 (a uniform row *is* an ℓ1 pattern
//     draw); for p ≠ 1 the importance-reweighted draw comes with no
//     guarantee — Theorem 5.5 proves none is possible — and the
//     experiment suite demonstrates its failure on the adversarial
//     instances.
//
// F0/Fp queries are unsupported: Section 4 proves 2^Ω(d) space is
// needed, and a uniform sample cannot certify distinctness.
type Sample struct {
	d, q int
	wr   *sample.WithReplacement
}

// NewSample returns a sampling summary of size t. It rejects
// degenerate shapes (d < 1, q < 2) and sizes (t < 1) with an error
// wrapping ErrInvalidParam.
func NewSample(d, q, t int, seed uint64) (*Sample, error) {
	if err := validateRowShape("sample", d, q); err != nil {
		return nil, err
	}
	if t < 1 {
		return nil, badParam("sample", "t", t, "must be positive")
	}
	return &Sample{d: d, q: q, wr: sample.NewWithReplacementPacked(words.NewPacking(d, q), t, seed)}, nil
}

// NewSampleForError sizes the summary per Theorem 5.1 for additive
// error ε‖f‖₁ with probability 1−δ. ε and δ outside (0,1) are
// rejected with an error wrapping ErrInvalidParam.
func NewSampleForError(d, q int, eps, delta float64, seed uint64) (*Sample, error) {
	if err := validateErrorParams("sample", eps, delta); err != nil {
		return nil, err
	}
	return NewSample(d, q, sample.SizeForError(eps, delta), seed)
}

// Merge implements Mergeable: it folds another Sample built over a
// disjoint part of the stream into s. Both must use the same shape and
// sample size t; seeds may differ (and should, when the shards sample
// independently). The slot-wise reservoir-step merge keeps every
// retained row a uniform draw from the combined stream.
func (s *Sample) Merge(other Summary) error {
	o, ok := other.(*Sample)
	if !ok {
		return mergeErr("cannot merge %s with %T", s.Name(), other)
	}
	if o == s {
		return errSelfMerge
	}
	if o.d != s.d || o.q != s.q {
		return mergeErr("shape mismatch: %d cols/[%d] vs %d cols/[%d]", s.d, s.q, o.d, o.q)
	}
	if err := s.wr.Merge(o.wr); err != nil {
		return mergeWrap(err)
	}
	return nil
}

// Observe feeds one row.
func (s *Sample) Observe(w words.Word) {
	s.ObserveBatch(words.RowBatch(w))
}

// ObserveBatch feeds the batch to the sampler, which only counts a
// batch in which no slot's next acceptance falls, and otherwise packs
// it in the summary's layout and ingests it (ObservePacked). It panics
// if b's dimension differs from the summary's, or if a batch it packs
// has a symbol outside [Q].
func (s *Sample) ObserveBatch(b *words.Batch) {
	if b.Dim() != s.d {
		panic(fmt.Sprintf("core: batch dimension %d != data dimension %d", b.Dim(), s.d))
	}
	s.wr.ObserveBatch(b)
}

// ObservePacked feeds the batch to the sampler: each slot that accepts
// copies the one row it keeps, s bytes, into its place. It panics if
// b's layout is not the summary's.
func (s *Sample) ObservePacked(b *words.PackedBatch) {
	s.wr.ObservePacked(b)
}

// Dim returns d.
func (s *Sample) Dim() int { return s.d }

// Alphabet returns Q.
func (s *Sample) Alphabet() int { return s.q }

// Rows returns n.
func (s *Sample) Rows() int64 { return s.wr.Seen() }

// SizeBytes counts the t packed rows, s bytes each, plus counters. A
// summary that has seen no row holds no rows.
func (s *Sample) SizeBytes() int {
	if s.wr.Seen() == 0 {
		return 16
	}
	return 16 + s.wr.Size()*words.NewPacking(s.d, s.q).Stride()
}

// Name identifies the summary.
func (s *Sample) Name() string { return "sample-wr" }

// Frequency returns the scaled sample estimate of f_{e(b)}(A, C), the
// estimator f̂ = g/α of Theorem 5.1.
func (s *Sample) Frequency(c words.ColumnSet, b words.Word) (float64, error) {
	if err := validateQuery(s, c); err != nil {
		return 0, err
	}
	if err := validatePattern(c, b, s.q); err != nil {
		return 0, err
	}
	return s.wr.EstimateFrequency(c, b), nil
}

// HeavyHitters estimates the φ-ℓp heavy hitters from the sample: each
// sampled pattern's frequency is estimated via the Theorem 5.1
// estimator and compared against φ·(Σ f̂^p)^{1/p}. The paper
// guarantees this for 0 < p ≤ 1; for p > 1 the query still answers
// but Theorem 5.3's instances defeat it (demonstrated in E4).
func (s *Sample) HeavyHitters(c words.ColumnSet, p, phi float64) ([]HeavyHitter, error) {
	if err := validateQuery(s, c); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, errNonPositiveP(p)
	}
	if phi <= 0 || phi > 1 {
		return nil, errBadPhi(phi)
	}
	if s.Rows() == 0 {
		return nil, nil
	}
	// Every slot holds a row once one is seen.
	counts := s.wr.ProjectedCounts(c)
	scale := float64(s.Rows()) / float64(s.wr.Size())
	// Estimate ‖f‖_p from the sample-estimated frequencies of the
	// sampled patterns. For p ≤ 1, ‖f‖_p ≥ ‖f‖₁ = n makes the
	// threshold conservative-correct; the estimate refines it.
	var fp float64
	for _, g := range counts {
		fp += math.Pow(float64(g)*scale, p)
	}
	norm := math.Pow(fp, 1/p)
	if p <= 1 {
		// ‖f‖_p ≥ n for p ≤ 1: clamp up so no light item sneaks in.
		if n := float64(s.Rows()); norm < n {
			norm = n
		}
	}
	thresh := phi * norm
	var out []HeavyHitter
	for key, g := range counts {
		est := float64(g) * scale
		if est >= thresh {
			out = append(out, HeavyHitter{Pattern: words.KeyToWord(key), Estimate: est})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Estimate != out[j].Estimate {
			return out[i].Estimate > out[j].Estimate
		}
		return out[i].Pattern.String() < out[j].Pattern.String()
	})
	return out, nil
}

// SampleLp draws a pattern approximately from the ℓp distribution.
// p = 1 is a uniform row draw, which is exact (up to the sample being
// uniform). For p ≠ 1 the draw reweights sampled patterns by
// ĝ^p — a heuristic with no guarantee, per Theorem 5.5.
func (s *Sample) SampleLp(c words.ColumnSet, p float64, r *rng.Source) (LpSample, error) {
	if err := validateQuery(s, c); err != nil {
		return LpSample{}, err
	}
	if p < 0 {
		return LpSample{}, errNegativeP(p)
	}
	counts := s.wr.ProjectedCounts(c)
	if len(counts) == 0 {
		return LpSample{}, errEmptyData
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	weights := make([]float64, len(keys))
	total := 0.0
	for i, k := range keys {
		w := math.Pow(float64(counts[k]), p)
		weights[i] = w
		total += w
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc || i == len(keys)-1 {
			return LpSample{
				Pattern:     words.KeyToWord(keys[i]),
				Probability: w / total,
			}, nil
		}
	}
	return LpSample{}, errEmptyData // unreachable
}
