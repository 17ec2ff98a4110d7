package workload

import (
	"fmt"
	"math"

	"repro/internal/codes"
	"repro/internal/rng"
	"repro/internal/words"
)

// F0Instance is an executable Theorem 4.1 / Corollary 4.2–4.3
// construction: Alice's set T ⊆ B(d, k), Bob's test codeword y with
// query S = supp(y), and the input array A = star_Q(T) as a stream.
// When y ∈ T the projected F0 on S is exactly Q^k; when y ∉ T it is
// at most k·Q^{k-1} (the separation Δ = Q/k of Equation (3)).
type F0Instance struct {
	D, K, Q int
	T       []codes.Codeword
	Y       codes.Codeword
	InT     bool
	Query   words.ColumnSet
}

// NewF0Instance builds an instance. tSize is |T|; inT chooses whether
// Bob's word is planted in T (the two Index cases). q must exceed k
// for the theorem's approximation factor Q/k to exceed 1.
func NewF0Instance(d, k, q, tSize int, inT bool, src *rng.Source) (*F0Instance, error) {
	if k < 1 || k >= d {
		return nil, fmt.Errorf("workload: weight k=%d outside [1, d)", k)
	}
	if tSize < 1 {
		return nil, fmt.Errorf("workload: |T| must be positive")
	}
	base, err := codes.NewConstantWeightCode(d, k)
	if err != nil {
		return nil, err
	}
	size, err := base.Size()
	if err == nil && uint64(tSize+1) > size {
		return nil, fmt.Errorf("workload: |T|+1 = %d exceeds |B(%d,%d)| = %d", tSize+1, d, k, size)
	}
	// Sample T ∪ {candidate y} as distinct codewords.
	seen := make(map[string]bool)
	var pool []codes.Codeword
	for len(pool) < tSize+1 {
		c := base.Sample(src)
		key := c.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		pool = append(pool, c)
	}
	inst := &F0Instance{D: d, K: k, Q: q}
	if inT {
		inst.T = pool[:tSize]
		inst.Y = pool[src.Intn(tSize)]
	} else {
		inst.T = pool[:tSize]
		inst.Y = pool[tSize]
	}
	inst.InT = inT
	inst.Query = inst.Y.SupportSet()
	return inst, nil
}

// Source streams A = star_Q(T).
func (i *F0Instance) Source() (*codes.StarSource, error) {
	return codes.NewStarSource(i.T, i.Q)
}

// RowCount returns |T|·Q^k, the instance size reported in Table 1.
func (i *F0Instance) RowCount() (uint64, error) {
	s, err := i.Source()
	if err != nil {
		return 0, err
	}
	return s.TotalRows()
}

// ThresholdHigh returns Q^k, the F0 value when y ∈ T.
func (i *F0Instance) ThresholdHigh() float64 {
	return math.Pow(float64(i.Q), float64(i.K))
}

// ThresholdLow returns k·Q^{k-1}, the Theorem 4.1 bound on F0 when
// y ∉ T.
func (i *F0Instance) ThresholdLow() float64 {
	return float64(i.K) * math.Pow(float64(i.Q), float64(i.K-1))
}

// AlphabetReduction implements the Corollary 4.4 remapping: each
// symbol of [Q] expands to L = ⌈log_q′ Q⌉ digits over the smaller
// alphabet [q′], multiplying the dimensionality by L while preserving
// projected F0 exactly (the digit map is a bijection on symbols).
type AlphabetReduction struct {
	inner  *codes.StarSource
	qSmall int
	L      int
	buf    words.Word
}

// NewAlphabetReduction wraps the instance's star stream with the
// [Q] → [q′]^L encoding. It requires 2 ≤ qSmall < Q.
func (i *F0Instance) NewAlphabetReduction(qSmall int) (*AlphabetReduction, error) {
	if qSmall < 2 || qSmall >= i.Q {
		return nil, fmt.Errorf("workload: reduced alphabet %d outside [2, Q)", qSmall)
	}
	inner, err := i.Source()
	if err != nil {
		return nil, err
	}
	l := digitsNeeded(i.Q, qSmall)
	return &AlphabetReduction{inner: inner, qSmall: qSmall, L: l, buf: make(words.Word, i.D*l)}, nil
}

func digitsNeeded(q, base int) int {
	l, v := 0, 1
	for v < q {
		v *= base
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// Dim returns d′ = d·L.
func (a *AlphabetReduction) Dim() int { return a.inner.Dim() * a.L }

// Alphabet returns the reduced alphabet size q′.
func (a *AlphabetReduction) Alphabet() int { return a.qSmall }

// Reset replays the stream.
func (a *AlphabetReduction) Reset() { a.inner.Reset() }

// Next expands the next inner row symbol-by-symbol (most significant
// digit first).
func (a *AlphabetReduction) Next() (words.Word, bool) {
	w, ok := a.inner.Next()
	if !ok {
		return nil, false
	}
	for j, x := range w {
		v := int(x)
		for t := a.L - 1; t >= 0; t-- {
			a.buf[j*a.L+t] = uint16(v % a.qSmall)
			v /= a.qSmall
		}
	}
	return a.buf, true
}

// ExpandQuery maps a column query over [d] to the corresponding
// digit-columns over [d·L].
func (a *AlphabetReduction) ExpandQuery(c words.ColumnSet) words.ColumnSet {
	var cols []int
	for _, j := range c.Columns() {
		for t := 0; t < a.L; t++ {
			cols = append(cols, j*a.L+t)
		}
	}
	return words.MustColumnSet(a.Dim(), cols...)
}

// HHInstance is the Theorem 5.3 construction (also used by Theorem
// 5.4's p > 1 case and Theorem 5.5's p > 1 case): a Lemma 3.2 random
// code, Alice's array holding 2^{εd} copies of the all-ones vector
// plus star₂(T), and Bob querying S = [d] \ supp(y). The all-zeros
// pattern 0_S is a constant-factor ℓp heavy hitter iff y ∈ T.
type HHInstance struct {
	D     int
	Eps   float64
	Code  *codes.Code
	T     []codes.Codeword
	Y     codes.Codeword
	InT   bool
	Query words.ColumnSet
}

// HHParams configures NewHHInstance.
type HHParams struct {
	D     int     // dimensionality
	Eps   float64 // codeword weight fraction ε
	Gamma float64 // Lemma 3.2 slack γ
	TSize int     // |T|
	InT   bool    // plant y in T?
}

// NewHHInstance samples the code and splits it into T and y.
func NewHHInstance(p HHParams, src *rng.Source) (*HHInstance, error) {
	code, err := codes.SampleRandomCode(codes.RandomCodeParams{
		D: p.D, Epsilon: p.Eps, Gamma: p.Gamma, Size: p.TSize + 1,
	}, src)
	if err != nil {
		return nil, err
	}
	all := code.Words()
	inst := &HHInstance{D: p.D, Eps: p.Eps, Code: code, InT: p.InT}
	inst.T = all[:p.TSize]
	if p.InT {
		inst.Y = inst.T[src.Intn(p.TSize)]
	} else {
		inst.Y = all[p.TSize]
	}
	inst.Query = inst.Y.ComplementSet()
	return inst, nil
}

// Weight returns the codeword weight εd.
func (i *HHInstance) Weight() int { return i.Y.Weight() }

// Source streams the instance: 2^{εd} copies of 1_d, then star₂(T).
func (i *HHInstance) Source() (words.RowSource, error) {
	star, err := codes.NewStarSource(i.T, 2)
	if err != nil {
		return nil, err
	}
	copies := 1 << uint(i.Weight())
	ones := make(words.Word, i.D)
	for j := range ones {
		ones[j] = 1
	}
	onesSrc := &words.FuncSource{
		D: i.D, Q: 2,
		F: func(n int) (words.Word, bool) {
			if n >= copies {
				return nil, false
			}
			return ones, true
		},
	}
	return words.Concat(onesSrc, star), nil
}

// ZeroPattern returns 0_S, the candidate heavy hitter, with length |S|.
func (i *HHInstance) ZeroPattern() words.Word {
	return make(words.Word, i.Query.Len())
}

// RowCount returns (|T|+1)·2^{εd}, the instance size of Remark 2.
func (i *HHInstance) RowCount() uint64 {
	return uint64(len(i.T)+1) << uint(i.Weight())
}

// FpInstance is the Theorem 5.4 construction for 0 < p < 1 (also
// Theorem 5.5's p < 1 case): A = star₂(T) with Bob querying
// S = supp(y). F_p is at least 2^{εd} when y ∈ T and provably smaller
// otherwise.
type FpInstance struct {
	D     int
	Eps   float64
	Code  *codes.Code
	T     []codes.Codeword
	Y     codes.Codeword
	InT   bool
	Query words.ColumnSet
}

// NewFpInstance samples the Lemma 3.2 code and assembles the instance.
func NewFpInstance(p HHParams, src *rng.Source) (*FpInstance, error) {
	code, err := codes.SampleRandomCode(codes.RandomCodeParams{
		D: p.D, Epsilon: p.Eps, Gamma: p.Gamma, Size: p.TSize + 1,
	}, src)
	if err != nil {
		return nil, err
	}
	all := code.Words()
	inst := &FpInstance{D: p.D, Eps: p.Eps, Code: code, InT: p.InT}
	inst.T = all[:p.TSize]
	if p.InT {
		inst.Y = inst.T[src.Intn(p.TSize)]
	} else {
		inst.Y = all[p.TSize]
	}
	inst.Query = inst.Y.SupportSet()
	return inst, nil
}

// Weight returns the codeword weight εd.
func (i *FpInstance) Weight() int { return i.Y.Weight() }

// Source streams A = star₂(T).
func (i *FpInstance) Source() (*codes.StarSource, error) {
	return codes.NewStarSource(i.T, 2)
}

// ThresholdHigh returns 2^{εd}, the F_p lower bound when y ∈ T
// (Case 2 of Theorem 5.4).
func (i *FpInstance) ThresholdHigh() float64 {
	return math.Exp2(float64(i.Weight()))
}

// MPrime returns the Theorem 5.5 test set M′ = {z ∈ star(y)
// restricted to S : |supp(z)| ≥ εd/2} as a set of pattern strings
// over the query columns; Bob checks whether sampled patterns land in
// it. The words returned have length |S| = εd.
func (i *FpInstance) MPrime() map[string]struct{} {
	w := i.Weight()
	half := (w + 1) / 2
	out := make(map[string]struct{})
	full := words.FullColumnSet(w)
	z := make(words.Word, w)
	for mask := uint64(0); mask < 1<<uint(w); mask++ {
		pc := 0
		for m := mask; m != 0; m &= m - 1 {
			pc++
		}
		if pc < half {
			continue
		}
		for b := 0; b < w; b++ {
			if mask&(1<<uint(b)) != 0 {
				z[b] = 1
			} else {
				z[b] = 0
			}
		}
		out[string(words.AppendKey(nil, z, full))] = struct{}{}
	}
	return out
}
