// Package codes implements the coding-theoretic machinery of
// Section 3.2 of the paper: constant-weight binary codes B(d, k), the
// randomly sampled low-intersection codes of Lemma 3.2, and the
// star_Q child-word operator of Definition 3.1. These are the building
// blocks of every lower-bound instance in Sections 4 and 5.
package codes

import (
	"fmt"

	"repro/internal/combin"
	"repro/internal/rng"
	"repro/internal/words"
)

// Codeword is a binary word of length d represented by its support
// set, sorted ascending. The representation is convenient because all
// paper constructions manipulate supports directly.
type Codeword struct {
	d       int
	support []int
}

// NewCodeword builds a codeword of length d with the given support.
func NewCodeword(d int, support []int) (Codeword, error) {
	cs, err := words.NewColumnSet(d, support...)
	if err != nil {
		return Codeword{}, err
	}
	if cs.Len() != len(support) {
		return Codeword{}, fmt.Errorf("codes: duplicate support positions")
	}
	return Codeword{d: d, support: cs.Columns()}, nil
}

// Dim returns the word length d.
func (c Codeword) Dim() int { return c.d }

// Weight returns the Hamming weight k = |supp(c)|.
func (c Codeword) Weight() int { return len(c.support) }

// Support returns a copy of the sorted support positions.
func (c Codeword) Support() []int {
	out := make([]int, len(c.support))
	copy(out, c.support)
	return out
}

// SupportSet returns supp(c) as a ColumnSet, which is exactly Bob's
// query S = supp(y) in Theorem 4.1.
func (c Codeword) SupportSet() words.ColumnSet {
	return words.MustColumnSet(c.d, c.support...)
}

// ComplementSet returns [d] \ supp(c), Bob's query in Theorem 5.3.
func (c Codeword) ComplementSet() words.ColumnSet {
	return c.SupportSet().Complement()
}

// Word materializes the codeword as a binary words.Word.
func (c Codeword) Word() words.Word {
	w := make(words.Word, c.d)
	for _, i := range c.support {
		w[i] = 1
	}
	return w
}

// IntersectionSize returns |supp(c) ∩ supp(o)|, the "1s in common"
// quantity that all code constructions bound.
func (c Codeword) IntersectionSize(o Codeword) int {
	n, i, j := 0, 0, 0
	for i < len(c.support) && j < len(o.support) {
		switch {
		case c.support[i] < o.support[j]:
			i++
		case c.support[i] > o.support[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Equal reports whether the codewords are identical.
func (c Codeword) Equal(o Codeword) bool {
	if c.d != o.d || len(c.support) != len(o.support) {
		return false
	}
	for i := range c.support {
		if c.support[i] != o.support[i] {
			return false
		}
	}
	return true
}

// Rank returns the colexicographic rank of the codeword within
// B(d, k): the enumeration e(·) that the Index reductions use to map
// codewords to positions of Alice's characteristic vector.
func (c Codeword) Rank() uint64 {
	r, err := combin.Rank(c.d, c.support)
	if err != nil {
		panic(err) // supports are validated at construction
	}
	return r
}

// String renders the codeword as its binary string, e.g. "01101".
func (c Codeword) String() string {
	b := make([]byte, c.d)
	for i := range b {
		b[i] = '0'
	}
	for _, i := range c.support {
		b[i] = '1'
	}
	return string(b)
}

// ConstantWeightCode is the dense family B(d, k) of Section 3.2: all
// binary strings of length d and Hamming weight k. Its trivial but
// crucial property is that distinct codewords intersect in at most
// k-1 positions.
type ConstantWeightCode struct {
	d, k int
}

// NewConstantWeightCode returns B(d, k).
func NewConstantWeightCode(d, k int) (*ConstantWeightCode, error) {
	if d < 0 || k < 0 || k > d {
		return nil, fmt.Errorf("codes: invalid B(%d, %d)", d, k)
	}
	return &ConstantWeightCode{d: d, k: k}, nil
}

// Dim returns d.
func (b *ConstantWeightCode) Dim() int { return b.d }

// Weight returns k.
func (b *ConstantWeightCode) Weight() int { return b.k }

// Size returns |B(d, k)| = C(d, k); it errors if the count overflows
// uint64.
func (b *ConstantWeightCode) Size() (uint64, error) {
	return combin.Binomial(b.d, b.k)
}

// At returns the codeword with the given colexicographic rank.
func (b *ConstantWeightCode) At(rank uint64) (Codeword, error) {
	cols, err := combin.Unrank(b.d, b.k, rank)
	if err != nil {
		return Codeword{}, err
	}
	return Codeword{d: b.d, support: cols}, nil
}

// Sample returns a uniformly random codeword of B(d, k).
func (b *ConstantWeightCode) Sample(r *rng.Source) Codeword {
	return Codeword{d: b.d, support: r.Subset(b.d, b.k)}
}

// Enumerate invokes fn with every codeword of B(d, k) in
// lexicographic support order; it stops early if fn returns false.
func (b *ConstantWeightCode) Enumerate(fn func(Codeword) bool) {
	combin.Combinations(b.d, b.k, func(cols []int) bool {
		cp := make([]int, len(cols))
		copy(cp, cols)
		return fn(Codeword{d: b.d, support: cp})
	})
}

// Code is a finite collection of codewords sharing length and weight:
// Alice's ground set C in the reductions of Section 3.3.
type Code struct {
	d, k  int
	items []Codeword
}

// NewCode assembles a code from codewords, validating that all share
// dimension d and weight k and that there are no duplicates.
func NewCode(d, k int, items []Codeword) (*Code, error) {
	seen := make(map[string]struct{}, len(items))
	cp := make([]Codeword, len(items))
	for i, c := range items {
		if c.d != d {
			return nil, fmt.Errorf("codes: codeword %d has dimension %d, want %d", i, c.d, d)
		}
		if c.Weight() != k {
			return nil, fmt.Errorf("codes: codeword %d has weight %d, want %d", i, c.Weight(), k)
		}
		key := c.String()
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("codes: duplicate codeword %s", key)
		}
		seen[key] = struct{}{}
		cp[i] = c
	}
	return &Code{d: d, k: k, items: cp}, nil
}

// Dim returns the common word length d.
func (c *Code) Dim() int { return c.d }

// Weight returns the common Hamming weight k.
func (c *Code) Weight() int { return c.k }

// Len returns |C|.
func (c *Code) Len() int { return len(c.items) }

// At returns the i-th codeword under the code's enumeration, the
// index function e(·) for this code.
func (c *Code) At(i int) Codeword { return c.items[i] }

// Words returns a copy of the codeword slice.
func (c *Code) Words() []Codeword {
	out := make([]Codeword, len(c.items))
	copy(out, c.items)
	return out
}

// MaxPairwiseIntersection returns the largest |x ∩ y| over distinct
// codewords x, y — the quantity Lemma 3.2 controls. It is quadratic
// and intended for validation, not hot paths.
func (c *Code) MaxPairwiseIntersection() int {
	m := 0
	for i := 0; i < len(c.items); i++ {
		for j := i + 1; j < len(c.items); j++ {
			if v := c.items[i].IntersectionSize(c.items[j]); v > m {
				m = v
			}
		}
	}
	return m
}

// RandomCodeParams configures SampleRandomCode, mirroring Lemma 3.2:
// words of weight Epsilon·d with pairwise intersection at most
// (Epsilon² + Gamma)·d.
type RandomCodeParams struct {
	D       int     // word length d
	Epsilon float64 // weight fraction ε; weight = round(ε d)
	Gamma   float64 // slack γ in the intersection bound
	Size    int     // requested code size |C|
	MaxTry  int     // sampling attempts before giving up (0 = 50·Size)
}

// Weight returns the integer codeword weight round(ε·d).
func (p RandomCodeParams) Weight() int {
	return int(p.Epsilon*float64(p.D) + 0.5)
}

// IntersectionBound returns the integer bound floor((ε²+γ)·d).
func (p RandomCodeParams) IntersectionBound() int {
	return int((p.Epsilon*p.Epsilon + p.Gamma) * float64(p.D))
}

// SampleRandomCode instantiates the code of Lemma 3.2 by rejection:
// i.i.d. uniform draws from B(d, εd), keeping a draw only if it
// intersects every kept word in at most (ε²+γ)d positions. The lemma
// guarantees codes of size 2^{O(γ²d)} exist; for the finite parameters
// used in experiments the sampler either reaches the requested size or
// reports how far it got.
func SampleRandomCode(p RandomCodeParams, r *rng.Source) (*Code, error) {
	if p.D <= 0 || p.Epsilon <= 0 || p.Epsilon >= 1 {
		return nil, fmt.Errorf("codes: invalid random code params %+v", p)
	}
	k := p.Weight()
	if k == 0 {
		return nil, fmt.Errorf("codes: ε·d rounds to zero weight")
	}
	bound := p.IntersectionBound()
	if bound >= k {
		// The constraint is vacuous: any two distinct weight-k words
		// intersect in at most k-1 positions anyway.
		bound = k - 1
	}
	base, err := NewConstantWeightCode(p.D, k)
	if err != nil {
		return nil, err
	}
	maxTry := p.MaxTry
	if maxTry == 0 {
		maxTry = 50 * p.Size
	}
	var kept []Codeword
	for try := 0; try < maxTry && len(kept) < p.Size; try++ {
		cand := base.Sample(r)
		ok := true
		for _, w := range kept {
			n := cand.IntersectionSize(w)
			if n > bound || n == k { // n == k means duplicate
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, cand)
		}
	}
	if len(kept) < p.Size {
		return nil, fmt.Errorf("codes: only %d/%d codewords found with intersection bound %d after %d attempts",
			len(kept), p.Size, bound, maxTry)
	}
	return NewCode(p.D, k, kept)
}
