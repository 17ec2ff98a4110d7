// Package anet implements Section 6 of the paper: α-nets over the
// power set of [d] (Definition 6.1), their size bound via the binary
// entropy function (Lemma 6.2), neighbour rounding of projection
// queries, the rounding-distortion bounds of Lemma 6.4, and the
// Algorithm 1 meta-summary that keeps a β-approximate sketch for every
// net member and answers arbitrary queries through an α-neighbour
// (Theorem 6.5).
package anet

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"repro/internal/combin"
	"repro/internal/words"
)

// Net is an α-net over P([d]): the family of subsets U with
// |U| ≤ d/2 − αd or |U| ≥ d/2 + αd. Every query C has a neighbour
// C′ in the net with |C Δ C′| ≤ ⌈αd⌉ (the ceiling is the integer-
// rounding cost when αd is fractional).
type Net struct {
	d     int
	alpha float64
	low   int // member iff size <= low ...
	high  int // ... or size >= high
}

// NewNet constructs the α-net for dimension d; α must lie in (0, 1/2).
func NewNet(d int, alpha float64) (*Net, error) {
	if d < 1 {
		return nil, fmt.Errorf("anet: dimension %d must be positive", d)
	}
	if !(alpha > 0 && alpha < 0.5) {
		return nil, fmt.Errorf("anet: alpha %v outside (0, 1/2)", alpha)
	}
	half := float64(d) / 2
	low := int(math.Floor(half - alpha*float64(d)))
	high := int(math.Ceil(half + alpha*float64(d)))
	if low < 0 {
		low = 0
	}
	if high > d {
		high = d
	}
	return &Net{d: d, alpha: alpha, low: low, high: high}, nil
}

// Dim returns d.
func (n *Net) Dim() int { return n.d }

// Alpha returns α.
func (n *Net) Alpha() float64 { return n.alpha }

// Low returns the largest member size below the excluded band.
func (n *Net) Low() int { return n.low }

// High returns the smallest member size above the excluded band.
func (n *Net) High() int { return n.high }

// ContainsSize reports whether subsets of the given size belong to
// the net.
func (n *Net) ContainsSize(size int) bool {
	return size <= n.low || size >= n.high
}

// Contains reports whether the query C itself is a net member, in
// which case answering it incurs no rounding distortion.
func (n *Net) Contains(c words.ColumnSet) bool {
	return n.ContainsSize(c.Len())
}

// RoundingMode selects which net boundary an in-band query is rounded
// to — the ablation axis of experiment E10. Shrinking yields
// an under-approximation of F0 (patterns merge), growing an
// over-approximation (patterns split); RoundNearest minimizes the
// distortion exponent.
type RoundingMode int

// The supported rounding modes.
const (
	// RoundNearest picks the closer boundary, ties shrink (default).
	RoundNearest RoundingMode = iota
	// RoundDown always shrinks to the lower boundary.
	RoundDown
	// RoundUp always grows to the upper boundary.
	RoundUp
)

// String names the mode.
func (m RoundingMode) String() string {
	switch m {
	case RoundDown:
		return "down"
	case RoundUp:
		return "up"
	default:
		return "nearest"
	}
}

// Neighbor returns an α-neighbour C′ ∈ N of C and |C Δ C′| under
// RoundNearest. Members map to themselves with distance 0.
func (n *Net) Neighbor(c words.ColumnSet) (words.ColumnSet, int) {
	return n.NeighborMode(c, RoundNearest)
}

// NeighborMode is Neighbor with an explicit rounding mode. Shrinking
// removes the largest-index columns and growing adds the
// smallest-index absent columns, so the rounding is deterministic.
func (n *Net) NeighborMode(c words.ColumnSet, mode RoundingMode) (words.ColumnSet, int) {
	if c.Dim() != n.d {
		panic(fmt.Sprintf("anet: query dimension %d != net dimension %d", c.Dim(), n.d))
	}
	size := c.Len()
	if n.ContainsSize(size) {
		return c, 0
	}
	down := size - n.low
	up := n.high - size
	shrink := down <= up
	switch mode {
	case RoundDown:
		shrink = true
	case RoundUp:
		shrink = false
	}
	if shrink {
		// Shrink to size low: drop the largest columns.
		cols := c.Columns()
		out := words.MustColumnSet(n.d, cols[:n.low]...)
		return out, down
	}
	// Grow to size high: add the smallest absent columns.
	cols := c.Columns()
	present := make(map[int]bool, len(cols))
	for _, j := range cols {
		present[j] = true
	}
	need := n.high - size
	for j := 0; j < n.d && need > 0; j++ {
		if !present[j] {
			cols = append(cols, j)
			need--
		}
	}
	out := words.MustColumnSet(n.d, cols...)
	return out, up
}

// SizeExact returns |N| exactly as a big integer:
// Σ_{i≤low} C(d,i) + Σ_{i≥high} C(d,i).
func (n *Net) SizeExact() *big.Int {
	total := combin.BinomialSum(n.d, n.low)
	// Subsets of size ≥ high = subsets of complement size ≤ d-high.
	total.Add(total, combin.BinomialSum(n.d, n.d-n.high))
	return total
}

// LogSizeBound returns the Lemma 6.2 bound log2|N| ≤ H(1/2−α)·d + 1.
func (n *Net) LogSizeBound() float64 {
	return combin.Entropy(0.5-n.alpha)*float64(n.d) + 1
}

// RelativeSpace returns |N| / 2^d, the x-axis of Figure 1's
// right-hand pane, computed exactly then converted to float.
func (n *Net) RelativeSpace() float64 {
	size := new(big.Float).SetInt(n.SizeExact())
	full := new(big.Float).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(n.d)))
	out, _ := new(big.Float).Quo(size, full).Float64()
	return out
}

// EnumerateMasks invokes fn with every net member as a bitmask, in
// increasing numeric order; requires d ≤ 30. Enumeration stops early
// if fn returns false.
func (n *Net) EnumerateMasks(fn func(mask uint64) bool) error {
	return combin.SubsetMasks(n.d, n.ContainsSize, fn)
}

// MemberCount returns |N| as an int; it requires d ≤ 62 so the count
// fits, and is the number of sketches Algorithm 1 maintains.
func (n *Net) MemberCount() (int, error) {
	size := n.SizeExact()
	if !size.IsInt64() {
		return 0, fmt.Errorf("anet: net size %v exceeds int64", size)
	}
	return int(size.Int64()), nil
}

// Distortion returns the Lemma 6.4 rounding-distortion bound r for a
// query answered at symmetric-difference distance dist from its
// neighbour, for binary data (the alphabet the lemma is stated for):
//
//	F0:        2^dist
//	Fp, p>1:   2^{dist(p-1)}
//	Fp, p<1:   2^{dist(1-p)}
//	F1:        1 (no distortion; F1 is independent of C)
func Distortion(p float64, dist int) float64 {
	return DistortionQ(p, dist, 2)
}

// DistortionQ generalizes Distortion to alphabet [q]: each column in
// the symmetric difference can split (or merge) a pattern's mass
// across up to q values, so the per-column factor 2 of Lemma 6.4
// becomes q. (The Jensen argument in the lemma's proof goes through
// verbatim with 2^{αd} replaced by q^{αd}.)
func DistortionQ(p float64, dist, q int) float64 {
	if dist < 0 {
		panic("anet: negative distance")
	}
	if q < 2 {
		panic("anet: alphabet must be at least binary")
	}
	lg := math.Log2(float64(q))
	switch {
	case p == 0:
		return math.Exp2(float64(dist) * lg)
	case p == 1:
		return 1
	case p > 1:
		return math.Exp2(float64(dist) * lg * (p - 1))
	default:
		return math.Exp2(float64(dist) * lg * (1 - p))
	}
}

// maskColumns converts a bitmask to a ColumnSet over [d].
func maskColumns(mask uint64, d int) words.ColumnSet {
	cols := make([]int, 0, bits.OnesCount64(mask))
	for m := mask; m != 0; m &= m - 1 {
		cols = append(cols, bits.TrailingZeros64(m))
	}
	return words.MustColumnSet(d, cols...)
}
