// Package combin supplies the combinatorial machinery the paper's
// constructions and bounds rest on: binomial coefficients (exact,
// big-integer, and logarithmic), the binary entropy function H used by
// Lemma 6.2, combinadic ranking of fixed-weight words, and subset
// enumeration helpers.
package combin

import (
	"fmt"
	"math"
	"math/big"
)

// Binomial returns C(n, k) as a uint64, or an error if the value
// overflows. C(n, k) = 0 for k < 0 or k > n.
func Binomial(n, k int) (uint64, error) {
	if n < 0 {
		return 0, fmt.Errorf("combin: negative n=%d", n)
	}
	if k < 0 || k > n {
		return 0, nil
	}
	if k > n-k {
		k = n - k
	}
	var res uint64 = 1
	for i := 1; i <= k; i++ {
		// res *= (n - k + i) / i, keeping exact integer arithmetic:
		// multiply first, dividing by i afterwards is exact because
		// res is C(n-k+i-1, i-1) * ... running product invariant.
		hi, lo := mul64(res, uint64(n-k+i))
		if hi != 0 {
			return 0, fmt.Errorf("combin: C(%d,%d) overflows uint64", n, k)
		}
		res = lo / uint64(i)
		if lo%uint64(i) != 0 {
			// Cannot happen for exact running products, but guard
			// against silent corruption.
			return 0, fmt.Errorf("combin: internal non-exact division at i=%d", i)
		}
	}
	return res, nil
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	ah, al := a>>32, a&mask
	bh, bl := b>>32, b&mask
	t := ah*bl + (al*bl)>>32
	w := al*bh + (t & mask)
	hi = ah*bh + (t >> 32) + (w >> 32)
	lo = a * b
	return
}

// BigBinomial returns C(n, k) exactly as a big integer.
func BigBinomial(n, k int) *big.Int {
	if k < 0 || k > n || n < 0 {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// BinomialSum returns sum_{i=0}^{m} C(n, i) as a big integer: the
// exact size of one tail of the α-net of Definition 6.1.
func BinomialSum(n, m int) *big.Int {
	total := new(big.Int)
	if m > n {
		m = n
	}
	for i := 0; i <= m; i++ {
		total.Add(total, BigBinomial(n, i))
	}
	return total
}

// Entropy returns the binary entropy H(x) = -x log2 x - (1-x) log2(1-x)
// with H(0) = H(1) = 0; it panics outside [0, 1].
func Entropy(x float64) float64 {
	if x < 0 || x > 1 {
		panic(fmt.Sprintf("combin: entropy argument %v outside [0,1]", x))
	}
	if x == 0 || x == 1 {
		return 0
	}
	return -x*math.Log2(x) - (1-x)*math.Log2(1-x)
}

// Rank returns the combinadic rank of the k-subset `cols` (sorted
// ascending) among all k-subsets of [n] in colexicographic order.
// Together with Unrank it gives the enumeration of codewords the
// Index reductions in Section 3.3 rely on.
func Rank(n int, cols []int) (uint64, error) {
	var r uint64
	prev := -1
	for i, c := range cols {
		if c <= prev || c >= n {
			return 0, fmt.Errorf("combin: columns must be strictly increasing in [0,%d)", n)
		}
		prev = c
		b, err := Binomial(c, i+1)
		if err != nil {
			return 0, err
		}
		r += b
	}
	return r, nil
}

// Unrank inverts Rank: it returns the k-subset of [n] with the given
// colexicographic rank.
func Unrank(n, k int, rank uint64) ([]int, error) {
	total, err := Binomial(n, k)
	if err != nil {
		return nil, err
	}
	if rank >= total {
		return nil, fmt.Errorf("combin: rank %d out of range for C(%d,%d)=%d", rank, n, k, total)
	}
	cols := make([]int, k)
	for i := k; i >= 1; i-- {
		// Find the largest c with C(c, i) <= rank.
		c := i - 1
		b := uint64(0) // C(i-1, i) = 0
		for {
			nb, err := Binomial(c+1, i)
			if err != nil || nb > rank {
				break
			}
			c++
			b = nb
		}
		cols[i-1] = c
		rank -= b
	}
	return cols, nil
}

// Combinations invokes fn with every k-subset of [n] in lexicographic
// order. The slice passed to fn is reused; fn must copy it to retain
// it. Enumeration stops early if fn returns false.
func Combinations(n, k int, fn func(cols []int) bool) {
	if k < 0 || k > n {
		return
	}
	cols := make([]int, k)
	for i := range cols {
		cols[i] = i
	}
	for {
		if !fn(cols) {
			return
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && cols[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		cols[i]++
		for j := i + 1; j < k; j++ {
			cols[j] = cols[j-1] + 1
		}
	}
}

// SubsetMasks invokes fn with every bitmask over [d] whose popcount
// satisfies pred, in increasing numeric order; it requires d <= 30 to
// keep enumeration tractable. Enumeration stops early if fn returns
// false.
func SubsetMasks(d int, pred func(size int) bool, fn func(mask uint64) bool) error {
	if d < 0 || d > 30 {
		return fmt.Errorf("combin: SubsetMasks requires 0 <= d <= 30, got %d", d)
	}
	for m := uint64(0); m < 1<<uint(d); m++ {
		if pred(popcount(m)) {
			if !fn(m) {
				return nil
			}
		}
	}
	return nil
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Pow returns base^exp as a uint64, or an error on overflow.
func Pow(base, exp int) (uint64, error) {
	if base < 0 || exp < 0 {
		return 0, fmt.Errorf("combin: negative base or exponent")
	}
	res := uint64(1)
	b := uint64(base)
	for i := 0; i < exp; i++ {
		hi, lo := mul64(res, b)
		if hi != 0 {
			return 0, fmt.Errorf("combin: %d^%d overflows uint64", base, exp)
		}
		res = lo
	}
	return res, nil
}
