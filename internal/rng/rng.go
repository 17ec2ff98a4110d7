// Package rng provides deterministic, explicitly seeded randomness for
// every stochastic component of the reproduction: code sampling
// (Lemma 3.2), workload generation, sketch hash seeding, and the
// p-stable variates behind the Indyk F_p sketch. Determinism matters
// here: the experiments regenerating the paper's table and figure must
// be replayable bit-for-bit.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is the splitmix64 generator: tiny state, full 64-bit
// period, and excellent avalanche behaviour. It is used directly and
// as the seeding stage of derived streams.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator with the given seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// State returns the generator's 64-bit state; NewSplitMix64(State())
// resumes the stream exactly where it stands.
func (s *SplitMix64) State() uint64 { return s.state }

// Uint64 returns the next 64 pseudo-random bits.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to x: a stateless bijective
// mixer used for fingerprinting and hash seeding.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Source is the deterministic generator used throughout the module:
// xoshiro256** seeded from splitmix64, per the reference
// recommendation of its authors.
type Source struct {
	s [4]uint64
}

// New returns a Source derived from seed.
func New(seed uint64) *Source {
	src := &Source{}
	src.Seed(seed)
	return src
}

// Seed resets r in place to exactly the state New(seed) returns, so a
// caller deriving many short streams can keep its Source on the stack
// instead of allocating one per stream.
func (r *Source) Seed(seed uint64) {
	sm := SplitMix64{state: seed}
	for i := range r.s {
		r.s[i] = sm.Uint64()
	}
	// A xoshiro state of all zeros is a fixed point; splitmix64 cannot
	// produce four consecutive zeros, but keep the guard explicit.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 pseudo-random bits (xoshiro256**).
// s[1] is hoisted into a local to keep the body within the inlining
// budget, so draw-per-row loops pay no call overhead.
func (r *Source) Uint64() uint64 {
	s1 := r.s[1]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= s1
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n); it panics if n <= 0.
// Lemire's nearly-divisionless rejection method keeps it unbiased.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n); it panics if n == 0.
// Lemire's nearly-divisionless rejection: the overwhelmingly common
// lo >= n acceptance is decided here without computing the exact
// rejection threshold (which costs a division), keeping this fast path
// small enough for mid-stack inlining into draw-per-row loops; the
// rare near-boundary case falls through to uint64nSlow. The emitted
// draw stream is identical to the single-loop form — lo >= n implies
// lo >= -n%n, so acceptance decisions never differ.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero bound")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo >= n {
		return hi
	}
	return r.uint64nSlow(hi, lo, n)
}

// uint64nSlow finishes a Uint64n draw whose first sample landed below
// n: apply the exact threshold test to it, then keep drawing until a
// sample is accepted.
func (r *Source) uint64nSlow(hi, lo, n uint64) uint64 {
	thresh := -n % n
	for {
		if lo >= thresh {
			return hi
		}
		hi, lo = bits.Mul64(r.Uint64(), n)
		if lo >= n {
			return hi
		}
	}
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *Source) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a uniform permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Subset returns a uniform k-subset of [0, n), sorted ascending: the
// sampling primitive behind B(d, k) codewords. It uses Floyd's
// algorithm, so it is O(k) in expectation.
func (r *Source) Subset(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Subset size out of range")
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Insertion sort: k is small in every use.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Exp returns an Exp(1) variate via inversion.
func (r *Source) Exp() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Normal returns a standard Gaussian variate (Box–Muller; one value
// per call keeps the stream position deterministic).
func (r *Source) Normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Cauchy returns a standard Cauchy variate, the 1-stable distribution
// used by the F_1-style sketch.
func (r *Source) Cauchy() float64 {
	u := r.Float64()
	return math.Tan(math.Pi * (u - 0.5))
}

// Stable returns a standard symmetric p-stable variate for
// p ∈ (0, 2], generated by the Chambers–Mallows–Stuck method. For
// p = 2 it returns sqrt(2) · Normal (variance-2 Gaussian, the standard
// 2-stable scaling); for p = 1 it returns a Cauchy variate.
func (r *Source) Stable(p float64) float64 {
	switch {
	case p <= 0 || p > 2:
		panic("rng: stability parameter outside (0, 2]")
	case p == 2:
		return math.Sqrt2 * r.Normal()
	case p == 1:
		return r.Cauchy()
	}
	theta := math.Pi * (r.Float64() - 0.5) // U(-π/2, π/2)
	w := r.Exp()
	sin, cos := math.Sincos(theta)
	_ = sin
	t := math.Sin(p*theta) / math.Pow(cos, 1/p)
	s := math.Pow(math.Cos(theta*(1-p))/w, (1-p)/p)
	return t * s
}

// Zipf samples ranks in [0, n) with P(i) ∝ 1/(i+1)^s via a
// precomputed cumulative table; it is exact, not approximate, because
// workload determinism matters more here than constant factors.
type Zipf struct {
	cum []float64
	r   *Source
}

// NewZipf builds a Zipf(n, s) sampler drawing randomness from r.
func NewZipf(r *Source, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf needs n > 0")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum, r: r}
}

// Next returns the next Zipf-distributed rank.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
