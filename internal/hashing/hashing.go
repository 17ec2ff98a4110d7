// Package hashing implements the hash families the sketch substrate
// needs: 64-bit fingerprints of patterns, seeded mixers, k-wise
// independent polynomial hashing over the Mersenne prime 2^61-1, and
// ±1 sign hashes. Everything is deterministic given its seed, so
// sketches serialize to reproducible byte strings.
package hashing

import (
	"math/bits"

	"repro/internal/rng"
)

// Fingerprint64 hashes an arbitrary byte string to 64 bits using an
// FNV-1a pass strengthened by a splitmix64 finalizer. Collision
// probability across the ≤ 2^30 distinct patterns any experiment
// touches is far below every error budget in the paper's bounds.
func Fingerprint64(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return rng.Mix64(h ^ uint64(len(b))*0x9e3779b97f4a7c15)
}

// AppendFingerprints64 fingerprints n consecutive stride-byte records
// of arena and appends the n hashes onto dst, returning the extended
// slice. Each hash equals Fingerprint64(arena[i*stride:(i+1)*stride])
// exactly — one flat pass with no per-record slice headers, the second
// stage of the batched key pipeline over the arena that
// words.AppendBatchKeys builds. n is explicit so the zero-stride case
// (an empty column set, where every record is the empty key) still
// yields one fingerprint per record. It panics if len(arena) != n*stride.
func AppendFingerprints64(dst []uint64, arena []byte, n, stride int) []uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	if len(arena) != n*stride {
		panic("hashing: arena length is not n*stride")
	}
	lenMix := uint64(stride) * 0x9e3779b97f4a7c15
	off := 0
	for i := 0; i < n; i++ {
		h := uint64(offset)
		for end := off + stride; off < end; off++ {
			h ^= uint64(arena[off])
			h *= prime
		}
		dst = append(dst, rng.Mix64(h^lenMix))
	}
	return dst
}

// Mixer is a seeded bijective 64→64 bit mixer: h(x) = mix(x ^ seed1)
// rotated and xored with seed2. It is cheap, full-avalanche, and the
// workhorse hash for KMV/HLL-style sketches, which only need
// uniformity of individual hash values.
type Mixer struct {
	seed1 uint64
	seed2 uint64
}

// NewMixer derives a mixer from the given seed.
func NewMixer(seed uint64) Mixer {
	s := rng.NewSplitMix64(seed)
	return Mixer{seed1: s.Uint64(), seed2: s.Uint64() | 1}
}

// Hash returns the mixed value of x.
func (m Mixer) Hash(x uint64) uint64 {
	h := rng.Mix64(x ^ m.seed1)
	h = bits.RotateLeft64(h, 23) * m.seed2
	return rng.Mix64(h)
}

// MersennePrime61 is 2^61 - 1, the modulus of the polynomial family.
const MersennePrime61 = (1 << 61) - 1

// reduce61 computes (hi·2^64 + lo) mod 2^61-1 for any 128-bit input.
func reduce61(hi, lo uint64) uint64 {
	// 2^61 ≡ 1 (mod p) so 2^64 ≡ 8 and 2^125 ≡ 8. Writing
	// hi = a·2^61 + b gives x ≡ 8a + 8b + (lo mod p) with every term
	// comfortably below 2^62, so the sum cannot wrap.
	a, b := hi>>61, hi&MersennePrime61
	h := b << 3 // b < 2^61 so no overflow
	r := (lo & MersennePrime61) + (lo >> 61) + (h & MersennePrime61) + (h >> 61) + a<<3
	for r >= MersennePrime61 {
		r = (r & MersennePrime61) + (r >> 61)
	}
	return r
}

func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return reduce61(hi, lo)
}

// PolyHash is a k-wise independent hash family over Z_{2^61-1}: a
// degree-(k-1) polynomial with coefficients drawn uniformly from the
// field. Evaluations at distinct points are k-wise independent, the
// property the CountSketch analysis requires.
type PolyHash struct {
	coef []uint64 // degree-ascending; len(coef) = k
}

// NewPolyHash draws a k-wise independent function using randomness
// from seed. k must be at least 1.
func NewPolyHash(seed uint64, k int) *PolyHash {
	if k < 1 {
		panic("hashing: k-wise independence requires k >= 1")
	}
	src := rng.New(seed)
	coef := make([]uint64, k)
	for i := range coef {
		coef[i] = src.Uint64n(MersennePrime61)
	}
	// A zero leading coefficient only reduces the effective degree for
	// that single draw; the family remains k-wise independent, so no
	// correction is needed.
	return &PolyHash{coef: coef}
}

// Hash evaluates the polynomial at x (reduced into the field).
func (p *PolyHash) Hash(x uint64) uint64 {
	xr := reduce61(0, x)
	var acc uint64
	for i := len(p.coef) - 1; i >= 0; i-- {
		acc = mulmod61(acc, xr)
		acc += p.coef[i]
		if acc >= MersennePrime61 {
			acc -= MersennePrime61
		}
	}
	return acc
}

// Bucket maps x to one of w buckets using the polynomial family, with
// the standard multiply-shift range reduction on top.
func (p *PolyHash) Bucket(x uint64, w int) int {
	h := p.Hash(x)
	hi, _ := bits.Mul64(h<<3, uint64(w)) // <<3 spreads the 61-bit value over 64
	return int(hi)
}

// Sign maps x to ±1 using the low bit of the polynomial value; with a
// 4-wise independent polynomial this yields the 4-wise independent
// sign family CountSketch's F2 estimate needs.
func (p *PolyHash) Sign(x uint64) int {
	if p.Hash(x)&1 == 1 {
		return 1
	}
	return -1
}
