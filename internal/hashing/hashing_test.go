package hashing

import (
	"math"
	"math/big"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestFingerprint64Deterministic(t *testing.T) {
	a := Fingerprint64([]byte("hello"))
	b := Fingerprint64([]byte("hello"))
	if a != b {
		t.Fatal("fingerprint must be deterministic")
	}
	if Fingerprint64([]byte("hello")) == Fingerprint64([]byte("hellp")) {
		t.Fatal("single-byte change must alter the fingerprint")
	}
	if Fingerprint64([]byte{}) == Fingerprint64([]byte{0}) {
		t.Fatal("length must matter")
	}
	if Fingerprint64([]byte{0, 0}) == Fingerprint64([]byte{0}) {
		t.Fatal("trailing zeros must matter")
	}
}

func TestFingerprint64NoEasyCollisions(t *testing.T) {
	seen := make(map[uint64][]byte, 1<<16)
	var buf [2]byte
	for i := 0; i < 1<<16; i++ {
		buf[0], buf[1] = byte(i), byte(i>>8)
		h := Fingerprint64(buf[:])
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision between %v and %v", prev, buf)
		}
		seen[h] = []byte{buf[0], buf[1]}
	}
}

func TestMixerDeterminismAndSeeds(t *testing.T) {
	m1 := NewMixer(1)
	m2 := NewMixer(1)
	m3 := NewMixer(2)
	if m1.Hash(42) != m2.Hash(42) {
		t.Fatal("same seed, same hash")
	}
	if m1.Hash(42) == m3.Hash(42) {
		t.Fatal("different seeds should differ on a given input")
	}
}

func TestMixerAvalanche(t *testing.T) {
	m := NewMixer(3)
	totalFlips := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		x := uint64(i) * 0x9e3779b97f4a7c15
		h1 := m.Hash(x)
		h2 := m.Hash(x ^ 1)
		totalFlips += bits.OnesCount64(h1 ^ h2)
	}
	avg := float64(totalFlips) / trials
	if math.Abs(avg-32) > 3 {
		t.Fatalf("avalanche average %v bits, want ~32", avg)
	}
}

func TestReduce61MatchesBigInt(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime61)
	f := func(hi, lo uint64) bool {
		x := new(big.Int).SetUint64(hi)
		x.Lsh(x, 64)
		x.Add(x, new(big.Int).SetUint64(lo))
		want := new(big.Int).Mod(x, p).Uint64()
		got := reduce61(hi, lo)
		// reduce61 may return p itself ≡ 0; normalize.
		if got == MersennePrime61 {
			got = 0
		}
		return got == want
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMulmod61MatchesBigInt(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime61)
	f := func(aRaw, bRaw uint64) bool {
		a := aRaw % MersennePrime61
		b := bRaw % MersennePrime61
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		got := mulmod61(a, b)
		if got == MersennePrime61 {
			got = 0
		}
		return got == want.Uint64()
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPolyHashDeterministic(t *testing.T) {
	h1 := NewPolyHash(5, 4)
	h2 := NewPolyHash(5, 4)
	h3 := NewPolyHash(6, 4)
	if h1.Hash(123) != h2.Hash(123) {
		t.Fatal("same seed must agree")
	}
	if h1.Hash(123) == h3.Hash(123) && h1.Hash(124) == h3.Hash(124) {
		t.Fatal("different seeds should differ somewhere")
	}
}

func TestPolyHashInField(t *testing.T) {
	h := NewPolyHash(7, 3)
	for i := uint64(0); i < 1000; i++ {
		if v := h.Hash(i); v >= MersennePrime61 {
			t.Fatalf("hash %d out of field", v)
		}
	}
}

func TestPolyHashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k < 1")
		}
	}()
	NewPolyHash(1, 0)
}

func TestBucketRange(t *testing.T) {
	f := func(seed, x uint64, wRaw uint16) bool {
		w := 1 + int(wRaw%1000)
		b := NewPolyHash(seed, 2).Bucket(x, w)
		return b >= 0 && b < w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketRoughlyUniform(t *testing.T) {
	h := NewPolyHash(11, 2)
	const w, draws = 16, 64000
	counts := make([]int, w)
	for i := uint64(0); i < draws; i++ {
		counts[h.Bucket(i, w)]++
	}
	expected := float64(draws) / w
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 dof, 99.9% critical ~37.7.
	if chi2 > 37.7 {
		t.Fatalf("bucket chi2 = %v", chi2)
	}
}

func TestSignBalance(t *testing.T) {
	h := NewPolyHash(13, 4)
	sum := 0
	const n = 100000
	for i := uint64(0); i < n; i++ {
		sum += h.Sign(i)
	}
	if math.Abs(float64(sum)) > 4*math.Sqrt(n) {
		t.Fatalf("sign bias: sum = %d over %d draws", sum, n)
	}
}

func TestSignPairwiseDecorrelation(t *testing.T) {
	// 4-wise independence implies E[s(x)s(y)] = 0 for x != y.
	h := NewPolyHash(17, 4)
	sum := 0
	const n = 100000
	for i := uint64(0); i < n; i++ {
		sum += h.Sign(i) * h.Sign(i+500000)
	}
	if math.Abs(float64(sum)) > 4*math.Sqrt(n) {
		t.Fatalf("pairwise sign correlation: %d", sum)
	}
}
