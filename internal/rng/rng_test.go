package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds must produce equal streams")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/100 times", same)
	}
}

// TestSeedMatchesNew: re-seeding in place, including a Source that
// has already drawn, yields exactly New's stream, and the Stable
// draws a sketch derives from it match too.
func TestSeedMatchesNew(t *testing.T) {
	var src Source
	for _, seed := range []uint64{0, 1, 42, 0x9e3779b97f4a7c15, ^uint64(0)} {
		src.Seed(seed)
		ref := New(seed)
		for i := 0; i < 64; i++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %#x draw %d: Seed stream %#x, New stream %#x", seed, i, got, want)
			}
		}
		src.Seed(seed)
		ref = New(seed)
		if got, want := src.Stable(0.5), ref.Stable(0.5); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %#x: Stable %v after Seed, %v after New", seed, got, want)
		}
	}
}

// TestSplitMix64StateResumes: a generator rebuilt from State continues
// the stream where the original stands.
func TestSplitMix64StateResumes(t *testing.T) {
	a := NewSplitMix64(17)
	for i := 0; i < 5; i++ {
		a.Uint64()
	}
	b := NewSplitMix64(a.State())
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("resumed stream diverged at draw %d", i)
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a sample; Mix64 is a known bijection.
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Mix64 collision: %d and %d", prev, i)
		}
		seen[h] = i
	}
}

func TestIntnBoundsAndUniformity(t *testing.T) {
	r := New(1)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	// Chi-squared against uniform; 9 dof, 99.9% critical value ~27.9.
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.9 {
		t.Fatalf("Intn nonuniform: chi2 = %v, counts %v", chi2, counts)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint64) bool {
		n := nRaw%1000 + 1
		r := New(seed)
		for i := 0; i < 10; i++ {
			if r.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 50)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetProperties(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := 1 + int(nRaw%40)
		k := int(kRaw) % (n + 1)
		s := New(seed).Subset(n, k)
		if len(s) != k {
			return false
		}
		for i, v := range s {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && s[i-1] >= v {
				return false // must be sorted strictly ascending
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetUniformCoverage(t *testing.T) {
	// Every element should appear in a 2-subset of [5] with rate 2/5.
	r := New(11)
	counts := make([]int, 5)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range r.Subset(5, 2) {
			counts[v]++
		}
	}
	for i, c := range counts {
		rate := float64(c) / trials
		if math.Abs(rate-0.4) > 0.02 {
			t.Fatalf("element %d rate %v, want 0.4", i, rate)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("Exp mean = %v, want 1", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(6)
	sum, sumSq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.03 {
		t.Fatalf("Normal mean %v variance %v", mean, variance)
	}
}

func TestCauchyMedian(t *testing.T) {
	r := New(7)
	const n = 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Abs(r.Cauchy())
	}
	sort.Float64s(xs)
	// Median of |Cauchy| = tan(pi/4) = 1.
	if med := xs[n/2]; math.Abs(med-1) > 0.03 {
		t.Fatalf("median |Cauchy| = %v, want 1", med)
	}
}

// TestStableConsistency checks p-stability empirically: the sum of m
// i.i.d. p-stable variates is distributed as m^{1/p} times one
// variate; compare medians of |·|.
func TestStableConsistency(t *testing.T) {
	for _, p := range []float64{0.5, 1.5} {
		r := New(8)
		const n, m = 30001, 4
		single := make([]float64, n)
		summed := make([]float64, n)
		for i := 0; i < n; i++ {
			single[i] = math.Abs(r.Stable(p))
			s := 0.0
			for j := 0; j < m; j++ {
				s += r.Stable(p)
			}
			summed[i] = math.Abs(s)
		}
		sort.Float64s(single)
		sort.Float64s(summed)
		ratio := summed[n/2] / single[n/2]
		want := math.Pow(m, 1/p)
		if math.Abs(ratio-want)/want > 0.1 {
			t.Fatalf("p=%v: median ratio %v, want %v", p, ratio, want)
		}
	}
}

func TestStableSpecialCases(t *testing.T) {
	// p = 2 must behave like a variance-2 Gaussian.
	r := New(9)
	sumSq := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Stable(2)
		sumSq += v * v
	}
	if variance := sumSq / n; math.Abs(variance-2) > 0.06 {
		t.Fatalf("Stable(2) variance = %v, want 2", variance)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p > 2")
		}
	}()
	r.Stable(2.1)
}

func TestZipfSkew(t *testing.T) {
	r := New(10)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[9] || counts[9] <= counts[60] {
		t.Fatalf("Zipf not monotone: c0=%d c9=%d c60=%d", counts[0], counts[9], counts[60])
	}
	// Rank-0 frequency should be ~1/H(100) ≈ 0.192.
	rate := float64(counts[0]) / n
	if math.Abs(rate-0.192) > 0.02 {
		t.Fatalf("Zipf head rate %v", rate)
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}
