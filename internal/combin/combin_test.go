package combin

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestBinomialKnownValues(t *testing.T) {
	cases := []struct {
		n, k int
		want uint64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{52, 5, 2598960}, {20, 10, 184756}, {5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		got, err := Binomial(c.n, c.k)
		if err != nil {
			t.Fatalf("C(%d,%d): %v", c.n, c.k, err)
		}
		if got != c.want {
			t.Errorf("C(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialErrors(t *testing.T) {
	if _, err := Binomial(-1, 0); err == nil {
		t.Fatal("negative n must error")
	}
	if _, err := Binomial(100, 50); err == nil {
		t.Fatal("C(100,50) must overflow uint64")
	}
	// C(67, 33) is the largest central-ish value within uint64 range
	// territory; check a large value that still fits.
	if v, err := Binomial(62, 31); err != nil || v == 0 {
		t.Fatalf("C(62,31) = %d, %v", v, err)
	}
}

func TestBinomialPascalIdentity(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := 2 + int(nRaw%40)
		k := 1 + int(kRaw)%(n-1)
		a, err1 := Binomial(n, k)
		b, err2 := Binomial(n-1, k)
		c, err3 := Binomial(n-1, k-1)
		if err1 != nil || err2 != nil || err3 != nil {
			return true // skip overflow regimes
		}
		return a == b+c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialSymmetry(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw % 50)
		k := 0
		if n > 0 {
			k = int(kRaw) % (n + 1)
		}
		a, err1 := Binomial(n, k)
		b, err2 := Binomial(n, n-k)
		if err1 != nil || err2 != nil {
			return true
		}
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBigBinomialMatchesBinomial(t *testing.T) {
	for n := 0; n <= 30; n++ {
		for k := 0; k <= n; k++ {
			small, err := Binomial(n, k)
			big := BigBinomial(n, k)
			if err != nil || big.Uint64() != small {
				t.Fatalf("C(%d,%d): big %v vs %d", n, k, big, small)
			}
		}
	}
}

func TestBinomialSum(t *testing.T) {
	// Sum over all k is 2^n.
	got := BinomialSum(10, 10)
	if got.Cmp(big.NewInt(1024)) != 0 {
		t.Fatalf("BinomialSum(10,10) = %v", got)
	}
	if BinomialSum(10, 2).Cmp(big.NewInt(1+10+45)) != 0 {
		t.Fatalf("BinomialSum(10,2) = %v", BinomialSum(10, 2))
	}
	// m > n clamps.
	if BinomialSum(4, 100).Cmp(big.NewInt(16)) != 0 {
		t.Fatal("clamp failed")
	}
}

func TestEntropy(t *testing.T) {
	if Entropy(0) != 0 || Entropy(1) != 0 {
		t.Fatal("H(0) = H(1) = 0")
	}
	if math.Abs(Entropy(0.5)-1) > 1e-12 {
		t.Fatalf("H(1/2) = %v", Entropy(0.5))
	}
	if math.Abs(Entropy(0.25)-Entropy(0.75)) > 1e-12 {
		t.Fatal("entropy must be symmetric")
	}
}

func TestEntropyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Entropy(1.5)
}

// TestEntropyTailBound checks the Lemma 6.2 ingredient:
// sum_{i<=k} C(n,i) <= 2^{H(k/n) n} for k <= n/2.
func TestEntropyTailBound(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := 2 + int(nRaw%60)
		k := int(kRaw) % (n/2 + 1)
		sum := BinomialSum(n, k)
		sf := new(big.Float).SetInt(sum)
		sv, _ := sf.Float64()
		return math.Log2(sv) <= Entropy(float64(k)/float64(n))*float64(n)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	f := func(nRaw, kRaw uint8, rRaw uint32) bool {
		n := 1 + int(nRaw%20)
		k := 1 + int(kRaw)%n
		total, _ := Binomial(n, k)
		rank := uint64(rRaw) % total
		cols, err := Unrank(n, k, rank)
		if err != nil {
			return false
		}
		back, err := Rank(n, cols)
		return err == nil && back == rank
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRankValidation(t *testing.T) {
	if _, err := Rank(5, []int{2, 1}); err == nil {
		t.Fatal("non-increasing support must error")
	}
	if _, err := Rank(5, []int{0, 5}); err == nil {
		t.Fatal("out-of-range support must error")
	}
	if _, err := Unrank(5, 2, 10); err == nil {
		t.Fatal("rank >= C(5,2) must error")
	}
}

func TestCombinationsEnumeratesAll(t *testing.T) {
	var seen [][]int
	Combinations(5, 3, func(cols []int) bool {
		cp := append([]int(nil), cols...)
		seen = append(seen, cp)
		return true
	})
	if len(seen) != 10 {
		t.Fatalf("C(5,3) enumeration yielded %d", len(seen))
	}
	// Lexicographic order: first and last are known.
	if seen[0][0] != 0 || seen[0][1] != 1 || seen[0][2] != 2 {
		t.Fatalf("first combination %v", seen[0])
	}
	last := seen[len(seen)-1]
	if last[0] != 2 || last[1] != 3 || last[2] != 4 {
		t.Fatalf("last combination %v", last)
	}
	// Early stop.
	count := 0
	Combinations(5, 3, func([]int) bool { count++; return count < 4 })
	if count != 4 {
		t.Fatalf("early stop at %d", count)
	}
	// Degenerate cases.
	calls := 0
	Combinations(3, 0, func(cols []int) bool { calls++; return true })
	if calls != 1 {
		t.Fatalf("C(3,0) should yield the empty set once, got %d", calls)
	}
	Combinations(3, 5, func([]int) bool { t.Fatal("k > n yields nothing"); return true })
}

func TestSubsetMasks(t *testing.T) {
	count := 0
	if err := SubsetMasks(6, func(int) bool { return true }, func(uint64) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 64 {
		t.Fatalf("all-subsets count = %d", count)
	}
	count = 0
	if err := SubsetMasks(6, func(s int) bool { return s == 2 }, func(uint64) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 15 {
		t.Fatalf("size-2 count = %d, want C(6,2)=15", count)
	}
	if err := SubsetMasks(31, func(int) bool { return true }, func(uint64) bool { return true }); err == nil {
		t.Fatal("d > 30 must error")
	}
}

func TestPow(t *testing.T) {
	if v, err := Pow(2, 10); err != nil || v != 1024 {
		t.Fatalf("2^10 = %d, %v", v, err)
	}
	if v, err := Pow(7, 0); err != nil || v != 1 {
		t.Fatalf("7^0 = %d, %v", v, err)
	}
	if _, err := Pow(2, 64); err == nil {
		t.Fatal("2^64 must overflow")
	}
	if _, err := Pow(-1, 2); err == nil {
		t.Fatal("negative base must error")
	}
}
