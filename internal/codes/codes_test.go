package codes

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewCodewordValidation(t *testing.T) {
	if _, err := NewCodeword(5, []int{0, 5}); err == nil {
		t.Fatal("out-of-range support must error")
	}
	if _, err := NewCodeword(5, []int{1, 1}); err == nil {
		t.Fatal("duplicate support must error")
	}
	c, err := NewCodeword(5, []int{3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if c.Weight() != 2 || c.String() != "10010" {
		t.Fatalf("codeword %v weight %d", c, c.Weight())
	}
}

func TestCodewordWordAndSets(t *testing.T) {
	c, _ := NewCodeword(4, []int{1, 3})
	w := c.Word()
	if !w.Equal([]uint16{0, 1, 0, 1}) {
		t.Fatalf("Word = %v", w)
	}
	if got := c.SupportSet().Columns(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("SupportSet = %v", got)
	}
	if got := c.ComplementSet().Columns(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("ComplementSet = %v", got)
	}
}

func TestIntersectionSizeSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		b, _ := NewConstantWeightCode(12, 4)
		x, y := b.Sample(src), b.Sample(src)
		n := x.IntersectionSize(y)
		if n != y.IntersectionSize(x) {
			return false
		}
		if n < 0 || n > 4 {
			return false
		}
		return x.IntersectionSize(x) == 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstantWeightCodeSizeAndEnumerate(t *testing.T) {
	b, err := NewConstantWeightCode(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	size, err := b.Size()
	if err != nil || size != 10 {
		t.Fatalf("Size = %d, %v", size, err)
	}
	seen := map[string]bool{}
	b.Enumerate(func(c Codeword) bool {
		if c.Weight() != 2 || c.Dim() != 5 {
			t.Fatalf("bad codeword %v", c)
		}
		seen[c.String()] = true
		return true
	})
	if len(seen) != 10 {
		t.Fatalf("enumerated %d distinct, want 10", len(seen))
	}
}

// TestB_dk_IntersectionProperty checks the "trivial but crucial"
// Section 3.2 property: distinct words of B(d, k) share at most k-1
// ones.
func TestBdkIntersectionProperty(t *testing.T) {
	b, _ := NewConstantWeightCode(10, 4)
	var items []Codeword
	b.Enumerate(func(c Codeword) bool {
		items = append(items, c)
		return len(items) < 60
	})
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			if items[i].IntersectionSize(items[j]) > 3 {
				t.Fatalf("distinct codewords share %d >= k ones", items[i].IntersectionSize(items[j]))
			}
		}
	}
}

func TestAtRankRoundTrip(t *testing.T) {
	b, _ := NewConstantWeightCode(10, 3)
	size, _ := b.Size()
	for r := uint64(0); r < size; r++ {
		c, err := b.At(r)
		if err != nil {
			t.Fatal(err)
		}
		if c.Rank() != r {
			t.Fatalf("rank(At(%d)) = %d", r, c.Rank())
		}
	}
}

func TestSampleHasCorrectShape(t *testing.T) {
	b, _ := NewConstantWeightCode(20, 7)
	src := rng.New(3)
	for i := 0; i < 50; i++ {
		c := b.Sample(src)
		if c.Weight() != 7 || c.Dim() != 20 {
			t.Fatalf("sampled %v", c)
		}
	}
}

func TestNewCodeValidation(t *testing.T) {
	a, _ := NewCodeword(6, []int{0, 1})
	dup, _ := NewCodeword(6, []int{0, 1})
	other, _ := NewCodeword(6, []int{2, 3})
	wrongW, _ := NewCodeword(6, []int{0, 1, 2})
	if _, err := NewCode(6, 2, []Codeword{a, dup}); err == nil {
		t.Fatal("duplicates must error")
	}
	if _, err := NewCode(6, 2, []Codeword{a, wrongW}); err == nil {
		t.Fatal("weight mismatch must error")
	}
	code, err := NewCode(6, 2, []Codeword{a, other})
	if err != nil {
		t.Fatal(err)
	}
	if code.Len() != 2 || code.MaxPairwiseIntersection() != 0 {
		t.Fatalf("code %v", code)
	}
}

func TestSampleRandomCodeRespectsBound(t *testing.T) {
	p := RandomCodeParams{D: 40, Epsilon: 0.25, Gamma: 0.05, Size: 12}
	code, err := SampleRandomCode(p, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if code.Len() != 12 || code.Weight() != 10 {
		t.Fatalf("code len %d weight %d", code.Len(), code.Weight())
	}
	if got, bound := code.MaxPairwiseIntersection(), p.IntersectionBound(); got > bound {
		t.Fatalf("pairwise intersection %d exceeds bound %d", got, bound)
	}
}

func TestSampleRandomCodeInfeasibleErrors(t *testing.T) {
	// Tiny d with a huge requested size cannot satisfy the bound.
	p := RandomCodeParams{D: 8, Epsilon: 0.5, Gamma: 0.0, Size: 500, MaxTry: 1000}
	if _, err := SampleRandomCode(p, rng.New(1)); err == nil {
		t.Fatal("expected failure to find enough codewords")
	}
	if _, err := SampleRandomCode(RandomCodeParams{D: 0, Epsilon: 0.3, Size: 1}, rng.New(1)); err == nil {
		t.Fatal("invalid params must error")
	}
}

func TestRandomCodeParamsDerived(t *testing.T) {
	p := RandomCodeParams{D: 40, Epsilon: 0.25, Gamma: 0.05}
	if p.Weight() != 10 {
		t.Fatalf("Weight = %d", p.Weight())
	}
	if p.IntersectionBound() != 4 { // (0.0625+0.05)*40 = 4.5 -> 4
		t.Fatalf("IntersectionBound = %d", p.IntersectionBound())
	}
}
