package freq

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/words"
)

// paperTable returns the 5×3 example array of Section 2.
func paperTable() *words.Table {
	t := words.NewTable(3, 2)
	for _, r := range []words.Word{
		{1, 1, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {1, 1, 0},
	} {
		t.Append(r)
	}
	return t
}

func TestPaperExampleFrequencies(t *testing.T) {
	v := FromTable(paperTable(), words.MustColumnSet(3, 0, 1))
	if v.Support() != 3 {
		t.Fatalf("F0 = %d, want 3 (paper example)", v.Support())
	}
	if v.Total() != 5 {
		t.Fatalf("F1 = %d, want 5", v.Total())
	}
	if got := v.CountWord(words.Word{1, 1}); got != 3 {
		t.Fatalf("f(11) = %d, want 3", got)
	}
	if got := v.CountWord(words.Word{1, 0}); got != 0 {
		t.Fatalf("f(10) = %d, want 0", got)
	}
}

func TestF1InvariantUnderProjection(t *testing.T) {
	// Section 5.3: F1 is always n regardless of C.
	f := func(seed uint64, maskRaw uint8) bool {
		src := rng.New(seed)
		tb := words.NewTable(6, 3)
		n := 20 + src.Intn(50)
		for i := 0; i < n; i++ {
			w := make(words.Word, 6)
			for j := range w {
				w[j] = uint16(src.Intn(3))
			}
			tb.Append(w)
		}
		mask := uint64(maskRaw)%63 + 1 // non-empty subset of [6]
		c, err := words.ColumnSetFromMask(mask, 6)
		if err != nil {
			return false
		}
		return FromTable(tb, c).Total() == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMomentsAndNorms(t *testing.T) {
	v := NewVector()
	v.Add("a", 4)
	v.Add("b", 2)
	v.Add("c", 1)
	if v.F(0) != 3 {
		t.Fatalf("F0 = %v", v.F(0))
	}
	if v.F(1) != 7 {
		t.Fatalf("F1 = %v", v.F(1))
	}
	if v.F(2) != 21 {
		t.Fatalf("F2 = %v", v.F(2))
	}
	if math.Abs(v.Norm(2)-math.Sqrt(21)) > 1e-12 {
		t.Fatalf("||f||_2 = %v", v.Norm(2))
	}
	want := math.Sqrt(4) + math.Sqrt(2) + 1
	if math.Abs(v.F(0.5)-want) > 1e-12 {
		t.Fatalf("F_0.5 = %v, want %v", v.F(0.5), want)
	}
}

func TestMonotoneNormInequality(t *testing.T) {
	// ||f||_1 <= ||f||_p for 0 < p < 1 (used by Corollary 5.2).
	f := func(counts []uint8) bool {
		v := NewVector()
		nonzero := false
		for i, c := range counts {
			if c == 0 {
				continue
			}
			nonzero = true
			v.Add(string(rune('a'+i%26))+string(rune('a'+i/26)), int64(c))
		}
		if !nonzero {
			return true
		}
		return float64(v.Total()) <= v.Norm(0.5)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyHittersDefinition(t *testing.T) {
	tb := words.NewTable(2, 4)
	// Pattern (3,3) appears 60 times, (1,1) 30, ten singletons.
	for range 60 {
		tb.Append(words.Word{3, 3})
	}
	for range 30 {
		tb.Append(words.Word{1, 1})
	}
	for i := 0; i < 10; i++ {
		tb.Append(words.Word{uint16(i % 4), uint16((i / 4) % 4)})
	}
	v := FromTable(tb, words.FullColumnSet(2))
	// phi-l1 heavy hitters with phi = 0.25: threshold 25 occurrences.
	hits := v.HeavyHitters(1, 0.25)
	if len(hits) != 2 {
		t.Fatalf("got %d heavy hitters: %v", len(hits), hits)
	}
	if !hits[0].Word.Equal(words.Word{3, 3}) || hits[0].Count != 60 {
		t.Fatalf("top hitter %v", hits[0])
	}
	// Every reported hitter must meet the definition; every meeting
	// pattern must be reported.
	norm := v.Norm(1)
	for _, h := range hits {
		if float64(h.Count) < 0.25*norm {
			t.Fatalf("reported non-heavy %v", h)
		}
	}
	// l2: threshold phi*||f||_2 = 0.5*sqrt(60^2+30^2+10) ≈ 33.6.
	hits2 := v.HeavyHitters(2, 0.5)
	if len(hits2) != 1 || hits2[0].Count != 60 {
		t.Fatalf("l2 heavy hitters: %v", hits2)
	}
}

func TestHeavyHittersPanics(t *testing.T) {
	v := NewVector()
	v.Add("x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for phi > 1")
		}
	}()
	v.HeavyHitters(1, 1.5)
}

func TestEntriesSortedAndComplete(t *testing.T) {
	v := NewVector()
	v.Add("b", 2)
	v.Add("a", 1)
	v.Add("c", 3)
	es := v.Entries()
	if len(es) != 3 || es[0].Key != "a" || es[2].Key != "c" {
		t.Fatalf("entries %v", es)
	}
}

func TestFromSourceMatchesFromTable(t *testing.T) {
	tb := paperTable()
	c := words.MustColumnSet(3, 1, 2)
	a := FromTable(tb, c)
	b := FromSource(tb.Source(), c)
	if a.Support() != b.Support() || a.Total() != b.Total() {
		t.Fatal("FromSource must equal FromTable")
	}
}

func TestSamplerDistribution(t *testing.T) {
	v := NewVector()
	v.Add("a", 8)
	v.Add("b", 2)
	for _, tc := range []struct {
		p     float64
		wantA float64
	}{
		{1, 0.8},         // proportional to f
		{0, 0.5},         // uniform over support
		{2, 64.0 / 68.0}, // proportional to f^2
		{0.5, math.Sqrt(8) / (math.Sqrt(8) + math.Sqrt(2))},
	} {
		s := v.NewSampler(tc.p)
		if math.Abs(s.Probability("a")-tc.wantA) > 1e-12 {
			t.Fatalf("p=%v: P(a) = %v, want %v", tc.p, s.Probability("a"), tc.wantA)
		}
		if math.Abs(s.Probability("a")+s.Probability("b")-1) > 1e-12 {
			t.Fatalf("p=%v: probabilities must sum to 1", tc.p)
		}
		if s.Probability("zz") != 0 {
			t.Fatal("absent key must have probability 0")
		}
		// Empirical check.
		src := rng.New(17)
		hits := 0
		const draws = 20000
		for i := 0; i < draws; i++ {
			if s.Sample(src) == "a" {
				hits++
			}
		}
		if math.Abs(float64(hits)/draws-tc.wantA) > 0.02 {
			t.Fatalf("p=%v: empirical P(a) = %v, want %v", tc.p, float64(hits)/draws, tc.wantA)
		}
	}
}

func TestSamplerEmptyPanics(t *testing.T) {
	s := NewVector().NewSampler(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Sample(rng.New(1))
}

func TestVectorAddValidation(t *testing.T) {
	v := NewVector()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive count")
		}
	}()
	v.Add("x", 0)
}

func TestMomentPanics(t *testing.T) {
	v := NewVector()
	v.Add("x", 1)
	for _, fn := range []func(){
		func() { v.F(-1) },
		func() { v.Norm(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
