package workload

import (
	"testing"

	"repro/internal/combin"
	"repro/internal/freq"
	"repro/internal/rng"
	"repro/internal/words"
)

func TestF0InstanceInvariants(t *testing.T) {
	src := rng.New(1)
	for _, inT := range []bool{true, false} {
		inst, err := NewF0Instance(10, 3, 5, 6, inT, src)
		if err != nil {
			t.Fatal(err)
		}
		if len(inst.T) != 6 {
			t.Fatalf("|T| = %d", len(inst.T))
		}
		found := false
		for _, w := range inst.T {
			if w.Equal(inst.Y) {
				found = true
			}
		}
		if found != inT {
			t.Fatalf("y in T = %v, want %v", found, inT)
		}
		if inst.Query.Len() != 3 {
			t.Fatalf("|S| = %d, want k", inst.Query.Len())
		}
		// Query is supp(y).
		for _, j := range inst.Y.Support() {
			if !inst.Query.Contains(j) {
				t.Fatal("query must be supp(y)")
			}
		}
	}
}

// TestTheorem41Separation is the executable heart of Theorem 4.1:
// F0(A, S) = Q^k exactly when y ∈ T and at most k·Q^{k-1} otherwise.
func TestTheorem41Separation(t *testing.T) {
	src := rng.New(2)
	for trial := 0; trial < 5; trial++ {
		for _, inT := range []bool{true, false} {
			inst, err := NewF0Instance(12, 3, 6, 8, inT, src)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := inst.Source()
			if err != nil {
				t.Fatal(err)
			}
			f0 := float64(freq.FromSource(stream, inst.Query).Support())
			if inT {
				if f0 != inst.ThresholdHigh() {
					t.Fatalf("y in T: F0 = %v, want exactly Q^k = %v", f0, inst.ThresholdHigh())
				}
			} else if f0 > inst.ThresholdLow() {
				t.Fatalf("y not in T: F0 = %v exceeds k*Q^(k-1) = %v", f0, inst.ThresholdLow())
			}
		}
	}
}

func TestF0InstanceRowCount(t *testing.T) {
	src := rng.New(3)
	inst, err := NewF0Instance(10, 3, 4, 5, true, src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := inst.RowCount()
	if err != nil {
		t.Fatal(err)
	}
	pow, _ := combin.Pow(4, 3)
	want := 5 * pow
	if n != want {
		t.Fatalf("RowCount = %d, want %d", n, want)
	}
}

func TestF0InstanceValidation(t *testing.T) {
	src := rng.New(4)
	if _, err := NewF0Instance(5, 0, 4, 2, true, src); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := NewF0Instance(5, 5, 4, 2, true, src); err == nil {
		t.Fatal("k=d must error")
	}
	if _, err := NewF0Instance(5, 2, 4, 100, true, src); err == nil {
		t.Fatal("|T| > |B(d,k)| must error")
	}
}

// TestAlphabetReductionPreservesF0 verifies the Corollary 4.4 claim:
// the [Q] → [q']^L digit encoding preserves projected F0 exactly
// while multiplying dimensionality by L.
func TestAlphabetReductionPreservesF0(t *testing.T) {
	src := rng.New(5)
	for _, inT := range []bool{true, false} {
		inst, err := NewF0Instance(10, 3, 8, 6, inT, src)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := inst.Source()
		if err != nil {
			t.Fatal(err)
		}
		base := freq.FromSource(stream, inst.Query).Support()

		red, err := inst.NewAlphabetReduction(2)
		if err != nil {
			t.Fatal(err)
		}
		if red.L != 3 || red.Dim() != 30 {
			t.Fatalf("L = %d, d' = %d", red.L, red.Dim())
		}
		reduced := freq.FromSource(red, red.ExpandQuery(inst.Query)).Support()
		if base != reduced {
			t.Fatalf("F0 changed under alphabet reduction: %d vs %d", base, reduced)
		}
	}
}

func TestAlphabetReductionValidation(t *testing.T) {
	src := rng.New(6)
	inst, _ := NewF0Instance(8, 2, 4, 3, true, src)
	if _, err := inst.NewAlphabetReduction(1); err == nil {
		t.Fatal("q' < 2 must error")
	}
	if _, err := inst.NewAlphabetReduction(4); err == nil {
		t.Fatal("q' >= Q must error")
	}
}

func TestHHInstanceShape(t *testing.T) {
	src := rng.New(7)
	p := HHParams{D: 32, Eps: 0.25, Gamma: 0.05, TSize: 6, InT: true}
	inst, err := NewHHInstance(p, src)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Weight() != 8 {
		t.Fatalf("weight = %d, want εd = 8", inst.Weight())
	}
	// Query is the complement of supp(y).
	if inst.Query.Len() != 32-8 {
		t.Fatalf("|S| = %d", inst.Query.Len())
	}
	for _, j := range inst.Y.Support() {
		if inst.Query.Contains(j) {
			t.Fatal("query must avoid supp(y)")
		}
	}
	if inst.RowCount() != uint64(7)<<8 {
		t.Fatalf("RowCount = %d", inst.RowCount())
	}
	if len(inst.ZeroPattern()) != inst.Query.Len() {
		t.Fatal("zero pattern length mismatch")
	}
}

// TestTheorem53ZeroPatternFrequency: when y ∈ T, 0_S occurs at least
// 2^{εd} times (all of star(y) projects to it); when y ∉ T it stays
// far below.
func TestTheorem53ZeroPatternFrequency(t *testing.T) {
	src := rng.New(8)
	var counts [2]int64
	for i, inT := range []bool{true, false} {
		inst, err := NewHHInstance(HHParams{D: 32, Eps: 0.25, Gamma: 0.05, TSize: 6, InT: inT}, src)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := inst.Source()
		if err != nil {
			t.Fatal(err)
		}
		v := freq.FromSource(stream, inst.Query)
		zero := string(words.AppendKey(nil, inst.ZeroPattern(), words.FullColumnSet(inst.Query.Len())))
		counts[i] = v.Count(zero)
		if inT && counts[i] < 1<<8 {
			t.Fatalf("y in T: f(0_S) = %d < 2^εd = %d", counts[i], 1<<8)
		}
	}
	if counts[1]*2 > counts[0] {
		t.Fatalf("weak separation: %d vs %d", counts[0], counts[1])
	}
}

func TestFpInstanceShape(t *testing.T) {
	src := rng.New(9)
	inst, err := NewFpInstance(HHParams{D: 32, Eps: 0.25, Gamma: 0.05, TSize: 6, InT: false}, src)
	if err != nil {
		t.Fatal(err)
	}
	// Query is supp(y) for the p<1 construction.
	if inst.Query.Len() != inst.Weight() {
		t.Fatalf("|S| = %d, want weight %d", inst.Query.Len(), inst.Weight())
	}
	if inst.ThresholdHigh() != 256 {
		t.Fatalf("threshold = %v", inst.ThresholdHigh())
	}
}

func TestMPrimeSize(t *testing.T) {
	src := rng.New(10)
	inst, err := NewFpInstance(HHParams{D: 24, Eps: 0.25, Gamma: 0.05, TSize: 4, InT: true}, src)
	if err != nil {
		t.Fatal(err)
	}
	// Weight 6: M' counts binary words of length 6 with weight >= 3:
	// C(6,3)+C(6,4)+C(6,5)+C(6,6) = 20+15+6+1 = 42.
	if got := len(inst.MPrime()); got != 42 {
		t.Fatalf("|M'| = %d, want 42", got)
	}
}
