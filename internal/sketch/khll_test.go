package sketch

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
)

// TestKHLLExactBelowK: with fewer than k values every value is
// retained, so the ids-per-value distribution is the exact one.
func TestKHLLExactBelowK(t *testing.T) {
	s := NewKHLL(64, 8, 2)
	for v := uint64(0); v < 40; v++ {
		s.Add(v, 0)
		if v%4 == 0 {
			s.Add(v, 1)
			s.Add(v, 2)
		}
	}
	if got := s.HighlyIdentifying(1); got != 0.75 {
		t.Fatalf("below k must be exact: %v of values unique, want 0.75", got)
	}
}

// TestKHLLUniquenessDistribution plants a known id-per-value
// structure: 80% of values carry exactly one id, 20% carry many.
func TestKHLLUniquenessDistribution(t *testing.T) {
	s := NewKHLL(1024, 10, 3)
	src := rng.New(4)
	const values = 10000
	for v := uint64(0); v < values; v++ {
		if v%5 == 0 {
			// Popular value: 50 distinct ids.
			for id := uint64(0); id < 50; id++ {
				s.Add(v, id*values+v)
			}
		} else {
			s.Add(v, src.Uint64())
		}
	}
	unique := s.HighlyIdentifying(1)
	if math.Abs(unique-0.8) > 0.06 {
		t.Fatalf("unique fraction %v, want ~0.8", unique)
	}
	// The distribution is monotone in the threshold.
	dist := s.UniquenessDistribution([]int{1, 10, 100})
	if !(dist[0] <= dist[1] && dist[1] <= dist[2]) {
		t.Fatalf("distribution not monotone: %v", dist)
	}
	if dist[2] < 0.99 {
		t.Fatalf("threshold 100 must cover everything: %v", dist[2])
	}
}

func TestKHLLMerge(t *testing.T) {
	mk := func() *KHLL { return NewKHLL(256, 8, 5) }
	a, b, whole := mk(), mk(), mk()
	src := rng.New(6)
	for i := 0; i < 20000; i++ {
		v, id := uint64(src.Intn(3000)), src.Uint64()
		whole.Add(v, id)
		if i%2 == 0 {
			a.Add(v, id)
		} else {
			b.Add(v, id)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	// Both halves keep every value the union keeps, so the merge is
	// exact.
	ma, _ := a.MarshalBinary()
	mw, _ := whole.MarshalBinary()
	if string(ma) != string(mw) {
		t.Fatal("merged KHLL differs from the KHLL of the whole stream")
	}
	if err := a.Merge(NewKHLL(256, 8, 6)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("seed mismatch: %v", err)
	}
}

func TestKHLLSizeBounded(t *testing.T) {
	s := NewKHLL(128, 8, 7)
	for v := uint64(0); v < 100000; v++ {
		s.Add(v, v)
	}
	// At most k entries retained regardless of stream size.
	maxBytes := 17 + 128*(8+1+1+8+256+64) // generous
	if s.SizeBytes() > maxBytes {
		t.Fatalf("KHLL grew beyond k entries: %d bytes", s.SizeBytes())
	}
}

func TestKHLLPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewKHLL(1, 8, 1) },
		func() { NewKHLL(8, 2, 1) },
		func() { NewKHLL(8, 20, 1) },
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
