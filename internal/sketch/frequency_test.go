package sketch

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// zipfStream builds a deterministic skewed stream over `universe`
// items and returns the exact frequency map.
func zipfStream(universe, draws int, seed uint64) map[uint64]int64 {
	src := rng.New(seed)
	z := rng.NewZipf(src, universe, 1.1)
	freqs := make(map[uint64]int64, universe)
	for i := 0; i < draws; i++ {
		freqs[uint64(z.Next())*0x9e3779b97f4a7c15]++
	}
	return freqs
}

func feedFreq(s FrequencyEstimator, freqs map[uint64]int64) (n int64) {
	for item, c := range freqs {
		s.AddCount(item, c)
		n += c
	}
	return
}

func TestCountSketchPointEstimates(t *testing.T) {
	freqs := zipfStream(2000, 100000, 19)
	s := CountSketchForError(0.02, 0.01, 23)
	var f2 float64
	n := feedFreq(s, freqs)
	_ = n
	for _, c := range freqs {
		f2 += float64(c) * float64(c)
	}
	bound := 3 * 0.02 * math.Sqrt(f2)
	for item, truth := range freqs {
		if err := math.Abs(s.EstimateCount(item) - float64(truth)); err > bound {
			t.Fatalf("CountSketch error %v exceeds %v for truth %d", err, bound, truth)
		}
	}
}

func TestCountSketchTurnstile(t *testing.T) {
	s := NewCountSketch(256, 5, 29)
	s.AddCount(42, 1000)
	s.AddCount(43, 500)
	s.AddCount(42, -1000) // full deletion
	if est := s.EstimateCount(42); math.Abs(est) > 100 {
		t.Fatalf("deleted item estimate %v", est)
	}
	if est := s.EstimateCount(43); math.Abs(est-500) > 100 {
		t.Fatalf("remaining item estimate %v", est)
	}
}

func TestCountSketchF2(t *testing.T) {
	freqs := zipfStream(1000, 80000, 31)
	s := NewCountSketch(2048, 7, 37)
	var f2 float64
	feedFreq(s, freqs)
	for _, c := range freqs {
		f2 += float64(c) * float64(c)
	}
	if got := s.EstimateF2(); math.Abs(got-f2)/f2 > 0.1 {
		t.Fatalf("fast-AMS F2 = %v, truth %v", got, f2)
	}
}

func TestAMSMomentEstimate(t *testing.T) {
	freqs := zipfStream(1000, 80000, 41)
	s := NewAMS(9, 400, 43)
	var f2 float64
	for item, c := range freqs {
		s.AddCount(item, c)
		f2 += float64(c) * float64(c)
	}
	if got := s.EstimateMoment(); math.Abs(got-f2)/f2 > 0.15 {
		t.Fatalf("AMS F2 = %v, truth %v", got, f2)
	}
}

func TestAMSMerge(t *testing.T) {
	a := NewAMS(3, 50, 47)
	b := NewAMS(3, 50, 47)
	whole := NewAMS(3, 50, 47)
	for i := uint64(0); i < 2000; i++ {
		whole.AddCount(i, int64(i%5)+1)
		if i%2 == 0 {
			a.AddCount(i, int64(i%5)+1)
		} else {
			b.AddCount(i, int64(i%5)+1)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.EstimateMoment() != whole.EstimateMoment() {
		t.Fatal("AMS merge must be exact (linear sketch)")
	}
	if err := a.Merge(NewAMS(3, 50, 48)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("seed mismatch: %v", err)
	}
}

func TestFreqSerializationRoundTrip(t *testing.T) {
	f := func(seed uint64, items []uint64) bool {
		cs := NewCountSketch(64, 3, seed)
		ams := NewAMS(3, 8, seed)
		for _, it := range items {
			cs.AddCount(it, 2)
			ams.AddCount(it, 2)
		}
		csB, _ := cs.MarshalBinary()
		amsB, _ := ams.MarshalBinary()
		var cs2 CountSketch
		var ams2 AMS
		if cs2.UnmarshalBinary(csB) != nil || ams2.UnmarshalBinary(amsB) != nil {
			return false
		}
		probe := uint64(12345)
		return cs2.EstimateCount(probe) == cs.EstimateCount(probe) &&
			ams2.EstimateMoment() == ams.EstimateMoment()
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFreqUnmarshalCorrupt(t *testing.T) {
	for _, s := range []interface{ UnmarshalBinary([]byte) error }{&CountSketch{}, &AMS{}} {
		if err := s.UnmarshalBinary([]byte{0x00}); err == nil {
			t.Fatalf("%T must reject corrupt data", s)
		}
	}
}
