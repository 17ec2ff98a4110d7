package sketch

import (
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

func feedFreq(s *CountSketch, freqs map[uint64]int64) (n int64) {
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

func TestFreqSerializationRoundTrip(t *testing.T) {
	f := func(seed uint64, items []uint64) bool {
		cs := NewCountSketch(64, 3, seed)
		for _, it := range items {
			cs.AddCount(it, 2)
		}
		csB, _ := cs.MarshalBinary()
		var cs2 CountSketch
		if cs2.UnmarshalBinary(csB) != nil {
			return false
		}
		probe := uint64(12345)
		return cs2.EstimateCount(probe) == cs.EstimateCount(probe) &&
			cs2.EstimateF2() == cs.EstimateF2()
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFreqUnmarshalCorrupt(t *testing.T) {
	if err := (&CountSketch{}).UnmarshalBinary([]byte{0x00}); err == nil {
		t.Fatal("CountSketch must reject corrupt data")
	}
}
