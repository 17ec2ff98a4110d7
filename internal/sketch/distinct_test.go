package sketch

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// distinctSketch is the common surface of the three F0 sketches.
type distinctSketch interface {
	Add(item uint64)
	Estimate() float64
	SizeBytes() int
	MarshalBinary() ([]byte, error)
}

func distinctFactories() map[string]func(seed uint64) distinctSketch {
	return map[string]func(seed uint64) distinctSketch{
		"kmv":   func(seed uint64) distinctSketch { return NewKMV(1024, seed) },
		"hll":   func(seed uint64) distinctSketch { return NewHLL(12, seed) },
		"bjkst": func(seed uint64) distinctSketch { return NewBJKST(2048, seed) },
	}
}

func TestDistinctSketchAccuracy(t *testing.T) {
	for name, mk := range distinctFactories() {
		t.Run(name, func(t *testing.T) {
			s := mk(1)
			const n = 100000
			src := rng.New(2)
			for i := 0; i < n; i++ {
				item := src.Uint64()
				s.Add(item)
				s.Add(item) // duplicates must not inflate the estimate
			}
			est := s.Estimate()
			if math.Abs(est-n)/n > 0.1 {
				t.Fatalf("%s estimate %v for %d distinct", name, est, n)
			}
		})
	}
}

func TestDistinctSketchSmallCounts(t *testing.T) {
	for name, mk := range distinctFactories() {
		t.Run(name, func(t *testing.T) {
			s := mk(3)
			for i := uint64(0); i < 50; i++ {
				s.Add(i)
				s.Add(i)
			}
			est := s.Estimate()
			if math.Abs(est-50) > 5 {
				t.Fatalf("%s small-range estimate %v for 50 distinct", name, est)
			}
		})
	}
}

func TestKMVExactBelowSaturation(t *testing.T) {
	s := NewKMV(128, 7)
	for i := uint64(0); i < 100; i++ {
		s.Add(i)
		s.Add(i)
	}
	if got := s.Estimate(); got != 100 {
		t.Fatalf("below saturation KMV must be exact: %v", got)
	}
}

func TestDistinctMergeEqualsUnion(t *testing.T) {
	type merger interface {
		distinctSketch
	}
	check := func(name string, mkA, mkB, mkAll func() merger, merge func(a, b merger) error) {
		t.Run(name, func(t *testing.T) {
			a, b, all := mkA(), mkB(), mkAll()
			src := rng.New(5)
			for i := 0; i < 30000; i++ {
				item := src.Uint64()
				all.Add(item)
				if i%2 == 0 {
					a.Add(item)
				} else {
					b.Add(item)
				}
			}
			if err := merge(a, b); err != nil {
				t.Fatal(err)
			}
			ea, eu := a.Estimate(), all.Estimate()
			if math.Abs(ea-eu)/eu > 1e-9 {
				t.Fatalf("merge estimate %v != union estimate %v", ea, eu)
			}
		})
	}
	check("kmv",
		func() merger { return NewKMV(512, 9) },
		func() merger { return NewKMV(512, 9) },
		func() merger { return NewKMV(512, 9) },
		func(a, b merger) error { return a.(*KMV).Merge(b.(*KMV)) })
	check("hll",
		func() merger { return NewHLL(10, 9) },
		func() merger { return NewHLL(10, 9) },
		func() merger { return NewHLL(10, 9) },
		func(a, b merger) error { return a.(*HLL).Merge(b.(*HLL)) })
	check("bjkst",
		func() merger { return NewBJKST(1024, 9) },
		func() merger { return NewBJKST(1024, 9) },
		func() merger { return NewBJKST(1024, 9) },
		func(a, b merger) error { return a.(*BJKST).Merge(b.(*BJKST)) })
}

func TestDistinctMergeIncompatible(t *testing.T) {
	if err := NewKMV(64, 1).Merge(NewKMV(64, 2)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("KMV seed mismatch: %v", err)
	}
	if err := NewKMV(64, 1).Merge(NewKMV(128, 1)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("KMV k mismatch: %v", err)
	}
	if err := NewHLL(8, 1).Merge(NewHLL(9, 1)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("HLL precision mismatch: %v", err)
	}
	if err := NewBJKST(64, 1).Merge(NewBJKST(64, 2)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("BJKST seed mismatch: %v", err)
	}
}

func TestDistinctSerializationRoundTrip(t *testing.T) {
	f := func(seed uint64, itemsRaw []uint64) bool {
		for name, mk := range distinctFactories() {
			s := mk(seed)
			for _, it := range itemsRaw {
				s.Add(it)
			}
			data, err := s.MarshalBinary()
			if err != nil {
				t.Logf("%s marshal: %v", name, err)
				return false
			}
			if len(data) > s.SizeBytes() {
				t.Logf("%s SizeBytes %d < actual %d", name, s.SizeBytes(), len(data))
				return false
			}
			var back distinctSketch
			switch name {
			case "kmv":
				back = &KMV{}
			case "hll":
				back = &HLL{}
			default:
				back = &BJKST{}
			}
			if err := back.(interface{ UnmarshalBinary([]byte) error }).UnmarshalBinary(data); err != nil {
				t.Logf("%s unmarshal: %v", name, err)
				return false
			}
			if back.Estimate() != s.Estimate() {
				t.Logf("%s estimate drifted across serialization", name)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctUnmarshalCorrupt(t *testing.T) {
	for _, s := range []interface{ UnmarshalBinary([]byte) error }{&KMV{}, &HLL{}, &BJKST{}} {
		if err := s.UnmarshalBinary([]byte{0xff, 0x01}); err == nil {
			t.Fatalf("%T must reject corrupt data", s)
		}
		if err := s.UnmarshalBinary(nil); err == nil {
			t.Fatalf("%T must reject empty data", s)
		}
	}
	// Wrong tag.
	kmvBytes, _ := NewKMV(8, 1).MarshalBinary()
	if err := (&HLL{}).UnmarshalBinary(kmvBytes); err == nil {
		t.Fatal("HLL must reject a KMV payload")
	}
}

func TestForEpsilonConstructors(t *testing.T) {
	if k := KMVForEpsilon(0.1, 1).K(); k < 100 {
		t.Fatalf("KMV k = %d too small for eps=0.1", k)
	}
	if p := HLLForEpsilon(0.05, 1).Precision(); p < 9 {
		t.Fatalf("HLL precision %d too small for eps=0.05", p)
	}
	if b := BJKSTForEpsilon(0.1, 1).Budget(); b < 1000 {
		t.Fatalf("BJKST budget %d too small for eps=0.1", b)
	}
	for _, fn := range []func(){
		func() { KMVForEpsilon(0, 1) },
		func() { HLLForEpsilon(1.5, 1) },
		func() { BJKSTForEpsilon(-0.1, 1) },
		func() { NewKMV(1, 1) },
		func() { NewHLL(3, 1) },
		func() { NewBJKST(2, 1) },
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

func TestDistinctSeedIndependence(t *testing.T) {
	// Different seeds give different (but individually valid) sketches.
	a, b := NewKMV(64, 1), NewKMV(64, 2)
	for i := uint64(0); i < 1000; i++ {
		a.Add(i)
		b.Add(i)
	}
	am, _ := a.MarshalBinary()
	bm, _ := b.MarshalBinary()
	if string(am) == string(bm) {
		t.Fatal("different seeds must produce different retained values")
	}
}
