package sample

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/words"
)

// makeStream returns n rows where pattern (1,1) on columns {0,1}
// appears with exact frequency heavy and the rest are distinct-ish.
func makeStream(n, heavy int) []words.Word {
	rows := make([]words.Word, 0, n)
	for i := 0; i < heavy; i++ {
		rows = append(rows, words.Word{1, 1, uint16(i % 4)})
	}
	for i := heavy; i < n; i++ {
		rows = append(rows, words.Word{0, uint16(i % 2), uint16(i % 4)})
	}
	return rows
}

// streamPacking is the row layout of makeStream's rows.
var streamPacking = words.NewPacking(3, 4)

func TestWithReplacementFrequencyEstimate(t *testing.T) {
	const n, heavy = 20000, 5000 // true rate 0.25
	rows := makeStream(n, heavy)
	s := NewWithReplacementPacked(streamPacking, SizeForError(0.05, 0.01), 1)
	for _, r := range rows {
		s.ObserveBatch(words.RowBatch(r))
	}
	if s.Seen() != n {
		t.Fatalf("Seen = %d", s.Seen())
	}
	c := words.MustColumnSet(3, 0, 1)
	est := s.EstimateFrequency(c, words.Word{1, 1})
	if math.Abs(est-heavy) > 0.05*n {
		t.Fatalf("estimate %v, truth %d, bound %v", est, heavy, 0.05*n)
	}
	// A pattern that never occurs must estimate near zero.
	if est := s.EstimateFrequency(c, words.Word{1, 0}); est > 0.05*n {
		t.Fatalf("absent pattern estimate %v", est)
	}
}

// TestWithReplacementChernoffBound replays Theorem 5.1's guarantee
// over many independent samplers: the fraction of estimates within
// eps*n must be at least 1-delta.
func TestWithReplacementChernoffBound(t *testing.T) {
	const n, heavy = 5000, 1000
	const eps, delta = 0.1, 0.05
	rows := makeStream(n, heavy)
	c := words.MustColumnSet(3, 0, 1)
	b := words.Word{1, 1}
	within := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		s := NewWithReplacementPacked(streamPacking, SizeForError(eps, delta), uint64(trial+10))
		for _, r := range rows {
			s.ObserveBatch(words.RowBatch(r))
		}
		if math.Abs(s.EstimateFrequency(c, b)-heavy) <= eps*n {
			within++
		}
	}
	if frac := float64(within) / trials; frac < 1-delta {
		t.Fatalf("bound held in %v of trials, want >= %v", frac, 1-delta)
	}
}

func TestWithReplacementQueryAfterData(t *testing.T) {
	// The sampler never sees C: any projection must work post hoc.
	rows := makeStream(8000, 2000)
	s := NewWithReplacementPacked(streamPacking, 600, 3)
	for _, r := range rows {
		s.ObserveBatch(words.RowBatch(r))
	}
	for _, cols := range [][]int{{0}, {1, 2}, {0, 1, 2}} {
		c := words.MustColumnSet(3, cols...)
		counts := s.ProjectedCounts(c)
		total := 0
		for _, v := range counts {
			total += v
		}
		if total != 600 {
			t.Fatalf("projected counts over %v sum to %d, want 600", cols, total)
		}
	}
}

func TestWithReplacementPatternValidation(t *testing.T) {
	s := NewWithReplacementPacked(streamPacking, 4, 1)
	s.ObserveBatch(words.RowBatch(words.Word{1, 2, 3}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong pattern length")
		}
	}()
	s.EstimateFrequency(words.MustColumnSet(3, 0, 1), words.Word{1})
}

func TestSizeForError(t *testing.T) {
	t1 := SizeForError(0.1, 0.05)
	t2 := SizeForError(0.05, 0.05)
	if t2 < 4*t1-2 {
		t.Fatalf("halving eps must ~quadruple t: %d vs %d", t1, t2)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SizeForError(0, 0.5)
}

func TestReservoirSizeAndScaling(t *testing.T) {
	const n, heavy = 10000, 2500
	rows := makeStream(n, heavy)
	s := NewReservoir(500, 5)
	for _, r := range rows {
		s.ObserveBatch(words.RowBatch(r))
	}
	if len(s.Rows()) != 500 || s.Seen() != n {
		t.Fatalf("reservoir holds %d of %d", len(s.Rows()), s.Seen())
	}
	c := words.MustColumnSet(3, 0, 1)
	est := s.EstimateFrequency(c, words.Word{1, 1})
	if math.Abs(est-heavy) > 0.08*n {
		t.Fatalf("reservoir estimate %v, truth %d", est, heavy)
	}
}

func TestReservoirShortStream(t *testing.T) {
	s := NewReservoir(100, 7)
	for i := 0; i < 10; i++ {
		s.ObserveBatch(words.RowBatch(words.Word{uint16(i)}))
	}
	if len(s.Rows()) != 10 {
		t.Fatalf("short stream keeps all rows: %d", len(s.Rows()))
	}
}

func TestSamplersCloneRows(t *testing.T) {
	w := words.Word{5}
	s := NewReservoir(4, 13)
	s.ObserveBatch(words.RowBatch(w))
	w[0] = 9
	if s.Rows()[0][0] != 5 {
		t.Fatal("reservoir must clone observed rows")
	}
	// Without a layout, the sampler keeps the first batch's rows at
	// 16 bits a symbol.
	wr := NewWithReplacement(2, 13)
	w2 := words.Word{7, 60000}
	wr.ObserveBatch(words.RowBatch(w2))
	w2[0] = 1
	kept := keptRows(wr)
	for i := range kept.Len() {
		if !kept.Row(i).Equal(words.Word{7, 60000}) {
			t.Fatal("with-replacement sampler must copy rows")
		}
	}
	if wr.pk != words.NewPacking(2, words.MaxAlphabet) {
		t.Fatal("the sampler did not take the 16-bit layout of the first batch")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	mk := func() *Reservoir {
		s := NewReservoir(50, 99)
		src := rng.New(1)
		for i := 0; i < 5000; i++ {
			s.ObserveBatch(words.RowBatch(words.Word{uint16(src.Intn(100))}))
		}
		return s
	}
	a, b := mk(), mk()
	for i := range a.Rows() {
		if !a.Rows()[i].Equal(b.Rows()[i]) {
			t.Fatal("same seed must reproduce the same sample")
		}
	}
}
