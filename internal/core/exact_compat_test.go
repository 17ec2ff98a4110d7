package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/words"
)

// exact-u16.bin was written by the encoder that shipped an exact
// summary's rows as u16 symbols (payload layout 0): d = 5, q = 7 and
// the 60 rows earlierExactRows draws. earlierExactAnswers is what that
// encoder's summary answered.
const earlierExactBlob = "exact-u16.bin"

func earlierExactRows() []uint16 {
	src := rng.New(11)
	syms := make([]uint16, 0, 60*5)
	for range 60 {
		for j := range 5 {
			syms = append(syms, uint16(src.Intn(min(7, 2+j))))
		}
	}
	return syms
}

var earlierExactAnswers = []struct {
	cols   []int
	f0, f2 float64
	hh     string // HeavyHitters(C, 1, 0.05), formatted with %v
}{
	{[]int{0, 2}, 8, 522, "[{(0 3) 12} {(0 1) 11} {(1 2) 9} {(1 0) 8} {(0 0) 6} {(1 1) 6} {(1 3) 6}]"},
	{[]int{1, 3, 4}, 41, 110, "[{(0 2 0) 4} {(0 1 3) 3} {(2 2 3) 3} {(2 3 2) 3}]"},
	{[]int{0, 1, 2, 3, 4}, 59, 62, "[]"},
}

// TestExactReadsU16Layout: a blob in the earlier u16 layout still
// decodes, to the same rows and the same answers, and re-encodes in
// the packed layout, 2 bytes a row here, which decodes to the same
// rows again.
func TestExactReadsU16Layout(t *testing.T) {
	old := readEarlierBlob(t, earlierExactBlob)
	if old[6] != exactLayoutSymbols || len(old) != envelopeSize+2*60*5 {
		t.Fatalf("fixture has layout %d and %d bytes, want the u16 layout's %d", old[6], len(old), envelopeSize+2*60*5)
	}
	s, err := UnmarshalSummary(old)
	if err != nil {
		t.Fatal(err)
	}
	e := s.(*Exact)
	want := earlierExactRows()
	if got := e.Table().Batch().Symbols(); !slices.Equal(got, want) {
		t.Fatalf("decoded rows %v, want %v", got, want)
	}
	for _, a := range earlierExactAnswers {
		c := words.MustColumnSet(5, a.cols...)
		f0, err0 := e.F0(c)
		f2, err1 := e.Fp(c, 2)
		hh, err2 := e.HeavyHitters(c, 1, 0.05)
		if err0 != nil || err1 != nil || err2 != nil {
			t.Fatal(err0, err1, err2)
		}
		if f0 != a.f0 || f2 != a.f2 || fmt.Sprint(hh) != a.hh {
			t.Fatalf("%v: F0 %v, F2 %v, heavy hitters %v; the earlier encoder's summary answered %v, %v, %s",
				c, f0, f2, hh, a.f0, a.f2, a.hh)
		}
	}
	blob := mustMarshal(t, e)
	if blob[6] != exactLayoutPacked || len(blob) != envelopeSize+2*60 {
		t.Fatalf("re-encoded with layout %d in %d bytes, want the packed layout's %d", blob[6], len(blob), envelopeSize+2*60)
	}
	again, err := UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.(*Exact).Table().Batch().Symbols(); !slices.Equal(got, want) {
		t.Fatal("the re-encoded blob decodes to other rows")
	}
	if !bytes.Equal(mustMarshal(t, again.(*Exact)), blob) {
		t.Fatal("the packed blob re-encodes differently")
	}
}
