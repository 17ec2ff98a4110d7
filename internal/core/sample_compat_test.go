package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/words"
)

// sample-u16.bin was written by the encoder that shipped a sample's
// slots as u16 rows behind a length each (sampler mode 2): d = 5,
// q = 7, t = 40 and seed 13, over the 60 rows earlierExactRows draws
// in one batch. earlierSampleAnswers is what that encoder's summary
// answered.
const earlierSampleBlob = "sample-u16.bin"

var earlierSampleAnswers = []struct {
	cols []int
	b    words.Word
	f    float64
	hh   string // HeavyHitters(C, 1, 0.05), formatted with %v
}{
	{[]int{0, 2}, words.Word{0, 3}, 13.5, "[{(0 3) 13.5} {(0 1) 10.5} {(1 2) 9} {(0 2) 6} {(1 0) 6} {(1 1) 6} {(1 3) 6} {(0 0) 3}]"},
	{[]int{0, 2}, words.Word{1, 2}, 9, ""},
	{[]int{1, 3, 4}, words.Word{0, 2, 0}, 1.5, "[{(2 3 5) 7.5} {(0 1 3) 4.5} {(2 3 2) 4.5} {(2 4 0) 4.5} {(0 1 0) 3} {(0 2 1) 3} {(1 4 5) 3} {(2 1 1) 3} {(2 1 2) 3} {(2 2 3) 3} {(2 4 1) 3}]"},
}

// TestSampleReadsU16Layout: a blob of sampler mode 2 still decodes, to
// the rows and stream state a summary of the current encoder holds
// after the same rows, and so to the same answers; it re-encodes under
// mode 3, 2 bytes a slot's row here where mode 2 took 14. SizeBytes
// counts the packed slots once a row is seen, and none before.
func TestSampleReadsU16Layout(t *testing.T) {
	old := readEarlierBlob(t, earlierSampleBlob)
	if old[envelopeSize] != wireSampleWRU16 {
		t.Fatalf("fixture has sampler mode %d, want %d", old[envelopeSize], wireSampleWRU16)
	}
	dec, err := UnmarshalSummary(old)
	if err != nil {
		t.Fatal(err)
	}
	s := dec.(*Sample)
	for _, a := range earlierSampleAnswers {
		c := words.MustColumnSet(5, a.cols...)
		f, err := s.Frequency(c, a.b)
		if err != nil {
			t.Fatal(err)
		}
		if f != a.f {
			t.Fatalf("%v %v: frequency %v, the earlier encoder's summary answered %v", c, a.b, f, a.f)
		}
		if a.hh == "" {
			continue
		}
		hh, err := s.HeavyHitters(c, 1, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(hh) != a.hh {
			t.Fatalf("%v: heavy hitters %v, the earlier encoder's summary answered %s", c, hh, a.hh)
		}
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if blob[envelopeSize] != wireSampleWR || len(blob) != envelopeSize+1+12+40*(16+2) {
		t.Fatalf("re-encoded under mode %d in %d bytes, want mode %d in %d", blob[envelopeSize], len(blob), wireSampleWR, envelopeSize+1+12+40*18)
	}
	fresh, err := NewSample(5, 7, 40, 13)
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.SizeBytes(); got != 16 {
		t.Fatalf("an empty summary reports %d bytes, want 16", got)
	}
	fresh.ObserveBatch(words.BatchOf(5, earlierExactRows()))
	if got := fresh.SizeBytes(); got != 16+40*2 {
		t.Fatalf("SizeBytes %d, want %d", got, 16+40*2)
	}
	if want, err := fresh.MarshalBinary(); err != nil || !bytes.Equal(want, blob) {
		t.Fatal("the decoded summary differs from one built over the same rows")
	}
}
