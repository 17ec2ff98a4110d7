package core

import (
	"errors"
	"testing"

	"repro/internal/words"
)

// fuzzSeedBlobs marshals one small summary of every kind, giving the
// fuzzer structurally valid starting points (the committed corpus
// under testdata/fuzz mirrors these plus hand-damaged variants). The
// retired kind 4 and a sample blob under the retired sampler mode 1
// keep their places in the order, and a sample blob under the retired
// sampler mode 0 and a net blob with a nonzero reserved byte come
// next: every input grown from them must be refused typed. Last is a
// registered blob of the earlier layout, KHLL block included.
func fuzzSeedBlobs(f testing.TB) [][]byte {
	f.Helper()
	const d, q = 5, 3
	var blobs [][]byte
	add := func(s Summary, err error) {
		if err != nil {
			f.Fatal(err)
		}
		w := make(words.Word, d)
		for i := 0; i < 50; i++ {
			for j := range w {
				w[j] = uint16((i + j) % q)
			}
			s.Observe(w)
		}
		blob, err := MarshalSummary(s)
		if err != nil {
			f.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	add(NewExact(d, q))
	add(NewSample(d, q, 16, 3))
	blobs = append(blobs, retiredSampleModeBlob(f, d, q, 1))
	add(NewNet(d, q, NetConfig{Alpha: 0.3, Epsilon: 0.3, Moments: []float64{2}, StableReps: 12, Seed: 5}))
	blobs = append(blobs, retiredKindBlob(f, d, q))
	add(NewRegistered(d, q, words.MustColumnSet(d, 0, 2), RegisteredConfig{Seed: 7}))
	return append(blobs, retiredSampleModeBlob(f, d, q, 0), reservedNetByteBlob(f, d, q, 1),
		readEarlierBlob(f, earlierOneSetBlob))
}

// FuzzUnmarshalSummary asserts the wire decoder's contract on
// arbitrary input: it never panics, every rejection is typed
// (ErrBadEncoding / ErrInvalidParam), and
// anything it accepts is a live summary — queryable and re-encodable.
func FuzzUnmarshalSummary(f *testing.F) {
	for _, blob := range fuzzSeedBlobs(f) {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
		mut := append([]byte{}, blob...)
		mut[len(mut)-1] ^= 0xFF
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSummary(data)
		if err != nil {
			if !errors.Is(err, ErrBadEncoding) && !errors.Is(err, ErrInvalidParam) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if s.Dim() < 1 || s.Alphabet() < 2 || s.Rows() < 0 {
			t.Fatalf("decoded summary with degenerate shape: d=%d q=%d n=%d", s.Dim(), s.Alphabet(), s.Rows())
		}
		// Accepted blobs decode to live summaries: queries answer or
		// fail typed, and the summary re-encodes.
		c := words.MustColumnSet(s.Dim(), 0)
		if qr, ok := s.(F0Querier); ok {
			if _, err := qr.F0(c); err != nil && !errors.Is(err, ErrUnsupported) {
				t.Fatalf("decoded F0 failed untyped: %v", err)
			}
		}
		if qr, ok := s.(FrequencyQuerier); ok {
			if _, err := qr.Frequency(c, words.Word{0}); err != nil {
				t.Fatalf("decoded Frequency failed: %v", err)
			}
		}
		if _, err := MarshalSummary(s); err != nil {
			t.Fatalf("re-marshal of decoded summary: %v", err)
		}
	})
}
