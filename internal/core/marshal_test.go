package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/wire"
	"repro/internal/words"
)

// marshalStream feeds n deterministic rows over (d, q) into each summary.
func marshalStream(d, q, n int, seed uint64, sums ...Summary) {
	src := rng.New(seed)
	w := make(words.Word, d)
	for i := 0; i < n; i++ {
		if src.Float64() < 0.4 {
			// Planted heavy pattern on the low columns.
			for j := range w {
				w[j] = uint16(j % 2)
			}
		} else {
			for j := range w {
				w[j] = uint16(src.Intn(q))
			}
		}
		for _, s := range sums {
			s.Observe(w)
		}
	}
}

// wireSummaries builds one summary of every kind over shape (6, 3).
func wireSummaries(t *testing.T) map[string]Summary {
	t.Helper()
	const d, q = 6, 3
	ex := mustExact(t, d, q)
	wr, err := NewSample(d, q, 80, 11)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := NewNet(d, q, NetConfig{Alpha: 0.3, Epsilon: 0.25, Moments: []float64{0.5, 2}, StableReps: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistered(d, q, words.MustColumnSet(d, 0, 1), RegisteredConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Summary{
		"exact":      ex,
		"sample-wr":  wr,
		"net":        nt,
		"registered": reg,
	}
}

// probeAnswers evaluates every query class a summary supports on a
// fixed query set, so two summaries can be compared estimate-for-
// estimate.
func probeAnswers(t *testing.T, s Summary) map[string]float64 {
	t.Helper()
	out := map[string]float64{"rows": float64(s.Rows())}
	d := s.Dim()
	queries := []words.ColumnSet{
		words.MustColumnSet(d, 0, 1),
		words.MustColumnSet(d, 2, 4, 5),
	}
	for _, c := range queries {
		if qr, ok := s.(F0Querier); ok {
			if v, err := qr.F0(c); err == nil {
				out["f0:"+c.String()] = v
			}
		}
		if qr, ok := s.(FpQuerier); ok {
			if v, err := qr.Fp(c, 2); err == nil {
				out["f2:"+c.String()] = v
			}
		}
		if qr, ok := s.(FrequencyQuerier); ok {
			b := make(words.Word, c.Len())
			for i, j := range c.Columns() {
				b[i] = uint16(j % 2)
			}
			if v, err := qr.Frequency(c, b); err == nil {
				out["freq:"+c.String()] = v
			}
		}
	}
	if len(out) < 2 {
		t.Fatalf("%s: probe answered nothing", s.Name())
	}
	return out
}

func sameAnswers(t *testing.T, name string, want, got map[string]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: probe sets differ: %v vs %v", name, want, got)
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: decoded summary lost %q", name, k)
		}
		if g != w {
			t.Fatalf("%s: %s: decoded %v != original %v", name, k, g, w)
		}
	}
}

func TestMarshalRoundTripPreservesEstimates(t *testing.T) {
	sums := wireSummaries(t)
	for name, s := range sums {
		marshalStream(s.Dim(), s.Alphabet(), 3000, 77, s)
		blob, err := MarshalSummary(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		dec, err := UnmarshalSummary(blob)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if dec.Name() != s.Name() {
			t.Fatalf("%s: decoded name %q != %q", name, dec.Name(), s.Name())
		}
		if dec.Dim() != s.Dim() || dec.Alphabet() != s.Alphabet() || dec.Rows() != s.Rows() {
			t.Fatalf("%s: decoded shape (%d,%d,%d) != (%d,%d,%d)", name,
				dec.Dim(), dec.Alphabet(), dec.Rows(), s.Dim(), s.Alphabet(), s.Rows())
		}
		sameAnswers(t, name, probeAnswers(t, s), probeAnswers(t, dec))
		// Marshal is read-only: a second encoding is byte-identical.
		blob2, err := MarshalSummary(s)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if string(blob) != string(blob2) {
			t.Fatalf("%s: marshal is not deterministic", name)
		}
	}
}

// cloneViaWire round-trips a summary through its wire form.
func cloneViaWire(t *testing.T, s Summary) Summary {
	t.Helper()
	blob, err := MarshalSummary(s)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

func TestMergeOfDecodedEqualsDecodeOfMerged(t *testing.T) {
	left := wireSummaries(t)
	right := wireSummaries(t)
	for name := range left {
		a, b := left[name], right[name]
		marshalStream(a.Dim(), a.Alphabet(), 2000, 101, a)
		marshalStream(b.Dim(), b.Alphabet(), 1500, 202, b)

		// Path 1: decode both sides, then merge the decoded copies.
		decA, decB := cloneViaWire(t, a), cloneViaWire(t, b)
		if err := decA.(Mergeable).Merge(decB); err != nil {
			t.Fatalf("%s: merging decoded copies: %v", name, err)
		}
		// Path 2: merge in-process, then round-trip the result.
		if err := a.(Mergeable).Merge(b); err != nil {
			t.Fatalf("%s: in-process merge: %v", name, err)
		}
		decMerged := cloneViaWire(t, a)

		sameAnswers(t, name, probeAnswers(t, decMerged), probeAnswers(t, decA))
	}
}

func TestUnmarshalTypedReceivers(t *testing.T) {
	sums := wireSummaries(t)
	for _, s := range sums {
		marshalStream(s.Dim(), s.Alphabet(), 500, 31, s)
	}
	blob := func(name string) []byte {
		b, err := MarshalSummary(sums[name])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	decode := func(name string) Summary {
		dec, err := UnmarshalSummary(blob(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return dec
	}
	// UnmarshalSummary dispatches on the kind byte to the concrete type.
	ex, ok1 := decode("exact").(*Exact)
	smp, ok2 := decode("sample-wr").(*Sample)
	nt, ok3 := decode("net").(*Net)
	reg, ok4 := decode("registered").(*Registered)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatalf("decoded types %T %T %T %T", ex, smp, nt, reg)
	}
	if ex.Rows() != 500 || smp.Rows() != 500 || nt.Rows() != 500 || reg.Rows() != 500 {
		t.Fatal("typed decodes lost rows")
	}
	// A decoded summary keeps merging: its state is fully restored.
	if err := nt.Merge(sums["net"]); err != nil {
		t.Fatalf("decoded net must merge with its origin: %v", err)
	}
}

// typedDecodeErr asserts the decode failure lands in the error
// taxonomy: ErrBadEncoding or ErrInvalidParam.
func typedDecodeErr(t *testing.T, context string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: decode must fail", context)
	}
	if !errors.Is(err, ErrBadEncoding) && !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("%s: untyped decode error %v", context, err)
	}
}

func TestUnmarshalCorruptBlobsFailTyped(t *testing.T) {
	sums := wireSummaries(t)
	for name, s := range sums {
		marshalStream(s.Dim(), s.Alphabet(), 300, 57, s)
		blob, err := MarshalSummary(s)
		if err != nil {
			t.Fatal(err)
		}
		// Every truncation fails typed.
		for cut := 0; cut < len(blob); cut += 1 + len(blob)/97 {
			if _, err := UnmarshalSummary(blob[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d decoded", name, cut)
			} else {
				typedDecodeErr(t, name+": truncation", err)
			}
		}
		// Trailing garbage is rejected.
		_, err = UnmarshalSummary(append(append([]byte{}, blob...), 0xFF))
		typedDecodeErr(t, name+": trailing byte", err)
		// Header mutations are rejected.
		for _, mut := range []struct {
			context string
			off     int
			val     byte
		}{
			{"magic", 0, 'X'},
			{"version", 4, 99},
			{"kind", 5, 200},
			{"layout", 6, 2},
			{"reserved", 7, 1},
			{"dim", 8, 0xFF},
			{"alphabet", 12, 0},
		} {
			m := append([]byte{}, blob...)
			m[mut.off] = mut.val
			if _, err := UnmarshalSummary(m); err == nil {
				// Some payloads may tolerate a dim change if the
				// payload happens to be consistent — but then the
				// summary must still be well-formed. Only the error
				// path is asserted typed.
				t.Fatalf("%s: %s mutation decoded", name, mut.context)
			} else {
				typedDecodeErr(t, name+": "+mut.context, err)
			}
		}
	}
}

func TestUnmarshalDegenerateShapeIsParamError(t *testing.T) {
	s := mustExact(t, 4, 2)
	blob, err := MarshalSummary(s)
	if err != nil {
		t.Fatal(err)
	}
	// Zero out q in the header: the rejection comes from the shared
	// shape validation, as a ParamError.
	m := append([]byte{}, blob...)
	m[12], m[13], m[14], m[15] = 0, 0, 0, 0
	_, err = UnmarshalSummary(m)
	if !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("degenerate shape must wrap ErrInvalidParam, got %v", err)
	}
	var pe *ParamError
	if !errors.As(err, &pe) {
		t.Fatalf("degenerate shape must be a ParamError, got %v", err)
	}
}

func TestUnmarshalHugeRowCountFailsFast(t *testing.T) {
	// A 36-byte envelope claiming 2^61 rows with an empty payload must
	// be rejected by arithmetic, not by looping: rows×d×2 overflows
	// uint64 to 0 for d=4, which a product-based check would accept.
	blob := make([]byte, 36)
	copy(blob, "PFQS")
	blob[4] = WireVersion
	blob[5] = byte(KindExact)
	binary.LittleEndian.PutUint32(blob[8:], 4)              // d
	binary.LittleEndian.PutUint32(blob[12:], 2)             // q
	binary.LittleEndian.PutUint64(blob[24:], uint64(1)<<61) // rows
	binary.LittleEndian.PutUint32(blob[32:], 0)             // payload
	done := make(chan error, 1)
	go func() {
		_, err := UnmarshalSummary(blob)
		done <- err
	}()
	select {
	case err := <-done:
		typedDecodeErr(t, "2^61-row exact blob", err)
	case <-time.After(5 * time.Second):
		t.Fatal("decoder looped on an overflowing row count")
	}
}

func TestConstructionLimitsMatchDecoder(t *testing.T) {
	// Oversized configurations are refused at construction with the
	// usual ParamError, so everything a constructor accepts decodes.
	if _, err := NewNet(4, 2, NetConfig{Alpha: 0.3, StableReps: maxStableReps + 1, Moments: []float64{2}, Seed: 1}); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("oversized StableReps: %v", err)
	}
	if _, err := NewNet(4, 2, NetConfig{Alpha: 0.3, Epsilon: 0.0001, Moments: []float64{2}, Seed: 1}); !errors.Is(err, ErrInvalidParam) {
		t.Fatalf("epsilon implying oversized reps: %v", err)
	}
	// A large-but-legal repetition count round-trips.
	nt, err := NewNet(4, 2, NetConfig{Alpha: 0.3, Epsilon: 0.3, Moments: []float64{2}, StableReps: 60003, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nt.Observe(words.Word{0, 1, 0, 1})
	blob, err := MarshalSummary(nt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSummary(blob); err != nil {
		t.Fatalf("legal net failed to round-trip: %v", err)
	}
}

// TestWideShapesRefusedAtConstruction: Registered's wire form stores
// its column set as a 64-bit mask, so d > 64 is refused by the
// constructor and, through it, by the decoder.
func TestWideShapesRefusedAtConstruction(t *testing.T) {
	if _, err := NewRegistered(70, 2, words.MustColumnSet(70, 0, 1), RegisteredConfig{}); !errors.Is(err, ErrInvalidParam) {
		t.Errorf("NewRegistered d=70: %v", err)
	}
}

func TestDecodeRejectsInnerSketchContradictingConfig(t *testing.T) {
	// A blob whose envelope config is intact but whose inner sketch
	// header diverges (here: the sketch's own seed) must fail decoding
	// — this is what makes engine.Absorb atomic: a decodable summary
	// can never half-fail a merge into a same-config peer.
	const seed = 0xDEADBEEFCAFE
	reg, err := NewRegistered(4, 2, words.MustColumnSet(4, 0, 1), RegisteredConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	reg.Observe(words.Word{0, 1, 0, 1})
	blob, err := MarshalSummary(reg)
	if err != nil {
		t.Fatal(err)
	}
	// Registered seeds its KMV with cfg.Seed itself; flip
	// its first byte inside the payload (the envelope's copy at offset
	// 16 stays intact).
	var seedLE [8]byte
	binary.LittleEndian.PutUint64(seedLE[:], seed)
	idx := bytes.Index(blob[envelopeSize:], seedLE[:])
	if idx < 0 {
		t.Fatal("sketch seed not found in payload")
	}
	mut := append([]byte{}, blob...)
	mut[envelopeSize+idx] ^= 0xFF
	_, err = UnmarshalSummary(mut)
	typedDecodeErr(t, "contradicting inner sketch seed", err)
}

func TestUnmarshalNaNFloatsFailTyped(t *testing.T) {
	// NaN fails every comparison, so naive range checks (`x <= 0 ||
	// x >= 1`) admit it and the sketch constructors downstream panic;
	// the constructors use NaN-rejecting forms so these blobs fail
	// typed instead. Each case flips one payload float64 to NaN.
	nan := math.Float64bits(math.NaN())
	flip := func(blob []byte, payloadOff int) []byte {
		mut := append([]byte{}, blob...)
		binary.LittleEndian.PutUint64(mut[envelopeSize+payloadOff:], nan)
		return mut
	}
	sums := wireSummaries(t)
	for _, s := range sums {
		marshalStream(s.Dim(), s.Alphabet(), 100, 13, s)
	}
	netBlob, err := MarshalSummary(sums["net"])
	if err != nil {
		t.Fatal(err)
	}
	regBlob, err := MarshalSummary(sums["registered"])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		blob []byte
	}{
		{"net NaN alpha", flip(netBlob, 0)},
		{"net NaN epsilon", flip(netBlob, 8)},
		// The net payload is alpha(8) eps(8) kind(1) reps(4) count(4),
		// then the moment list: offset 25 is the first moment order.
		{"net NaN moment", flip(netBlob, 25)},
		// The registered payload starts with eps.
		{"registered NaN epsilon", flip(regBlob, 0)},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: decode panicked: %v", tc.name, r)
				}
			}()
			_, err := UnmarshalSummary(tc.blob)
			typedDecodeErr(t, tc.name, err)
		}()
	}
}

func TestUnmarshalResourceAttacksFailTypedAndFast(t *testing.T) {
	// Attack blobs whose *parameters* (not structure) demand huge
	// allocations must be refused before anything big is allocated:
	// the constructors bound accuracy parameters (validateEpsRetention,
	// KHLLValues, moment-count and repetition caps), and decodeNet
	// floors the payload by the sketch bytes a legal net must carry.
	sums := wireSummaries(t)
	for _, s := range sums {
		marshalStream(s.Dim(), s.Alphabet(), 60, 21, s)
	}
	mustBlob := func(name string) []byte {
		b, err := MarshalSummary(sums[name])
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte{}, b...)
	}

	// Denormal epsilon: 1/eps² overflows every int type.
	reg := mustBlob("registered")
	binary.LittleEndian.PutUint64(reg[envelopeSize:], math.Float64bits(1e-200))
	// Huge KHLL value-sample claim in a tiny blob.
	regK := mustBlob("registered")
	binary.LittleEndian.PutUint32(regK[envelopeSize+8:], ^uint32(0))
	// Net payload layout: alpha(8) eps(8) f0kind(1) reps(u32 @17)
	// moments(u32 @21). Claiming the maximum repetition count makes
	// the implied sketch bytes exceed the payload; claiming a flood of
	// moment orders trips the moment cap.
	netReps := mustBlob("net")
	binary.LittleEndian.PutUint32(netReps[envelopeSize+17:], 1<<21)
	netMoments := mustBlob("net")
	binary.LittleEndian.PutUint32(netMoments[envelopeSize+21:], 1<<21)
	cases := []struct {
		name string
		blob []byte
	}{
		{"registered denormal eps", reg},
		{"registered huge khllvalues", regK},
		{"net max reps without bytes", netReps},
		{"net moment flood", netMoments},
	}
	for _, tc := range cases {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("decode panicked: %v", r)
				}
			}()
			_, err := UnmarshalSummary(tc.blob)
			done <- err
		}()
		select {
		case err := <-done:
			typedDecodeErr(t, tc.name, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: decoder stalled (allocation not blob-bounded)", tc.name)
		}
	}
}

func TestDefaultStableRepsNetRoundTrips(t *testing.T) {
	// The decode-side payload floor must mirror NewNet's integer-
	// truncated default repetition count exactly: a fractional 6/eps²
	// would overestimate the floor and reject blobs built with the
	// library defaults (StableReps 0).
	for _, eps := range []float64{0.3, 0.17, 0.1, 0.07} {
		nt, err := NewNet(6, 3, NetConfig{Alpha: 0.3, Epsilon: eps, Moments: []float64{2}, Seed: 5})
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		nt.Observe(words.Word{0, 1, 0, 1, 2, 0})
		blob, err := MarshalSummary(nt)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if _, err := UnmarshalSummary(blob); err != nil {
			t.Fatalf("eps=%v: default-reps net failed to round-trip: %v", eps, err)
		}
	}
}

// retiredKindBlob hand-builds an envelope of kind byte 4, the retired
// subset-enumeration summary, over a payload shaped like its old
// codec's: t, ε and an empty sketch list.
func retiredKindBlob(t testing.TB, d, q int) []byte {
	t.Helper()
	w := &wire.Writer{}
	w.U32(2)
	w.F64(0.3)
	w.U32(0)
	blob, err := appendEnvelope(SummaryKind(4), d, q, 6, 50, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// retiredSampleModeBlob hand-builds a sample blob under a retired
// sampler mode, over a payload shaped like its old codec's. Mode 0 was
// the with-replacement layout before skip-ahead slots: t slots of
// 32-byte xoshiro state and no next acceptance position, then t rows.
// Mode 1 was the Algorithm-R reservoir: one 32-byte xoshiro state and
// a retained-row count, then the retained rows.
func retiredSampleModeBlob(t testing.TB, d, q int, mode byte) []byte {
	t.Helper()
	const slots, seen = 3, 1
	w := &wire.Writer{}
	w.U8(mode)
	w.U32(slots)
	w.I64(seen)
	states, rows := 4*slots, slots
	if mode == 1 {
		states, rows = 4, seen
	}
	for i := 0; i < states; i++ {
		w.U64(uint64(i + 1))
	}
	if mode == 1 {
		w.U32(seen)
	}
	for i := 0; i < rows; i++ {
		w.U32(uint32(d))
		for j := 0; j < d; j++ {
			w.U16(uint16(j % q))
		}
	}
	blob, err := AppendEnvelope(KindSample, d, q, 0, seen, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRetiredSampleModeRefused: sampler modes 0 and 1 decode to
// ErrBadEncoding naming the retired mode, and the with-replacement
// sampler encodes under mode 3.
func TestRetiredSampleModeRefused(t *testing.T) {
	for _, mode := range []byte{0, 1} {
		_, err := UnmarshalSummary(retiredSampleModeBlob(t, 5, 3, mode))
		if want := fmt.Sprintf("retired sampler mode %d", mode); !errors.Is(err, ErrBadEncoding) || !strings.Contains(err.Error(), want) {
			t.Fatalf("mode-%d blob: %v, want ErrBadEncoding naming %q", mode, err, want)
		}
	}
	s, err := NewSample(5, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalSummary(s)
	if err != nil {
		t.Fatal(err)
	}
	if blob[envelopeSize] != wireSampleWR {
		t.Fatalf("%s encodes under sampler mode %d, want %d", s.Name(), blob[envelopeSize], wireSampleWR)
	}
}

// TestRetiredKindIsReserved: kind byte 4 decodes to ErrBadEncoding
// naming the retired kind, encoding under it is refused, and the kinds
// around it keep their numbers.
func TestRetiredKindIsReserved(t *testing.T) {
	_, err := UnmarshalSummary(retiredKindBlob(t, 5, 3))
	if !errors.Is(err, ErrBadEncoding) || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("kind-4 blob: %v, want ErrBadEncoding naming the retired kind", err)
	}
	if _, err := AppendEnvelope(SummaryKind(4), 5, 3, 0, 0, nil); err == nil {
		t.Fatal("AppendEnvelope accepted the retired kind")
	}
	if KindExact != 1 || KindSample != 2 || KindNet != 3 || KindRegistered != 5 {
		t.Fatalf("wire kinds renumbered: %d %d %d %d", KindExact, KindSample, KindNet, KindRegistered)
	}
}

// netReservedOffset is the payload offset of a net blob's reserved
// byte: it follows α and ε and once named the F0 sketch kind.
const netReservedOffset = envelopeSize + 16

// reservedNetByteBlob marshals a small net and sets its reserved byte
// to b.
func reservedNetByteBlob(t testing.TB, d, q int, b byte) []byte {
	t.Helper()
	s, err := NewNet(d, q, NetConfig{Alpha: 0.3, Epsilon: 0.3, Moments: []float64{2}, StableReps: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalSummary(s)
	if err != nil {
		t.Fatal(err)
	}
	if blob[netReservedOffset] != 0 {
		t.Fatalf("net encodes reserved byte %d, want 0", blob[netReservedOffset])
	}
	blob[netReservedOffset] = b
	return blob
}

// TestNetRefusesReservedF0Byte: a net blob whose reserved byte (the
// retired F0 sketch kind; 0 was KMV) is not 0 decodes to
// ErrBadEncoding naming the byte, and 0 decodes.
func TestNetRefusesReservedF0Byte(t *testing.T) {
	if _, err := UnmarshalSummary(reservedNetByteBlob(t, 5, 3, 0)); err != nil {
		t.Fatalf("reserved byte 0: %v", err)
	}
	for _, b := range []byte{1, 2, 255} {
		_, err := UnmarshalSummary(reservedNetByteBlob(t, 5, 3, b))
		if !errors.Is(err, ErrBadEncoding) || !strings.Contains(err.Error(), fmt.Sprintf("reserved byte is %d", b)) {
			t.Fatalf("reserved byte %d: %v, want ErrBadEncoding naming the byte", b, err)
		}
	}
}
