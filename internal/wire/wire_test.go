package wire

import (
	"errors"
	"math"
	"testing"
)

var errSentinel = errors.New("test: corrupt")

func TestRoundTripAllWidths(t *testing.T) {
	w := NewWriter(64)
	w.U8(0xab)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.F64(3.25)
	w.Raw([]byte{1, 2, 3})
	w.Block([]byte("block"))
	w.Block(nil) // zero-length block: a u32 prefix of 0, no payload

	r := NewReader(w.Bytes(), errSentinel)
	if got := r.U8(); got != 0xab {
		t.Fatalf("U8 %x", got)
	}
	if got := r.U16(); got != 0xbeef {
		t.Fatalf("U16 %x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 %x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Fatalf("U64 %x", got)
	}
	if got := r.I64(); got != -42 {
		t.Fatalf("I64 %d", got)
	}
	if got := r.F64(); got != 3.25 {
		t.Fatalf("F64 %v", got)
	}
	if got := r.U8(); got != 1 {
		t.Fatalf("raw byte %d", got)
	}
	r.U8()
	r.U8()
	if got := r.Block(); string(got) != "block" {
		t.Fatalf("Block %q", got)
	}
	if got := r.Block(); len(got) != 0 {
		t.Fatalf("empty Block has %d bytes", len(got))
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestNaNSafeF64RoundTrip(t *testing.T) {
	// The codec must move bit patterns, not float values: NaN != NaN,
	// and sketch state legitimately carries NaN payload bits after
	// corruption probes. Round-trip a quiet NaN with a custom payload
	// and check the exact bits survive.
	patterns := []uint64{
		math.Float64bits(math.NaN()),
		0x7ff8000000000dad,                     // quiet NaN, nonzero payload
		0xfff0000000000000,                     // -Inf
		math.Float64bits(math.Copysign(0, -1)), // -0.0
	}
	for _, bits := range patterns {
		w := &Writer{}
		w.F64(math.Float64frombits(bits))
		r := NewReader(w.Bytes(), errSentinel)
		if got := math.Float64bits(r.F64()); got != bits {
			t.Fatalf("bits %#x round-tripped to %#x", bits, got)
		}
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTruncationLatches(t *testing.T) {
	w := &Writer{}
	w.U32(7)
	data := w.Bytes()
	r := NewReader(data, errSentinel)
	if got := r.U32(); got != 7 {
		t.Fatalf("U32 %d", got)
	}
	// The next read runs off the end: it must return zero, latch an
	// error wrapping the sentinel, and keep returning zero afterwards
	// (decoders parse whole headers and check Err once).
	if got := r.U64(); got != 0 {
		t.Fatalf("truncated U64 returned %d", got)
	}
	if err := r.Err(); !errors.Is(err, errSentinel) {
		t.Fatalf("latched error %v does not wrap the sentinel", err)
	}
	if got := r.U8(); got != 0 {
		t.Fatalf("post-error U8 returned %d", got)
	}
	if got := r.Block(); got != nil {
		t.Fatalf("post-error Block returned %d bytes", len(got))
	}
	if got := r.Rest(); got != nil {
		t.Fatalf("post-error Rest returned %d bytes", len(got))
	}
	if err := r.Done(); !errors.Is(err, errSentinel) {
		t.Fatalf("Done after error: %v", err)
	}
}

func TestBlockLengthOverflowAndTruncation(t *testing.T) {
	// A block whose u32 length claims more than the remaining payload
	// must fail without allocating the claimed size — including the
	// maximum claim, which would overflow naive offset arithmetic.
	for _, claim := range []uint32{6, 1 << 20, math.MaxUint32} {
		w := &Writer{}
		w.U32(claim)
		w.Raw([]byte("tiny"))
		r := NewReader(w.Bytes(), errSentinel)
		if got := r.Block(); got != nil {
			t.Fatalf("claim %d: Block returned %d bytes", claim, len(got))
		}
		if err := r.Err(); !errors.Is(err, errSentinel) {
			t.Fatalf("claim %d: %v", claim, err)
		}
	}
	// A block truncated mid-prefix fails the same way.
	r := NewReader([]byte{1, 0}, errSentinel)
	if got := r.Block(); got != nil || !errors.Is(r.Err(), errSentinel) {
		t.Fatalf("short prefix: %v, %v", got, r.Err())
	}
}

func TestBlockAliasesInput(t *testing.T) {
	w := &Writer{}
	w.Block([]byte{1, 2, 3})
	data := w.Bytes()
	r := NewReader(data, errSentinel)
	b := r.Block()
	data[4] = 9 // first payload byte
	if b[0] != 9 {
		t.Fatal("Block must alias the input, not copy it")
	}
}

func TestEnsureAndRemaining(t *testing.T) {
	r := NewReader([]byte{1, 2, 3}, errSentinel)
	if !r.Ensure(3) || r.Err() != nil {
		t.Fatal("Ensure within bounds must pass without consuming")
	}
	if r.Remaining() != 3 {
		t.Fatalf("Ensure consumed input: %d remaining", r.Remaining())
	}
	if r.Ensure(-1) {
		t.Fatal("negative Ensure must fail")
	}
	if !errors.Is(r.Err(), errSentinel) {
		t.Fatal("negative Ensure must latch")
	}
	r2 := NewReader([]byte{1, 2, 3}, errSentinel)
	if r2.Ensure(4) {
		t.Fatal("oversized Ensure must fail")
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2}, errSentinel)
	r.U8()
	if err := r.Done(); !errors.Is(err, errSentinel) {
		t.Fatalf("trailing byte: %v", err)
	}
	r2 := NewReader([]byte{1, 2}, errSentinel)
	if rest := r2.Rest(); len(rest) != 2 {
		t.Fatalf("Rest returned %d bytes", len(rest))
	}
	if r2.Remaining() != 0 {
		t.Fatalf("Rest left %d bytes", r2.Remaining())
	}
	if err := r2.Done(); err != nil {
		t.Fatalf("Done after Rest: %v", err)
	}
}

func TestWriterZeroValueAndCapacity(t *testing.T) {
	var w Writer // zero value is ready to use
	w.U8(1)
	if len(w.Bytes()) != 1 {
		t.Fatal("zero-value Writer broken")
	}
	wc := NewWriter(128)
	wc.Raw(make([]byte, 100))
	if cap(wc.buf) < 128 {
		t.Fatalf("preallocated capacity %d < 128", cap(wc.buf))
	}
	if len(wc.Bytes()) != 100 {
		t.Fatalf("wrote %d bytes", len(wc.Bytes()))
	}
}

// TestSymbolsMatchU16s: Symbols writes and reads the bytes of one U16
// per symbol, at lengths on both sides of the codec's four-symbol
// step, and a short input latches truncation without reading.
func TestSymbolsMatchU16s(t *testing.T) {
	for n := range 10 {
		syms := make([]uint16, n)
		for i := range syms {
			syms[i] = uint16(0x9e37*i + 1)
		}
		var want, got Writer
		for _, x := range syms {
			want.U16(x)
		}
		got.Symbols(syms)
		if string(got.Bytes()) != string(want.Bytes()) {
			t.Fatalf("n=%d: Symbols wrote %x, U16s %x", n, got.Bytes(), want.Bytes())
		}
		r := NewReader(append(got.Bytes(), 0xff), errSentinel)
		back := make([]uint16, n)
		if !r.Symbols(back) || r.Remaining() != 1 {
			t.Fatalf("n=%d: read failed or left %d bytes: %v", n, r.Remaining(), r.Err())
		}
		for i := range syms {
			if back[i] != syms[i] {
				t.Fatalf("n=%d: read %v, wrote %v", n, back, syms)
			}
		}
	}
	r := NewReader([]byte{1, 2, 3}, errSentinel)
	if r.Symbols(make([]uint16, 2)) || !errors.Is(r.Err(), errSentinel) || r.Remaining() != 3 {
		t.Fatalf("short input: %v, %d bytes left", r.Err(), r.Remaining())
	}
}
