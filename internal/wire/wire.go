// Package wire provides the little-endian, fixed-width,
// bounds-checked buffer primitives every binary codec in the module
// shares: the sketch encodings, the sampler encodings, and the
// summary envelope (specified in ARCHITECTURE.md). Centralizing them
// means a hardening fix lands everywhere at once.
//
// A Reader is parameterized by the owning package's corruption
// sentinel, so truncation errors surface in each layer's own error
// taxonomy (sketch.ErrCorrupt, sample.ErrCorrupt, core.ErrBadEncoding).
//
// The package also holds the codec of the one JSON payload on the
// ingest path, the /v1/observe request body (observe.go).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/words"
)

// Writer accumulates a little-endian, fixed-width binary encoding.
// The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given capacity pre-allocated.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a 16-bit value.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a 32-bit value.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a 64-bit value.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a signed 64-bit value (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends an IEEE-754 binary64 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Raw appends b verbatim.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Block appends b with a u32 length prefix.
func (w *Writer) Block(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// Reader consumes an encoding produced by Writer. The first
// out-of-bounds read latches an error wrapping the sentinel; every
// later read returns zero, so decoders can parse a whole header and
// check Err once.
type Reader struct {
	data     []byte
	off      int
	err      error
	sentinel error
}

// NewReader returns a Reader over data whose truncation and
// trailing-byte errors wrap sentinel.
func NewReader(data []byte, sentinel error) *Reader {
	return &Reader{data: data, sentinel: sentinel}
}

// Ensure reports whether n more bytes are available, latching a
// truncation error otherwise. Decoders use it to validate claimed
// element counts against the remaining payload before allocating.
func (r *Reader) Ensure(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || n > len(r.data)-r.off {
		r.err = fmt.Errorf("%w: truncated input", r.sentinel)
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.Ensure(1) {
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

// U16 reads a 16-bit value.
func (r *Reader) U16() uint16 {
	if !r.Ensure(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v
}

// U32 reads a 32-bit value.
func (r *Reader) U32() uint32 {
	if !r.Ensure(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

// U64 reads a 64-bit value.
func (r *Reader) U64() uint64 {
	if !r.Ensure(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 binary64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Symbols fills dst with the next len(dst) symbols of the flat symbol
// codec (words.DecodeSymbolsLE), checking no alphabet. It reports
// false, with a truncation error latched, if the input is short.
func (r *Reader) Symbols(dst []uint16) bool {
	if !r.Ensure(2 * len(dst)) {
		return false
	}
	words.DecodeSymbolsLE(dst, r.data[r.off:], words.MaxAlphabet)
	r.off += 2 * len(dst)
	return true
}

// Block reads a u32-length-prefixed block, aliasing the input.
func (r *Reader) Block() []byte {
	n := int(r.U32())
	if !r.Ensure(n) {
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Rest consumes and returns every remaining byte, aliasing the input.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.data[r.off:]
	r.off = len(r.data)
	return b
}

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Err returns the latched read error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the latched error, or a trailing-bytes error when the
// input was not fully consumed.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", r.sentinel, len(r.data)-r.off)
	}
	return nil
}
