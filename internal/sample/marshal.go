package sample

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/wire"
	"repro/internal/words"
)

// ErrCorrupt is returned when deserializing a malformed sampler blob.
var ErrCorrupt = errors.New("sample: corrupt serialized sampler")

// Serialized sampler layouts (little-endian, via internal/wire).
// These are payload bodies: framing (magic, version, kind) lives one
// layer up in the core summary envelope.
//
//	WithReplacement: u32 t | i64 seen | t×(u64 splitmix | u64 next) | t×row
//	row:             u32 len (0xFFFFFFFF = absent) | len×u16 symbols
//
// A row's symbols are the flat symbol codec (words.AppendSymbolsLE),
// written and read through wire.Writer.Symbols and Reader.Symbols.
//
// Each slot's generator state and next acceptance position travel
// with the rows so a decoded sampler continues its stream — and in
// particular merges — exactly as the original would have.
const nilRow = ^uint32(0)

func writeRow(w *wire.Writer, row words.Word) {
	if row == nil {
		w.U32(nilRow)
		return
	}
	w.U32(uint32(len(row)))
	w.Symbols(row)
}

func readRow(r *wire.Reader) words.Word {
	n := r.U32()
	if r.Err() != nil || n == nilRow {
		return nil
	}
	if !r.Ensure(2 * int(n)) {
		return nil
	}
	row := make(words.Word, n)
	r.Symbols(row)
	return row
}

// MarshalBinary encodes the sampler's full state: slot rows plus each
// slot's generator state and next acceptance position, so a decoded
// sampler resumes the exact random stream of the original.
func (s *WithReplacement) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(12 + 20*s.t)
	w.U32(uint32(s.t))
	w.I64(s.seen)
	for i := range s.slots {
		w.U64(s.slots[i].src.State())
		w.U64(s.slots[i].next)
	}
	for _, row := range s.rows {
		writeRow(w, row)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a sampler produced by MarshalBinary,
// replacing the receiver's state. Allocation is bounded by the slot
// count, which is validated against the remaining input. Every slot
// must be one a sampler can reach: its next acceptance lies past the
// rows seen (at row 1 before any), and it holds a row iff a row was
// seen.
func (s *WithReplacement) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, ErrCorrupt)
	t := int(r.U32())
	seen := r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	// Each slot carries 16 bytes of generator state and next position
	// plus a 4-byte row prefix, so the slot count is bounded by the
	// blob before anything is allocated.
	if t < 1 || seen < 0 || 20*t > r.Remaining() {
		return fmt.Errorf("%w: with-replacement header t=%d seen=%d", ErrCorrupt, t, seen)
	}
	tmp := &WithReplacement{
		t:       t,
		seen:    seen,
		rows:    make([]words.Word, t),
		slots:   make([]slot, t),
		minNext: math.MaxUint64,
	}
	for i := range tmp.slots {
		sl := &tmp.slots[i]
		sl.src = *rng.NewSplitMix64(r.U64())
		sl.next = r.U64()
		if r.Err() == nil && (sl.next <= uint64(seen) || seen == 0 && sl.next != 1) {
			return fmt.Errorf("%w: slot %d next acceptance %d after %d rows", ErrCorrupt, i, sl.next, seen)
		}
		tmp.minNext = min(tmp.minNext, sl.next)
	}
	for i := range tmp.rows {
		tmp.rows[i] = readRow(r)
		if r.Err() == nil && (tmp.rows[i] == nil) != (seen == 0) {
			return fmt.Errorf("%w: slot %d row presence after %d rows", ErrCorrupt, i, seen)
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	*s = *tmp
	return nil
}
