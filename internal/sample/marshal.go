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
// These are payload bodies: framing (magic, version, kind) and the row
// shape live one layer up in the core summary envelope, so a decoder
// is handed the row layout.
//
//	WithReplacement: u32 t | i64 seen | t×(u64 splitmix | u64 next) | t·s row bytes
//
// The row bytes are the slab: slot i's row in words.Packing's layout
// at [i·s, (i+1)·s). Every slot holds a row once one is seen, and none
// before, so a sampler that has seen no row writes no row bytes.
// Earlier encoders wrote t rows of u32 len (0xFFFFFFFF = absent) |
// len×u16 symbols instead; DecodeU16 still reads them.
//
// Each slot's generator state and next acceptance position travel
// with the rows so a decoded sampler continues its stream — and in
// particular merges — exactly as the original would have.
const nilRow = ^uint32(0)

// MarshalBinary encodes the sampler's full state: each slot's
// generator state and next acceptance position, then the slab, so a
// decoded sampler resumes the exact random stream of the original.
func (s *WithReplacement) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(12 + 16*s.t + len(s.rows))
	w.U32(uint32(s.t))
	w.I64(s.seen)
	for i := range s.slots {
		w.U64(s.slots[i].src.State())
		w.U64(s.slots[i].next)
	}
	w.Raw(s.rows)
	return w.Bytes(), nil
}

// Decode decodes a sampler of rows in pk's layout produced by
// MarshalBinary. The blob must hold exactly the row bytes its slot
// count and row count call for, and every row must be one pk admits:
// padding bits zero, symbols in the alphabet.
func Decode(pk words.Packing, data []byte) (*WithReplacement, error) {
	r := wire.NewReader(data, ErrCorrupt)
	s, err := decodeSlots(r, pk, pk.Stride(), 0)
	if err != nil {
		return nil, err
	}
	rows := r.Rest()
	if len(rows) != len(s.rows) {
		return nil, fmt.Errorf("%w: %d row bytes for %d slots after %d rows", ErrCorrupt, len(rows), s.t, s.seen)
	}
	if err := pk.Verify(rows); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	copy(s.rows, rows)
	return s, nil
}

// DecodeU16 decodes the layout earlier encoders wrote, whose rows are
// u16 symbols behind a length, and packs the rows into pk's layout.
// Every row must have pk's dimension and symbols in its alphabet.
func DecodeU16(pk words.Packing, data []byte) (*WithReplacement, error) {
	r := wire.NewReader(data, ErrCorrupt)
	d := pk.Dim()
	s, err := decodeSlots(r, pk, 4+2*d, 4)
	if err != nil {
		return nil, err
	}
	row := make([]uint16, d)
	for i := range s.t {
		n := r.U32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if (n == nilRow) != (s.seen == 0) {
			return nil, fmt.Errorf("%w: slot %d row presence after %d rows", ErrCorrupt, i, s.seen)
		}
		if n == nilRow {
			continue
		}
		if int(n) != d {
			return nil, fmt.Errorf("%w: slot %d row has %d symbols, dimension is %d", ErrCorrupt, i, n, d)
		}
		if !r.Symbols(row) {
			return nil, r.Err()
		}
		if j := pk.Pack(s.slot(i), row); j >= 0 {
			return nil, fmt.Errorf("%w: slot %d symbol %d outside the alphabet", ErrCorrupt, i, row[j])
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeSlots reads the header and the slots' stream state, and
// returns a sampler whose slab, once a row was seen, is zeroed. A slot
// takes 16 bytes of stream state and then rowBytes of row once a row
// was seen, emptyBytes before, and the slot count is checked against
// the remaining input at that rate before anything is allocated. Every
// slot must be one a sampler can reach: its next acceptance lies past
// the rows seen, at row 1 before any.
func decodeSlots(r *wire.Reader, pk words.Packing, rowBytes, emptyBytes int) (*WithReplacement, error) {
	t := int(r.U32())
	seen := r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	perSlot := rowBytes
	if seen == 0 {
		perSlot = emptyBytes
	}
	if t < 1 || seen < 0 || int64(16+perSlot)*int64(t) > int64(r.Remaining()) {
		return nil, fmt.Errorf("%w: with-replacement header t=%d seen=%d", ErrCorrupt, t, seen)
	}
	s := &WithReplacement{
		t:       t,
		seen:    seen,
		pk:      pk,
		slots:   make([]slot, t),
		minNext: math.MaxUint64,
	}
	if seen > 0 {
		s.rows = make([]byte, t*pk.Stride())
	}
	for i := range s.slots {
		sl := &s.slots[i]
		sl.src = *rng.NewSplitMix64(r.U64())
		sl.next = r.U64()
		if sl.next <= uint64(seen) || seen == 0 && sl.next != 1 {
			return nil, fmt.Errorf("%w: slot %d next acceptance %d after %d rows", ErrCorrupt, i, sl.next, seen)
		}
		s.minNext = min(s.minNext, sl.next)
	}
	return s, nil
}
