package words

import "encoding/binary"

// This file is the flat symbol codec: rows as one run of
// little-endian u16 symbols, two bytes a symbol and no framing. It is
// the row key the cluster ring places rows by, and the body of three
// layouts earlier encoders wrote, which decoders still read: the WAL's
// kind-1 batch record, the exact summary's layout-0 payload and the
// sampler's mode-2 rows. Where rows rest now they are packed
// (packed.go). Both directions move 8 bytes (4 symbols) a step, and
// the decoder checks the alphabet in the same pass.
//
// The check is SWAR (SIMD within a register) for q ≤ 2¹⁵. With
// k = 0x8000 − q in every 16-bit lane, a lane x ends with its high
// bit set in x | (x + k) exactly when x ≥ q: x ≥ 0x8000 sets it in x,
// and a smaller x carries into it in x + k iff x + 0x8000 − q ≥
// 0x8000. A carry out of a lane happens only when that lane is out of
// the alphabet, so it can only add a flag next to one that is already
// set. The flags of a whole run are OR-ed together, and only a set
// flag pays for a symbol-by-symbol rescan to find the first bad one.
// Larger alphabets flag every symbol ≥ 2¹⁵ and compare those in the
// rescan.

const (
	// laneOnes holds 1 in each of the four 16-bit lanes of a word.
	laneOnes = 0x0001_0001_0001_0001
	// laneHigh holds each lane's high bit, where the SWAR test flags.
	laneHigh = 0x8000_8000_8000_8000
	// swarMaxAlphabet is the largest q the SWAR test covers.
	swarMaxAlphabet = 1 << 15
)

// LaneCheck is the SWAR test above for one alphabet [q], applied a
// word of four 16-bit lanes at a time. Callers outside this file that
// hold symbols as lanes (the /v1/observe row scanner) test them with
// it rather than with a copy of its constants.
type LaneCheck struct{ k uint64 }

// NewLaneCheck returns the lane test for the alphabet [q].
func NewLaneCheck(q int) LaneCheck { return LaneCheck{swarAddend(q)} }

// Flags returns v's lane flags, OR-able across words. For q ≤ 2¹⁵
// they are zero exactly when every lane of v lies in [q]; for larger q
// a flag means only "some lane is ≥ 2¹⁵", and a rescan must compare.
func (c LaneCheck) Flags(v uint64) uint64 { return (v | (v + c.k)) & laneHigh }

// AppendSymbolsLE appends syms to dst as little-endian u16s and
// returns the extended slice.
func AppendSymbolsLE(dst []byte, syms []uint16) []byte {
	i := 0
	for ; i+4 <= len(syms); i += 4 {
		w := syms[i : i+4 : i+4]
		dst = binary.LittleEndian.AppendUint64(dst, uint64(w[0])|uint64(w[1])<<16|uint64(w[2])<<32|uint64(w[3])<<48)
	}
	for _, x := range syms[i:] {
		dst = binary.LittleEndian.AppendUint16(dst, x)
	}
	return dst
}

// DecodeSymbolsLE fills dst with the first len(dst) little-endian u16
// symbols of src and checks them against the alphabet [q] in the same
// pass. It returns the index of the first symbol outside [q], or -1 if
// there is none; dst is filled either way. A q of MaxAlphabet or more
// admits every symbol. It panics if src is shorter than 2·len(dst).
func DecodeSymbolsLE(dst []uint16, src []byte, q int) int {
	src = src[:2*len(dst)]
	lanes := NewLaneCheck(q)
	var flags uint64
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		v := binary.LittleEndian.Uint64(src[2*i:])
		flags |= lanes.Flags(v)
		w := dst[i : i+4 : i+4]
		w[0], w[1], w[2], w[3] = uint16(v), uint16(v>>16), uint16(v>>32), uint16(v>>48)
	}
	for ; i < len(dst); i++ {
		v := uint64(binary.LittleEndian.Uint16(src[2*i:]))
		flags |= lanes.Flags(v)
		dst[i] = uint16(v)
	}
	if flags == 0 {
		return -1
	}
	return firstOutside(dst, q)
}

// symbolsOutside returns the index of the first symbol of syms outside
// [q], or -1: the decoder's check for symbols already in memory, four
// lanes a step.
func symbolsOutside(syms []uint16, q int) int {
	lanes := NewLaneCheck(q)
	var flags uint64
	i := 0
	for ; i+4 <= len(syms); i += 4 {
		w := syms[i : i+4 : i+4]
		flags |= lanes.Flags(uint64(w[0]) | uint64(w[1])<<16 | uint64(w[2])<<32 | uint64(w[3])<<48)
	}
	for _, x := range syms[i:] {
		flags |= lanes.Flags(uint64(x))
	}
	if flags == 0 {
		return -1
	}
	return firstOutside(syms, q)
}

// swarAddend returns the SWAR test's k for alphabet [q]. Above 2¹⁵ it
// is 0, so a flag means only "≥ 2¹⁵" and the rescan compares each
// symbol with q; at q ≤ 0, where every symbol is outside, it is
// 0x8000 in each lane, which flags any symbol.
func swarAddend(q int) uint64 {
	if q > swarMaxAlphabet {
		return 0
	}
	return uint64(swarMaxAlphabet-max(q, 0)) * laneOnes
}

// firstOutside is the symbol-by-symbol reference: the index of the
// first symbol of syms outside [q], or -1.
func firstOutside(syms []uint16, q int) int {
	if q >= MaxAlphabet {
		return -1
	}
	for i, x := range syms {
		if int(x) >= q {
			return i
		}
	}
	return -1
}
