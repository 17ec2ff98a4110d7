package words

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// This file is the packed row codec: Section 3.1's retained input at
// n·d·⌈log₂q⌉ bits. A row of d symbols over [q] takes b = bits.Len(q−1)
// bits a symbol, symbol j at bit offset j·b, little-endian, and is
// padded with zero bits to a whole number of bytes, its stride
// s = ⌈d·b/8⌉ (4 bytes at d = 16, q = 4). Rows are byte-aligned, so no
// two rows share a byte: a writer appending rows never touches a byte
// of the rows before them, which is what lets core.Exact hand a run to
// readers and keep appending to it.
//
// Packed rows are how rows travel past an engine's ingest door and how
// they rest: the door packs each u16 batch once (PackedBatch.Pack,
// which checks the alphabet), and from there the chunk arenas, every
// summary's ingest (core.PackedObserver), core.Exact's runs, the
// sampler's slots and the WAL's batch records hold this layout; WAL
// replay hands a verified record body to the shards as it lies in the
// segment. Symbols are u16 only where rows arrive (the JSON decoder,
// the public Go API, the u16 ObserveBatch each summary keeps as its
// public entry, which packs and then ingests packed) and in projection
// keys: AppendKeys emits exactly the keys AppendBatchKeys emits for
// the unpacked rows, so everything keyed on them is unchanged. Every
// reader stays inside the slice it is given: a run shared with a
// writer may grow past its length, and under the race detector even a
// masked-off byte beyond it counts as a read.

// Packing is the packed row layout of one shape (d, q).
type Packing struct {
	d, q   int
	b      int    // bits a symbol
	stride int    // bytes a row
	mask   uint64 // the low b bits
}

// NewPacking returns the packed layout of d-column rows over [q]. It
// panics unless d ≥ 1 and 2 ≤ q ≤ MaxAlphabet.
func NewPacking(d, q int) Packing {
	if d < 1 || q < 2 || q > MaxAlphabet {
		panic(fmt.Sprintf("words: no packed layout for %d columns over [%d]", d, q))
	}
	b := bits.Len(uint(q - 1))
	return Packing{d: d, q: q, b: b, stride: (d*b + 7) / 8, mask: 1<<b - 1}
}

// Dim returns the symbols a row holds, d.
func (p Packing) Dim() int { return p.d }

// Alphabet returns the alphabet size q.
func (p Packing) Alphabet() int { return p.q }

// Stride returns the bytes a packed row takes.
func (p Packing) Stride() int { return p.stride }

// narrow reports whether a whole row fits one 64-bit word.
func (p Packing) narrow() bool { return p.d*p.b <= 64 }

// Pack writes the rows of syms (row-major, d symbols a row) packed into
// dst, which must hold exactly Stride() bytes a row, padding bits
// included. It checks every symbol against [q] in the same pass, with
// LaneCheck, and returns the index in syms of the first one outside,
// or -1; when there is one, dst holds garbage.
func (p Packing) Pack(dst []byte, syms []uint16) int {
	n := len(syms) / p.d
	if len(syms) != n*p.d || len(dst) != n*p.stride {
		panic(fmt.Sprintf("words: %d symbols do not pack into %d bytes of %d-column rows", len(syms), len(dst), p.d))
	}
	lanes := NewLaneCheck(p.q)
	var flags uint64
	if p.narrow() {
		flags = packNarrow(dst, syms, p.d, p.stride, uint(p.b), lanes.k)
	} else {
		b := uint(p.b)
		o := 0
		for r := 0; r < n; r++ {
			var acc uint64
			nb := uint(0)
			for _, x := range syms[r*p.d : (r+1)*p.d] {
				flags |= lanes.Flags(uint64(x))
				acc |= uint64(x) << nb
				if nb += b; nb >= 32 {
					binary.LittleEndian.PutUint32(dst[o:], uint32(acc))
					o, acc, nb = o+4, acc>>32, nb-32
				}
			}
			for ; nb > 0; nb -= min(nb, 8) {
				dst[o] = byte(acc)
				o, acc = o+1, acc>>8
			}
		}
	}
	if flags == 0 {
		return -1
	}
	return firstOutside(syms, p.q)
}

// packNarrow is Pack for rows of at most 64 bits: each row is built in
// one word, four symbols at a time, and stored whole. It returns the
// lane flags of LaneCheck{k}, OR-ed over every symbol. Fields are
// moved into place by multiplying, not by variable shifts: a lane
// below 2^b times 2^s is the lane shifted by s, and lanes that do not
// overlap add without carries.
func packNarrow(dst []byte, syms []uint16, d, stride int, b uint, k uint64) uint64 {
	// For b ≤ 4, x·spread moves lane i of x (bit 16i) to bit 48 + i·b
	// and leaves every other product of lanes either below bit 48,
	// without overlaps, or beyond bit 63: (x·spread) >> 48 is the four
	// fields. Wider lanes are multiplied into place one by one.
	var spread uint64
	if b <= 4 {
		for i := range uint(4) {
			spread |= 1 << (48 - i*(16-b))
		}
	}
	field, group := uint64(1)<<b, uint64(1)<<(4*b) // 1<<64 is 0
	var flags uint64
	if d%4 == 0 && spread != 0 {
		// The common shape, in one flat pass over groups of four
		// symbols: at d = 16, q = 4 it packs a 4,096-row batch in about
		// half the row loop's time (~52 against ~110 µs).
		var v uint64
		at, off, left := uint64(1), 0, d/4
		for len(syms) >= 4 {
			w := syms[:4:4]
			syms = syms[4:]
			x := uint64(w[0]) | uint64(w[1])<<16 | uint64(w[2])<<32 | uint64(w[3])<<48
			flags |= x | (x + k)
			v += x * spread >> 48 * at
			at *= group
			if left--; left == 0 {
				storeRow(dst, off, stride, v)
				v, at, off, left = 0, 1, off+stride, d/4
			}
		}
		return flags & laneHigh
	}
	for off := 0; len(syms) >= d; off += stride {
		row := syms[:d:d]
		syms = syms[d:]
		var v uint64
		at := uint64(1)
		j := 0
		for ; j+4 <= len(row); j += 4 {
			w := row[j : j+4 : j+4]
			x := uint64(w[0]) | uint64(w[1])<<16 | uint64(w[2])<<32 | uint64(w[3])<<48
			flags |= x | (x + k)
			var g uint64
			if spread != 0 {
				g = x * spread >> 48
			} else {
				g = x&0xffff + (x>>16&0xffff)*field + (x>>32&0xffff)*field*field + (x>>48)*field*field*field
			}
			v += g * at
			at *= group
		}
		for _, x := range row[j:] {
			flags |= uint64(x) | (uint64(x) + k)
			v += uint64(x) * at
			at *= field
		}
		storeRow(dst, off, stride, v)
	}
	return flags & laneHigh
}

// storeRow writes the s low bytes of v at dst[off:]. A full 8-byte
// store spills into the rows after this one, which are written later.
func storeRow(dst []byte, off, s int, v uint64) {
	if off+8 <= len(dst) {
		binary.LittleEndian.PutUint64(dst[off:], v)
		return
	}
	for i := range s {
		dst[off+i] = byte(v >> (8 * i))
	}
}

// loadRow reads the row of s ≤ 8 bytes at rows[off:] as the low bytes
// of a word. The bits above the row may hold the next rows' bits.
func loadRow(rows []byte, off, s int) uint64 {
	if off+8 <= len(rows) {
		return binary.LittleEndian.Uint64(rows[off:])
	}
	var v uint64
	for i := s - 1; i >= 0; i-- {
		v = v<<8 | uint64(rows[off+i])
	}
	return v
}

// field returns symbol j of a row wider than one word, read from the
// at most three bytes the symbol spans inside the row.
func (p Packing) field(row []byte, j int) uint64 {
	o := j * p.b
	i := o >> 3
	v := uint64(row[i])
	if i+1 < len(row) {
		v |= uint64(row[i+1]) << 8
	}
	if i+2 < len(row) {
		v |= uint64(row[i+2]) << 16
	}
	return v >> uint(o&7) & p.mask
}

// rowsOf returns the number of whole rows in rows, panicking on a
// partial one.
func (p Packing) rowsOf(rows []byte) int {
	n := len(rows) / p.stride
	if n*p.stride != len(rows) {
		panic(fmt.Sprintf("words: %d bytes are not whole packed rows of %d bytes", len(rows), p.stride))
	}
	return n
}

// AppendKeys projects every packed row of rows through c and appends
// the canonical projection keys onto dst in row order: byte for byte
// what AppendBatchKeys appends for the same rows unpacked, 2·c.Len()
// bytes a row. It panics if c's dimension is not the layout's.
func (p Packing) AppendKeys(dst []byte, rows []byte, c ColumnSet) []byte {
	if c.d != p.d {
		panic(fmt.Sprintf("words: column set over [%d] applied to packed rows of dimension %d", c.d, p.d))
	}
	n := p.rowsOf(rows)
	base := len(dst)
	dst = growLen(dst, n*2*len(c.cols))
	off := base
	if p.narrow() {
		var shifts [64]uint8
		sh := shifts[:len(c.cols)]
		for i, j := range c.cols {
			sh[i] = uint8(j * p.b)
		}
		for r := 0; r < n; r++ {
			v := loadRow(rows, r*p.stride, p.stride)
			for _, s := range sh {
				x := v >> s & p.mask
				dst[off] = byte(x)
				dst[off+1] = byte(x >> 8)
				off += 2
			}
		}
		return dst
	}
	for r := 0; r < n; r++ {
		row := rows[r*p.stride : (r+1)*p.stride]
		for _, j := range c.cols {
			x := p.field(row, j)
			dst[off] = byte(x)
			dst[off+1] = byte(x >> 8)
			off += 2
		}
	}
	return dst
}

// Unpack writes the symbols of the packed rows into dst, which must
// hold exactly d symbols a row. At b = 2 with d a multiple of four a
// row has no padding, so the rows are one run of bytes of four symbols
// each and take a flat pass, a table lookup a byte; every other shape
// reads one symbol at a time.
func (p Packing) Unpack(dst []uint16, rows []byte) {
	n := p.rowsOf(rows)
	if len(dst) != n*p.d {
		panic(fmt.Sprintf("words: %d packed rows do not unpack into %d symbols", n, len(dst)))
	}
	if p.d%4 == 0 && p.b == 2 {
		for i, g := range rows {
			x := byteLanes[g]
			w := dst[4*i : 4*i+4 : 4*i+4]
			w[0], w[1], w[2], w[3] = uint16(x), uint16(x>>16), uint16(x>>32), uint16(x>>48)
		}
		return
	}
	for r := 0; r < n; r++ {
		out := dst[r*p.d : (r+1)*p.d]
		if p.narrow() {
			v := loadRow(rows, r*p.stride, p.stride)
			for j := range out {
				out[j] = uint16(v >> uint(j*p.b) & p.mask)
			}
			continue
		}
		row := rows[r*p.stride : (r+1)*p.stride]
		for j := range out {
			out[j] = uint16(p.field(row, j))
		}
	}
}

// byteLanes maps a byte of four 2-bit fields to the four 16-bit lanes
// holding them.
var byteLanes = func() (t [256]uint64) {
	for g := range t {
		for i := range 4 {
			t[g] |= uint64(g>>(2*i)&3) << (16 * i)
		}
	}
	return t
}()

// Verify checks packed rows the way a decoder must: whole rows, every
// padding bit zero and every symbol in [q]. Its error names the row.
func (p Packing) Verify(rows []byte) error {
	n := len(rows) / p.stride
	if n*p.stride != len(rows) {
		return fmt.Errorf("words: %d bytes are not whole packed rows of %d bytes", len(rows), p.stride)
	}
	if used := p.d * p.b % 8; used != 0 {
		for r := 0; r < n; r++ {
			if rows[(r+1)*p.stride-1]>>used != 0 {
				return fmt.Errorf("words: packed row %d has non-zero padding bits", r)
			}
		}
	}
	if p.q == 1<<p.b {
		return nil // every b-bit field is a symbol
	}
	// Rows are unpacked a chunk at a time into a buffer on the stack,
	// unless one row does not fit it.
	var stack [4096]uint16
	buf := stack[:]
	if p.d > len(buf) {
		buf = make([]uint16, p.d)
	}
	chunk := len(buf) / p.d
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		syms := buf[:(hi-lo)*p.d]
		p.Unpack(syms, rows[lo*p.stride:hi*p.stride])
		if i := symbolsOutside(syms, p.q); i >= 0 {
			return fmt.Errorf("words: row %d symbol %d outside alphabet [%d]", lo+i/p.d, syms[i], p.q)
		}
	}
	return nil
}
