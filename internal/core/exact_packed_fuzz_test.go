package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/words"
)

// FuzzPackedRows is the differential for the packed row codec behind
// Exact, over any d and any q ≤ words.MaxAlphabet, strides over one
// 64-bit word included:
//   - Pack flags exactly the first symbol outside [q];
//   - the packed key builder emits the bytes AppendBatchKeys emits for
//     the unpacked rows, and Unpack returns the rows;
//   - Unpack of any bytes, fields outside [q] and set padding bits
//     included, reads each field where the per-symbol reference does,
//     and Verify refuses exactly those bytes with such a field or bit;
//   - an exact summary's blob decodes to the same rows and re-encodes
//     to the same bytes;
//   - a blob with a field outside [q] or a set padding bit is refused
//     with ErrBadEncoding.
func FuzzPackedRows(f *testing.F) {
	f.Add(uint8(16), uint16(2), uint64(0b10_0000_0001), []byte{1, 0, 2, 0, 3, 0, 0, 0, 1, 0, 2, 0, 3, 0, 3, 0})
	f.Add(uint8(5), uint16(5), uint64(0b10101), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Add(uint8(37), uint16(998), uint64(1<<36|1<<9|1), bytes.Repeat([]byte{0xa5, 0x03}, 37*3))
	f.Add(uint8(4), uint16(65534), uint64(0b1111), []byte{0xff, 0xff, 0, 0x80, 1, 0, 2, 0})
	f.Add(uint8(1), uint16(0), uint64(1), []byte{1, 0, 0, 0, 9, 0})
	// One shape for each of Unpack's passes: the flat one at b = 2, the
	// one-word row read field by field at b = 3, the flat one over rows
	// wider than a word, and the field-by-field one past a word at b = 3.
	f.Add(uint8(15), uint16(2), uint64(0xf0f0), bytes.Repeat([]byte{0x1b, 0xe4, 0x03, 0x00}, 24))
	f.Add(uint8(7), uint16(5), uint64(0b1011_0110), bytes.Repeat([]byte{0xff, 0x06, 0x35, 0x01}, 20))
	f.Add(uint8(35), uint16(1), uint64(1<<35|1), bytes.Repeat([]byte{0x02, 0x00, 0x01, 0x00, 0x03}, 40))
	f.Add(uint8(23), uint16(3), uint64(0xabcdef), bytes.Repeat([]byte{0x04, 0x00, 0x01}, 70))
	f.Fuzz(func(t *testing.T, dRaw uint8, qRaw uint16, colMask uint64, raw []byte) {
		d := int(dRaw)%40 + 1
		q := 2 + int(qRaw)%(words.MaxAlphabet-1)
		n := len(raw) / (2 * d)
		rawSyms := make([]uint16, n*d)
		syms := make([]uint16, n*d)
		for i := range syms {
			rawSyms[i] = binary.LittleEndian.Uint16(raw[2*i:])
			syms[i] = uint16(int(rawSyms[i]) % q)
		}
		var cols []int
		for j := range d {
			if colMask>>j&1 == 1 {
				cols = append(cols, j)
			}
		}
		c := words.MustColumnSet(d, cols...)
		pk := words.NewPacking(d, q)
		s := pk.Stride()
		b := bits.Len(uint(q - 1))
		if s != (d*b+7)/8 {
			t.Fatalf("d=%d q=%d: stride %d", d, q, s)
		}

		want := slices.IndexFunc(rawSyms, func(x uint16) bool { return int(x) >= q })
		if got := pk.Pack(make([]byte, n*s), rawSyms); got != want {
			t.Fatalf("d=%d q=%d: Pack flags symbol %d, want %d", d, q, got, want)
		}
		rows := make([]byte, n*s)
		if i := pk.Pack(rows, syms); i >= 0 {
			t.Fatalf("d=%d q=%d: Pack flags in-alphabet symbol %d", d, q, i)
		}
		gotKeys := pk.AppendKeys([]byte{0xAA}, rows, c)
		wantKeys := words.AppendBatchKeys([]byte{0xAA}, words.BatchOf(d, syms), c)
		if !bytes.Equal(gotKeys, wantKeys) {
			t.Fatalf("d=%d q=%d cols=%v: packed keys %x, want %x", d, q, cols, gotKeys, wantKeys)
		}
		back := make([]uint16, n*d)
		pk.Unpack(back, rows)
		if !slices.Equal(back, syms) {
			t.Fatalf("d=%d q=%d: unpacked %v, want %v", d, q, back, syms)
		}
		anyRows := raw[:len(raw)/s*s]
		fields := make([]uint16, len(anyRows)/s*d)
		pk.Unpack(fields, anyRows)
		clean := true
		for r := range len(anyRows) / s {
			row := anyRows[r*s : (r+1)*s]
			for j := range d {
				if want := refField(row, j*b, b); fields[r*d+j] != want {
					t.Fatalf("d=%d q=%d: row %d field %d unpacked as %d, the reference reads %d", d, q, r, j, fields[r*d+j], want)
				}
				clean = clean && int(fields[r*d+j]) < q
			}
			clean = clean && refField(row, d*b, 8*s-d*b) == 0
		}
		if err := pk.Verify(anyRows); (err == nil) != clean {
			t.Fatalf("d=%d q=%d: Verify says %v of rows the reference finds clean=%v", d, q, err, clean)
		}

		e := mustExact(t, d, q)
		e.ObserveBatch(words.BatchOf(d, syms))
		blob := mustMarshal(t, e)
		if !bytes.Equal(blob[envelopeSize:], rows) {
			t.Fatalf("d=%d q=%d: the payload is not the packed rows", d, q)
		}
		dec, err := UnmarshalSummary(blob)
		if err != nil {
			t.Fatalf("d=%d q=%d: %v", d, q, err)
		}
		if again := mustMarshal(t, dec.(*Exact)); !bytes.Equal(again, blob) {
			t.Fatalf("d=%d q=%d: re-encoding changed the blob", d, q)
		}
		if tb := dec.(*Exact).Table(); !slices.Equal(tb.Batch().Symbols(), syms) {
			t.Fatalf("d=%d q=%d: the decoded rows differ", d, q)
		}

		if n == 0 {
			return
		}
		last := envelopeSize + n*s - 1 // the last row's last byte
		if used := d * b % 8; used != 0 {
			bad := bytes.Clone(blob)
			bad[last] |= 0x80
			refused(t, bad, "set padding bit")
		}
		if q < 1<<b {
			// Set every bit of the last row's last field: 2^b − 1 ≥ q.
			bad := bytes.Clone(blob)
			for k := (d - 1) * b; k < d*b; k++ {
				bad[envelopeSize+(n-1)*s+k/8] |= 1 << (k % 8)
			}
			refused(t, bad, "field outside the alphabet")
		}
	})
}

// refField is the per-symbol reference reader: the w bits of row from
// bit offset at, little-endian.
func refField(row []byte, at, w int) uint16 {
	var v uint16
	for k := range w {
		v |= uint16(row[(at+k)/8]>>((at+k)%8)&1) << k
	}
	return v
}

// refused checks that a corrupted exact blob fails with ErrBadEncoding.
func refused(t *testing.T, blob []byte, what string) {
	t.Helper()
	if _, err := UnmarshalSummary(blob); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("%s: %v, want ErrBadEncoding", what, err)
	}
}
