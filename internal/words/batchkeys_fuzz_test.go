package words

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzAppendBatchKeysEquivalence drives the batched key builder with
// arbitrary shapes and symbols and checks the pipeline contract it
// advertises: the flat arena it emits is byte-for-byte the
// concatenation of each row's projection, column by column, through
// AppendKey. Every batched
// ingest path (sketch members, subset summaries, frequency vectors)
// depends on this equality for its own batch ≡ row guarantees.
func FuzzAppendBatchKeysEquivalence(f *testing.F) {
	f.Add(uint8(3), uint8(0b101), []byte{1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0})
	f.Add(uint8(1), uint8(0b1), []byte{})
	f.Add(uint8(4), uint8(0), []byte{0xff, 0xff, 0, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, dRaw, colMask uint8, symBytes []byte) {
		d := int(dRaw)%8 + 1
		var cols []int
		for j := 0; j < d; j++ {
			if colMask&(1<<j) != 0 {
				cols = append(cols, j)
			}
		}
		c := MustColumnSet(d, cols...)
		// Decode whole rows from the raw bytes: two bytes per symbol.
		n := len(symBytes) / (2 * d)
		data := make([]uint16, n*d)
		for i := range data {
			data[i] = binary.LittleEndian.Uint16(symBytes[2*i:])
		}
		b := BatchOf(d, data)

		got := AppendBatchKeys([]byte{0xAA}, b, c) // non-empty dst: must append
		want := []byte{0xAA}
		for i := 0; i < n; i++ {
			var proj Word
			for _, j := range cols {
				proj = append(proj, b.Row(i)[j])
			}
			want = AppendKey(want, proj, FullColumnSet(c.Len()))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("d=%d cols=%v n=%d:\nbatched %#v\nper-row %#v", d, cols, n, got, want)
		}
	})
}
