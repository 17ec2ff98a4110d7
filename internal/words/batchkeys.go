package words

import "fmt"

// AppendBatchKeys projects every row of b through c and appends the
// canonical projection keys onto dst in row order, returning the
// extended slice. The output is byte-identical to calling AppendKey
// per row: each row contributes exactly 2·c.Len() bytes (two
// little-endian bytes per projected symbol), so row i's key occupies
// dst[base+i·stride : base+(i+1)·stride] where stride = 2·c.Len() and
// base is len(dst) on entry.
//
// This is the first stage of the batched key pipeline: one pass builds
// a flat key arena for a whole batch, which hashing.AppendFingerprints64
// then fingerprints without materializing per-row slices. It panics if
// c's dimension differs from b's, matching ProjectInto's contract.
func AppendBatchKeys(dst []byte, b *Batch, c ColumnSet) []byte {
	if c.d != b.d {
		panic(fmt.Sprintf("words: column set over [%d] applied to batch of dimension %d", c.d, b.d))
	}
	off := len(dst)
	dst = growLen(dst, b.Len()*2*len(c.cols))
	data := b.data
	for lo := 0; lo < len(data); lo += b.d {
		row := data[lo : lo+b.d]
		for _, j := range c.cols {
			x := row[j]
			dst[off] = byte(x)
			dst[off+1] = byte(x >> 8)
			off += 2
		}
	}
	return dst
}

// growLen extends dst by k bytes, reallocating at most once.
func growLen(dst []byte, k int) []byte {
	need := len(dst) + k
	if cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	return dst[:need]
}
