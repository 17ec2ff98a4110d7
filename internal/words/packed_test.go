package words

import (
	"testing"

	"repro/internal/rng"
)

// TestUnpackTablesExhaustive: Unpack's flat pass at b = 2 reads every
// value of a four-field group as the field-by-field reference does,
// alone in a row (d = 4) and among other groups (d = 16), and Verify
// at the odd alphabet q = 3 refuses exactly the rows holding the
// field 3.
func TestUnpackTablesExhaustive(t *testing.T) {
	src := rng.New(5)
	const b, q = 2, 3
	for _, d := range []int{4, 16} {
		pk := NewPacking(d, q)
		s := pk.Stride()
		groups := 1 << (4 * b)
		rows := make([]byte, groups*s)
		for g := range groups {
			// Group g sits at a random group of its row, the other
			// groups random too.
			row := rows[g*s : (g+1)*s]
			for i := range row {
				row[i] = byte(src.Intn(256))
			}
			if used := d * b % 8; used != 0 {
				row[s-1] &= 1<<used - 1
			}
			at := 4 * b * src.Intn(d/4)
			for k := range 4 * b {
				bit := byte(g >> k & 1)
				row[(at+k)/8] = row[(at+k)/8]&^(1<<((at+k)%8)) | bit<<((at+k)%8)
			}
		}
		got := make([]uint16, groups*d)
		pk.Unpack(got, rows)
		for r := range groups {
			row := rows[r*s : (r+1)*s]
			bad := false
			for j := range d {
				want := pk.field(row, j)
				if uint64(got[r*d+j]) != want {
					t.Fatalf("b=%d d=%d row %d field %d: unpacked %d, the reference reads %d", b, d, r, j, got[r*d+j], want)
				}
				bad = bad || int(want) >= q
			}
			if err := pk.Verify(row); (err != nil) != bad {
				t.Fatalf("b=%d d=%d q=%d row %d: Verify says %v, a field ≥ q: %v", b, d, q, r, err, bad)
			}
		}
	}
}
