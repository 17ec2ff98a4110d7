package words

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// ColumnSet is a subset C ⊆ [d] of column indices, the projection
// query of the paper. It is immutable after construction: all methods
// treat the receiver as read-only, and constructors copy their input.
type ColumnSet struct {
	d    int
	cols []int // sorted, unique, each in [0, d)
}

// NewColumnSet builds the column set {cols...} over dimension d.
// Duplicates are merged; out-of-range indices are an error.
func NewColumnSet(d int, cols ...int) (ColumnSet, error) {
	if d < 0 {
		return ColumnSet{}, fmt.Errorf("words: negative dimension %d", d)
	}
	sorted := make([]int, len(cols))
	copy(sorted, cols)
	sort.Ints(sorted)
	out := sorted[:0]
	prev := -1
	for _, c := range sorted {
		if c < 0 || c >= d {
			return ColumnSet{}, fmt.Errorf("words: column %d outside [0, %d)", c, d)
		}
		if c != prev {
			out = append(out, c)
			prev = c
		}
	}
	return ColumnSet{d: d, cols: out}, nil
}

// MustColumnSet is NewColumnSet that panics on error; intended for
// tests and for literals known to be valid.
func MustColumnSet(d int, cols ...int) ColumnSet {
	c, err := NewColumnSet(d, cols...)
	if err != nil {
		panic(err)
	}
	return c
}

// ColumnSetFromMask builds the column set whose members are the set
// bits of mask, over dimension d <= 64.
func ColumnSetFromMask(mask uint64, d int) (ColumnSet, error) {
	if d < 0 || d > 64 {
		return ColumnSet{}, fmt.Errorf("words: mask dimension %d outside [0, 64]", d)
	}
	if d < 64 && mask>>uint(d) != 0 {
		return ColumnSet{}, fmt.Errorf("words: mask %#x has bits outside [%d]", mask, d)
	}
	cols := make([]int, 0, bits.OnesCount64(mask))
	for m := mask; m != 0; m &= m - 1 {
		cols = append(cols, bits.TrailingZeros64(m))
	}
	return ColumnSet{d: d, cols: cols}, nil
}

// FullColumnSet returns the set of all d columns.
func FullColumnSet(d int) ColumnSet {
	cols := make([]int, d)
	for i := range cols {
		cols[i] = i
	}
	return ColumnSet{d: d, cols: cols}
}

// Dim returns the ambient dimension d.
func (c ColumnSet) Dim() int { return c.d }

// Len returns |C|.
func (c ColumnSet) Len() int { return len(c.cols) }

// At returns the i-th smallest member column, 0 ≤ i < Len. Unlike
// Columns it does not allocate, which is what hot paths that walk a
// set's members (key construction, planners) need.
func (c ColumnSet) At(i int) int { return c.cols[i] }

// AppendCanonicalKey appends a canonical binary key of the set —
// dimension, member count, and the sorted unique members, all varint
// — to dst and returns the extended slice. Equal sets produce equal
// keys, unequal sets cannot collide (every field is self-delimiting),
// and appending into a caller buffer keeps key construction
// allocation-free; it is the one encoding shared by the planner's
// exact-match index and the engine's query key.
func (c ColumnSet) AppendCanonicalKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.d))
	dst = binary.AppendUvarint(dst, uint64(len(c.cols)))
	for _, j := range c.cols {
		dst = binary.AppendUvarint(dst, uint64(j))
	}
	return dst
}

// Columns returns a copy of the sorted member columns.
func (c ColumnSet) Columns() []int {
	out := make([]int, len(c.cols))
	copy(out, c.cols)
	return out
}

// Contains reports whether column j is a member of C.
func (c ColumnSet) Contains(j int) bool {
	i := sort.SearchInts(c.cols, j)
	return i < len(c.cols) && c.cols[i] == j
}

// Mask returns C as a bitmask; it panics if d > 64.
func (c ColumnSet) Mask() uint64 {
	if c.d > 64 {
		panic("words: Mask requires d <= 64")
	}
	var m uint64
	for _, j := range c.cols {
		m |= 1 << uint(j)
	}
	return m
}

// Complement returns [d] \ C.
func (c ColumnSet) Complement() ColumnSet {
	out := make([]int, 0, c.d-len(c.cols))
	k := 0
	for j := 0; j < c.d; j++ {
		if k < len(c.cols) && c.cols[k] == j {
			k++
			continue
		}
		out = append(out, j)
	}
	return ColumnSet{d: c.d, cols: out}
}

// Diff returns C \ o.
func (c ColumnSet) Diff(o ColumnSet) ColumnSet {
	c.mustSameDim(o)
	var out []int
	j := 0
	for _, x := range c.cols {
		for j < len(o.cols) && o.cols[j] < x {
			j++
		}
		if j < len(o.cols) && o.cols[j] == x {
			continue
		}
		out = append(out, x)
	}
	return ColumnSet{d: c.d, cols: out}
}

// Equal reports whether the two sets have identical dimension and
// members.
func (c ColumnSet) Equal(o ColumnSet) bool {
	if c.d != o.d || len(c.cols) != len(o.cols) {
		return false
	}
	for i := range c.cols {
		if c.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

func (c ColumnSet) mustSameDim(o ColumnSet) {
	if c.d != o.d {
		panic(fmt.Sprintf("words: dimension mismatch %d vs %d", c.d, o.d))
	}
}

// String renders the set like "{0,2,5}/8" where 8 is the dimension.
func (c ColumnSet) String() string {
	b := make([]byte, 0, 2+3*len(c.cols))
	b = append(b, '{')
	for i, j := range c.cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendUint(b, uint64(j))
	}
	b = append(b, '}', '/')
	b = appendUint(b, uint64(c.d))
	return string(b)
}
