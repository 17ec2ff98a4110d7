// Package words models the data items of projected frequency estimation:
// rows of an n×d array over alphabet [Q] = {0, 1, ..., Q-1}, column
// subsets C ⊆ [d], projections A^C, and the canonical index function
// e(·) of Remark 1 in the paper that maps Q-ary words to positions of
// the frequency vector f(A, C).
//
// The types divide along the paper's two axes:
//
//   - Data: Word is one row ([]uint16 symbols); Table is an in-memory
//     n×d array; RowSource streams rows one pass at a time; Batch is a
//     flat stride-d buffer of rows, the unit of ingestion (one
//     allocation and one bookkeeping pass per batch instead of per
//     row) that core.Summary.ObserveBatch consumes.
//   - Queries: ColumnSet is an immutable subset C ⊆ [d] with the
//     little set algebra the summaries use (Diff, Complement,
//     Contains, Mask) and Equal, on which the registry's planner
//     routes exact matches. AppendKey applies C to a row, building the
//     canonical projection key that summaries hash, and
//     Packing.AppendKeys builds the same keys for a run of packed
//     rows.
//
// Words are stored as []uint16 symbol slices, supporting alphabets up
// to Q = 65536, which covers every parameter regime used by the paper
// (the corollaries in Section 4 take Q as large as poly(d)). Nothing
// here allocates on hot paths beyond what the caller hands in: rows
// project into caller buffers, batches expose row views into their
// backing array, and ColumnSet members are read in place (At).
package words

import (
	"errors"
	"fmt"
	"math/bits"
)

// MaxAlphabet is the largest supported alphabet size Q.
const MaxAlphabet = 1 << 16

// Word is a row of the input array: a vector of symbols over [Q].
// The alphabet size Q is carried by the containing Table or stream,
// not by the word itself.
type Word []uint16

// Clone returns a copy of w that shares no storage with it.
func (w Word) Clone() Word {
	c := make(Word, len(w))
	copy(c, w)
	return c
}

// Equal reports whether w and v have the same length and symbols.
func (w Word) Equal(v Word) bool {
	if len(w) != len(v) {
		return false
	}
	for i := range w {
		if w[i] != v[i] {
			return false
		}
	}
	return true
}

// Support returns the sorted positions i with w[i] != 0, the set
// supp(w) from Definition 3.1.
func (w Word) Support() []int {
	var s []int
	for i, x := range w {
		if x != 0 {
			s = append(s, i)
		}
	}
	return s
}

// Weight returns |supp(w)|, the Hamming weight of w.
func (w Word) Weight() int {
	n := 0
	for _, x := range w {
		if x != 0 {
			n++
		}
	}
	return n
}

// String renders the word compactly, e.g. "(1 0 3)".
func (w Word) String() string {
	b := make([]byte, 0, 2+3*len(w))
	b = append(b, '(')
	for i, x := range w {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendUint(b, uint64(x))
	}
	b = append(b, ')')
	return string(b)
}

func appendUint(b []byte, x uint64) []byte {
	if x == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for x > 0 {
		i--
		tmp[i] = byte('0' + x%10)
		x /= 10
	}
	return append(b, tmp[i:]...)
}

// AppendKey appends a compact byte encoding of w's restriction to c
// onto buf and returns the extended slice. Two words have equal keys
// iff their projections onto c are equal, so string(key) is a valid
// map key for pattern counting.
func AppendKey(buf []byte, w Word, c ColumnSet) []byte {
	for _, j := range c.cols {
		x := w[j]
		buf = append(buf, byte(x), byte(x>>8))
	}
	return buf
}

// KeyToWord decodes a key produced by AppendKey back into the
// projected word (length = len(key)/2).
func KeyToWord(key string) Word {
	if len(key)%2 != 0 {
		panic("words: malformed pattern key")
	}
	w := make(Word, len(key)/2)
	for i := range w {
		w[i] = uint16(key[2*i]) | uint16(key[2*i+1])<<8
	}
	return w
}

// ErrIndexOverflow is returned by Index when Q^len(w) exceeds uint64.
var ErrIndexOverflow = errors.New("words: Q^|C| does not fit in uint64")

// Index implements the canonical index function e(w) of Remark 1: the
// bijection from [Q]^|C| to {0, ..., Q^|C|-1} that reads w as a
// base-Q numeral (most significant symbol first).
func Index(w Word, q int) (uint64, error) {
	if q < 2 || q > MaxAlphabet {
		return 0, fmt.Errorf("words: alphabet size %d out of range [2, %d]", q, MaxAlphabet)
	}
	var idx uint64
	for _, x := range w {
		if int(x) >= q {
			return 0, fmt.Errorf("words: symbol %d outside alphabet [%d]", x, q)
		}
		hi, lo := bits.Mul64(idx, uint64(q))
		if hi != 0 {
			return 0, ErrIndexOverflow
		}
		idx = lo + uint64(x)
		if idx < lo {
			return 0, ErrIndexOverflow
		}
	}
	return idx, nil
}

// Validate checks that every symbol of w lies in [q].
func (w Word) Validate(q int) error {
	for i, x := range w {
		if int(x) >= q {
			return fmt.Errorf("words: symbol %d at position %d outside alphabet [%d]", x, i, q)
		}
	}
	return nil
}
