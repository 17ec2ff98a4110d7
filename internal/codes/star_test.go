package codes

import (
	"testing"

	"repro/internal/words"
)

func mustCodeword(t *testing.T, d int, support ...int) Codeword {
	t.Helper()
	c, err := NewCodeword(d, support)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStarCountAndEnumerate(t *testing.T) {
	y := mustCodeword(t, 5, 1, 3)
	star, err := NewStar(y, 3)
	if err != nil {
		t.Fatal(err)
	}
	count, err := star.Count()
	if err != nil || count != 9 {
		t.Fatalf("Count = %d, %v", count, err)
	}
	seen := map[string]bool{}
	full := words.FullColumnSet(5)
	star.Enumerate(func(w words.Word) bool {
		// Definition 3.1: supp(z) ⊆ supp(y).
		for i, x := range w {
			if x != 0 && i != 1 && i != 3 {
				t.Fatalf("child %v supported outside supp(y)", w)
			}
			if int(x) >= 3 {
				t.Fatalf("child %v outside alphabet", w)
			}
		}
		seen[string(words.AppendKey(nil, w, full))] = true
		return true
	})
	if len(seen) != 9 {
		t.Fatalf("enumerated %d distinct children, want 9", len(seen))
	}
}

func TestStarEnumerateEarlyStop(t *testing.T) {
	y := mustCodeword(t, 4, 0, 1)
	star, _ := NewStar(y, 4)
	n := 0
	star.Enumerate(func(words.Word) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop after %d", n)
	}
}

// TestStarChildMatchesEnumerationOrder: Enumerate yields the children
// in canonical order, the idx-th child carrying the base-q digits of
// idx on the support (most significant first).
func TestStarChildMatchesEnumerationOrder(t *testing.T) {
	support := []int{0, 2, 5}
	y := mustCodeword(t, 6, support...)
	star, _ := NewStar(y, 2)
	idx := uint64(0)
	star.Enumerate(func(w words.Word) bool {
		want := make(words.Word, 6)
		rest := idx
		for i := len(support) - 1; i >= 0; i-- {
			want[support[i]] = uint16(rest % 2)
			rest /= 2
		}
		if !want.Equal(w) {
			t.Fatalf("child %d = %v, enumerate yields %v", idx, want, w)
		}
		idx++
		return true
	})
	if idx != 8 {
		t.Fatalf("enumerated %d children", idx)
	}
}

func TestStarSourceStreamsUnion(t *testing.T) {
	a := mustCodeword(t, 5, 0, 1)
	b := mustCodeword(t, 5, 3, 4)
	src, err := NewStarSource([]Codeword{a, b}, 3)
	if err != nil {
		t.Fatal(err)
	}
	total, err := src.TotalRows()
	if err != nil || total != 18 {
		t.Fatalf("TotalRows = %d, %v", total, err)
	}
	full := words.FullColumnSet(5)
	counts := map[string]int{}
	n := words.Drain(src, func(w words.Word) {
		counts[string(words.AppendKey(nil, w, full))]++
	})
	if n != 18 {
		t.Fatalf("streamed %d rows", n)
	}
	// The all-zero word is a child of both codewords: multiplicity 2.
	zeroKey := string(words.AppendKey(nil, make(words.Word, 5), full))
	if counts[zeroKey] != 2 {
		t.Fatalf("zero word multiplicity = %d, want 2", counts[zeroKey])
	}
	if len(counts) != 17 { // 9 + 9 - 1 shared zero word
		t.Fatalf("distinct rows = %d, want 17", len(counts))
	}
}

func TestStarSourceFirstRowIsZero(t *testing.T) {
	y := mustCodeword(t, 3, 1)
	src, _ := NewStarSource([]Codeword{y}, 2)
	w, ok := src.Next()
	if !ok || !w.Equal(make(words.Word, 3)) {
		t.Fatalf("first row = %v, want all zeros", w)
	}
	w2, ok := src.Next()
	if !ok || !w2.Equal(words.Word{0, 1, 0}) {
		t.Fatalf("second row = %v", w2)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("stream should be exhausted after Q^k = 2 rows")
	}
}

func TestStarSourceResetReplaysIdentically(t *testing.T) {
	y := mustCodeword(t, 6, 0, 3, 5)
	src, _ := NewStarSource([]Codeword{y}, 3)
	full := words.FullColumnSet(6)
	var first []string
	words.Drain(src, func(w words.Word) {
		first = append(first, string(words.AppendKey(nil, w, full)))
	})
	src.Reset()
	i := 0
	words.Drain(src, func(w words.Word) {
		if key := string(words.AppendKey(nil, w, full)); key != first[i] {
			t.Fatalf("replay diverges at row %d", i)
		}
		i++
	})
	if i != len(first) {
		t.Fatalf("replay length %d != %d", i, len(first))
	}
}

func TestNewStarSourceValidation(t *testing.T) {
	if _, err := NewStarSource(nil, 2); err == nil {
		t.Fatal("empty set must error")
	}
	a := mustCodeword(t, 4, 0)
	b := mustCodeword(t, 5, 0)
	if _, err := NewStarSource([]Codeword{a, b}, 2); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	if _, err := NewStar(a, 1); err == nil {
		t.Fatal("alphabet < 2 must error")
	}
}

// TestStarSizeMatchesTheorem41Accounting reconfirms the |star_Q(y)| =
// Q^k accounting Theorem 4.1 relies on, for several shapes.
func TestStarSizeMatchesTheorem41Accounting(t *testing.T) {
	for _, tc := range []struct{ d, k, q int }{{6, 2, 4}, {8, 3, 3}, {10, 1, 7}} {
		supp := make([]int, tc.k)
		for i := range supp {
			supp[i] = i * 2
		}
		y := mustCodeword(t, tc.d, supp...)
		star, _ := NewStar(y, tc.q)
		want := uint64(1)
		for i := 0; i < tc.k; i++ {
			want *= uint64(tc.q)
		}
		got, err := star.Count()
		if err != nil || got != want {
			t.Fatalf("d=%d k=%d q=%d: count %d, want %d", tc.d, tc.k, tc.q, got, want)
		}
		n := 0
		star.Enumerate(func(words.Word) bool { n++; return true })
		if uint64(n) != want {
			t.Fatalf("enumerated %d != %d", n, want)
		}
	}
}
