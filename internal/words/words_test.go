package words

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWordCloneIsIndependent(t *testing.T) {
	w := Word{1, 2, 3}
	c := w.Clone()
	c[0] = 9
	if w[0] != 1 {
		t.Fatalf("clone aliases original: %v", w)
	}
	if !w.Equal(Word{1, 2, 3}) {
		t.Fatalf("original mutated: %v", w)
	}
}

func TestWordEqual(t *testing.T) {
	cases := []struct {
		a, b Word
		want bool
	}{
		{Word{}, Word{}, true},
		{Word{1}, Word{1}, true},
		{Word{1}, Word{2}, false},
		{Word{1}, Word{1, 0}, false},
		{Word{0, 1}, Word{0, 1}, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSupportAndWeight(t *testing.T) {
	w := Word{0, 3, 0, 1, 2}
	if got := w.Support(); !reflect.DeepEqual(got, []int{1, 3, 4}) {
		t.Fatalf("Support = %v", got)
	}
	if w.Weight() != 3 {
		t.Fatalf("Weight = %d", w.Weight())
	}
	if (Word{0, 0}).Support() != nil {
		t.Fatalf("zero word must have empty support")
	}
}

// TestProjectPaperExample reproduces the worked example of Section 2:
// the 5×3 binary array projected onto C = {0, 1} yields frequency
// vector (1, 1, 0, 3).
func TestProjectPaperExample(t *testing.T) {
	rows := []Word{
		{1, 1, 0},
		{0, 1, 0},
		{0, 0, 1},
		{1, 1, 1},
		{1, 1, 0},
	}
	c := MustColumnSet(3, 0, 1)
	counts := map[uint64]int{}
	p := make(Word, c.Len())
	for _, r := range rows {
		r.ProjectInto(c, p)
		idx, err := Index(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	want := map[uint64]int{3: 3, 1: 1, 0: 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("frequency vector = %v, want %v", counts, want)
	}
	// F0 = 3 distinct rows, F1 = 5 rows, as the paper computes.
	if len(counts) != 3 {
		t.Fatalf("F0 = %d, want 3", len(counts))
	}
}

func TestProjectIntoMatchesProject(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		d := 1 + r.Intn(20)
		w := make(Word, d)
		for i := range w {
			w[i] = uint16(r.Intn(5))
		}
		var cols []int
		for j := 0; j < d; j++ {
			if r.Intn(2) == 0 {
				cols = append(cols, j)
			}
		}
		c := MustColumnSet(d, cols...)
		var want Word
		for _, j := range cols {
			want = append(want, w[j])
		}
		got := make(Word, c.Len())
		w.ProjectInto(c, got)
		if !got.Equal(want) {
			t.Fatalf("ProjectInto = %v, want %v", got, want)
		}
	}
}

func TestAppendKeyRoundTrip(t *testing.T) {
	f := func(syms []uint16) bool {
		w := Word(syms)
		c := FullColumnSet(len(w))
		key := AppendKey(nil, w, c)
		if len(key) != 2*len(w) {
			return false
		}
		return KeyToWord(string(key)).Equal(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendKeyDistinguishesPatterns(t *testing.T) {
	c := MustColumnSet(4, 1, 3)
	a := AppendKey(nil, Word{0, 5, 0, 7}, c)
	b := AppendKey(nil, Word{9, 5, 9, 7}, c)
	if string(a) != string(b) {
		t.Fatal("keys must agree when projections agree")
	}
	e := AppendKey(nil, Word{0, 5, 0, 8}, c)
	if string(a) == string(e) {
		t.Fatal("keys must differ when projections differ")
	}
}

func TestKeyToWordPanicsOnOddLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KeyToWord("abc")
}

func TestIndexCanonicalOrder(t *testing.T) {
	// Remark 1's canonical mapping: e(00)=0, e(01)=1, e(10)=2, e(11)=3.
	got := []uint64{}
	for _, w := range []Word{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		idx, err := Index(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, idx)
	}
	if !reflect.DeepEqual(got, []uint64{0, 1, 2, 3}) {
		t.Fatalf("canonical order = %v", got)
	}
}

// wordAt inverts Index: the word of length n over [q] whose canonical
// index is idx < q^n.
func wordAt(idx uint64, q, n int) Word {
	w := make(Word, n)
	for i := n - 1; i >= 0; i-- {
		w[i] = uint16(idx % uint64(q))
		idx /= uint64(q)
	}
	return w
}

func TestIndexWordAtRoundTrip(t *testing.T) {
	f := func(idxRaw uint32, qRaw, nRaw uint8) bool {
		q := 2 + int(qRaw%30)
		n := 1 + int(nRaw%6)
		max := uint64(1)
		for i := 0; i < n; i++ {
			max *= uint64(q)
		}
		idx := uint64(idxRaw) % max
		w := wordAt(idx, q, n)
		back, err := Index(w, q)
		return err == nil && back == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexErrors(t *testing.T) {
	if _, err := Index(Word{5}, 4); err == nil {
		t.Fatal("symbol outside alphabet must error")
	}
	if _, err := Index(Word{0}, 1); err == nil {
		t.Fatal("alphabet < 2 must error")
	}
	// 2^64 overflows: 65 binary symbols.
	big := make(Word, 65)
	for i := range big {
		big[i] = 1
	}
	if _, err := Index(big, 2); !errors.Is(err, ErrIndexOverflow) {
		t.Fatalf("want ErrIndexOverflow, got %v", err)
	}
}

func TestIndexUint64Boundary(t *testing.T) {
	// Q^|C| exactly 2^64: q = 2^16, |C| = 4. Every word fits — the
	// largest index is 2^64 - 1.
	maxSym := uint16(MaxAlphabet - 1)
	top := Word{maxSym, maxSym, maxSym, maxSym}
	idx, err := Index(top, MaxAlphabet)
	if err != nil {
		t.Fatal(err)
	}
	if idx != math.MaxUint64 {
		t.Fatalf("Index(max word, 2^16) = %d, want 2^64-1", idx)
	}
	// 64 binary symbols: max index 2^64 - 1, still representable.
	ones := make(Word, 64)
	for i := range ones {
		ones[i] = 1
	}
	if idx, err := Index(ones, 2); err != nil || idx != math.MaxUint64 {
		t.Fatalf("Index(1^64, 2) = %d, %v, want 2^64-1", idx, err)
	}
	// Q^|C| just above 2^64: a fifth symbol overflows unless the
	// leading symbols keep the value in range.
	if _, err := Index(append(Word{1}, make(Word, 4)...), MaxAlphabet); !errors.Is(err, ErrIndexOverflow) {
		t.Fatalf("2^64 must overflow, got %v", err)
	}
	if idx, err := Index(append(Word{0}, top...), MaxAlphabet); err != nil || idx != math.MaxUint64 {
		t.Fatalf("leading zero keeps 2^64-1 in range: %d, %v", idx, err)
	}
	// The multiply-step overflow (hi != 0) as well as the add-step
	// overflow (hi == 0 but lo + x wraps) must both be caught. The
	// add case needs a non-power-of-two alphabet: over q = 3, the
	// prefix indexing (2^64-1)/3 followed by symbol x lands exactly
	// on 2^64-1+x.
	if _, err := Index(Word{2, 0, 0, 0, 0}, MaxAlphabet); !errors.Is(err, ErrIndexOverflow) {
		t.Fatalf("multiply overflow must be caught, got %v", err)
	}
	prefix := wordAt(math.MaxUint64/3, 3, 41)
	if idx, err := Index(append(prefix, 0), 3); err != nil || idx != math.MaxUint64 {
		t.Fatalf("Index(prefix·0, 3) = %d, %v, want 2^64-1", idx, err)
	}
	if _, err := Index(append(prefix, 1), 3); !errors.Is(err, ErrIndexOverflow) {
		t.Fatalf("add overflow must be caught, got %v", err)
	}
}

func TestValidate(t *testing.T) {
	if err := (Word{0, 1, 2}).Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := (Word{0, 3}).Validate(3); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestWordString(t *testing.T) {
	if s := (Word{1, 0, 12}).String(); s != "(1 0 12)" {
		t.Fatalf("String = %q", s)
	}
	if s := (Word{}).String(); s != "()" {
		t.Fatalf("empty String = %q", s)
	}
}
