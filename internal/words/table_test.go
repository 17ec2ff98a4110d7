package words

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableAppendAndRow(t *testing.T) {
	tb := NewTable(3, 4)
	tb.Append(Word{1, 2, 3})
	tb.Append(Word{0, 0, 0})
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	if !tb.Row(0).Equal(Word{1, 2, 3}) || !tb.Row(1).Equal(Word{0, 0, 0}) {
		t.Fatalf("rows: %v %v", tb.Row(0), tb.Row(1))
	}
	if tb.SizeBytes() != 12 {
		t.Fatalf("SizeBytes = %d", tb.SizeBytes())
	}
}

func TestTableAppendCopies(t *testing.T) {
	tb := NewTable(2, 2)
	w := Word{1, 0}
	tb.Append(w)
	w[0] = 0
	if !tb.Row(0).Equal(Word{1, 0}) {
		t.Fatal("Append must copy the row")
	}
}

func TestTableAppendWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable(3, 2).Append(Word{1})
}

func TestTableSourceResets(t *testing.T) {
	tb := NewTable(2, 3)
	tb.Append(Word{1, 2})
	tb.Append(Word{2, 0})
	src := tb.Source()
	n1 := Drain(src, func(Word) {})
	src.(Resettable).Reset()
	n2 := Drain(src, func(Word) {})
	if n1 != 2 || n2 != 2 {
		t.Fatalf("drained %d then %d rows", n1, n2)
	}
}

func TestCollectLimits(t *testing.T) {
	tb := NewTable(1, 2)
	for i := 0; i < 10; i++ {
		tb.Append(Word{uint16(i % 2)})
	}
	if got := Collect(tb.Source(), 4).NumRows(); got != 4 {
		t.Fatalf("Collect(4) = %d rows", got)
	}
	if got := Collect(tb.Source(), -1).NumRows(); got != 10 {
		t.Fatalf("Collect(-1) = %d rows", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := NewTable(3, 10)
	tb.Append(Word{1, 2, 3})
	tb.Append(Word{9, 0, 4})
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 2 || !back.Row(1).Equal(Word{9, 0, 4}) {
		t.Fatalf("round trip: %v", back)
	}
}

func TestReadCSVValidation(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n"), 10); err == nil {
		t.Fatal("ragged rows must error")
	}
	if _, err := ReadCSV(strings.NewReader("1,12\n"), 10); err == nil {
		t.Fatal("symbol outside alphabet must error")
	}
	if _, err := ReadCSV(strings.NewReader("1,x\n"), 10); err == nil {
		t.Fatal("non-numeric must error")
	}
	tb, err := ReadCSV(strings.NewReader("# comment\n\n1,2\n"), 10)
	if err != nil || tb.NumRows() != 1 {
		t.Fatalf("comments/blanks: %v %v", tb, err)
	}
}

func TestFuncSource(t *testing.T) {
	src := &FuncSource{D: 1, Q: 5, F: func(i int) (Word, bool) {
		if i >= 3 {
			return nil, false
		}
		return Word{uint16(i)}, true
	}}
	var got []uint16
	Drain(src, func(w Word) { got = append(got, w[0]) })
	if len(got) != 3 || got[2] != 2 {
		t.Fatalf("drained %v", got)
	}
	src.Reset()
	if n := Drain(src, func(Word) {}); n != 3 {
		t.Fatalf("after reset drained %d", n)
	}
}

func TestConcatStreamsInOrder(t *testing.T) {
	a := NewTable(1, 3)
	a.Append(Word{0})
	b := NewTable(1, 3)
	b.Append(Word{1})
	b.Append(Word{2})
	src := Concat(a.Source(), b.Source())
	var got []uint16
	Drain(src, func(w Word) { got = append(got, w[0]) })
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("concat order: %v", got)
	}
	src.(Resettable).Reset()
	if n := Drain(src, func(Word) {}); n != 3 {
		t.Fatalf("reset drained %d", n)
	}
}

func TestConcatShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Concat(NewTable(1, 2).Source(), NewTable(2, 2).Source())
}
