package words

import (
	"testing"
)

func TestBatchAppendAndRows(t *testing.T) {
	b := NewBatch(3, 2)
	if b.Dim() != 3 || b.Len() != 0 {
		t.Fatalf("fresh batch: dim %d len %d", b.Dim(), b.Len())
	}
	b.Append(Word{1, 2, 3})
	b.Append(Word{4, 5, 6})
	if b.Len() != 2 {
		t.Fatalf("len %d, want 2", b.Len())
	}
	if !b.Row(0).Equal(Word{1, 2, 3}) || !b.Row(1).Equal(Word{4, 5, 6}) {
		t.Fatalf("rows %v, %v", b.Row(0), b.Row(1))
	}
	// Append copies: mutating the source must not change the batch.
	src := Word{7, 8, 9}
	b.Append(src)
	src[0] = 99
	if !b.Row(2).Equal(Word{7, 8, 9}) {
		t.Fatalf("batch aliases appended row: %v", b.Row(2))
	}
}

func TestBatchAppendRowInPlace(t *testing.T) {
	b := NewBatch(2, 4)
	row := b.AppendRow()
	if len(row) != 2 || row[0] != 0 || row[1] != 0 {
		t.Fatalf("AppendRow must return a zeroed row, got %v", row)
	}
	row[0], row[1] = 3, 4
	if !b.Row(0).Equal(Word{3, 4}) {
		t.Fatalf("in-place fill lost: %v", b.Row(0))
	}
}

func TestBatchSliceSharesStorage(t *testing.T) {
	b := NewBatch(2, 4)
	for i := uint16(0); i < 4; i++ {
		b.Append(Word{i, i + 10})
	}
	s := b.Slice(1, 3)
	if s.Len() != 2 || s.Dim() != 2 {
		t.Fatalf("slice shape %d×%d", s.Len(), s.Dim())
	}
	if !s.Row(0).Equal(Word{1, 11}) || !s.Row(1).Equal(Word{2, 12}) {
		t.Fatalf("slice rows %v, %v", s.Row(0), s.Row(1))
	}
	// Views alias; Clone does not.
	c := b.Clone()
	b.Row(0)[0] = 77
	if s2 := b.Slice(0, 1); s2.Row(0)[0] != 77 {
		t.Fatal("Slice must alias the batch")
	}
	if c.Row(0)[0] != 0 {
		t.Fatal("Clone must not alias the batch")
	}
}

func TestBatchOfAndSymbols(t *testing.T) {
	flat := []uint16{1, 2, 3, 4, 5, 6}
	b := BatchOf(3, flat)
	if b.Len() != 2 || !b.Row(1).Equal(Word{4, 5, 6}) {
		t.Fatalf("BatchOf: len %d row %v", b.Len(), b.Row(1))
	}
	if got := b.Symbols(); len(got) != 6 || &got[0] != &flat[0] {
		t.Fatal("Symbols must return the backing array")
	}
}

func TestBatchResetKeepsCapacity(t *testing.T) {
	b := NewBatch(4, 8)
	for i := 0; i < 8; i++ {
		b.Append(make(Word, 4))
	}
	before := cap(b.Symbols())
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("len after reset %d", b.Len())
	}
	for i := 0; i < 8; i++ {
		b.Append(make(Word, 4))
	}
	if cap(b.Symbols()) != before {
		t.Fatalf("reset lost capacity: %d -> %d", before, cap(b.Symbols()))
	}
}

func TestBatchShapePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("NewBatch d=0", func() { NewBatch(0, 4) })
	mustPanic("BatchOf ragged", func() { BatchOf(3, make([]uint16, 4)) })
	mustPanic("Append wrong width", func() {
		b := NewBatch(3, 1)
		b.Append(Word{1, 2})
	})
	mustPanic("AppendBatch wrong dim", func() {
		tb := NewTable(2, 4)
		tb.AppendBatch(NewBatch(3, 1))
	})
}

func TestTableAppendBatch(t *testing.T) {
	tb := NewTable(2, 4)
	tb.Append(Word{3, 3})
	b := NewBatch(2, 2)
	b.Append(Word{0, 1})
	b.Append(Word{2, 0})
	tb.AppendBatch(b)
	if tb.NumRows() != 3 {
		t.Fatalf("rows %d, want 3", tb.NumRows())
	}
	if !tb.Row(1).Equal(Word{0, 1}) || !tb.Row(2).Equal(Word{2, 0}) {
		t.Fatalf("batch rows lost: %v, %v", tb.Row(1), tb.Row(2))
	}
	// The table copied the batch: later batch reuse must not reach it.
	b.Row(0)[0] = 9
	if !tb.Row(1).Equal(Word{0, 1}) {
		t.Fatal("table aliases batch storage")
	}
}
