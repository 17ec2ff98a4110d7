package words

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewColumnSetValidation(t *testing.T) {
	if _, err := NewColumnSet(4, 0, 4); err == nil {
		t.Fatal("out-of-range column must error")
	}
	if _, err := NewColumnSet(4, -1); err == nil {
		t.Fatal("negative column must error")
	}
	if _, err := NewColumnSet(-1); err == nil {
		t.Fatal("negative dimension must error")
	}
	c, err := NewColumnSet(5, 3, 1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || !c.Contains(1) || !c.Contains(3) {
		t.Fatalf("dedup failed: %v", c)
	}
}

func TestColumnSetImmutableInput(t *testing.T) {
	in := []int{2, 0}
	c := MustColumnSet(3, in...)
	in[0] = 1
	if !c.Contains(2) {
		t.Fatal("constructor must copy its input")
	}
	cols := c.Columns()
	cols[0] = 99
	if !c.Contains(0) {
		t.Fatal("Columns must return a copy")
	}
}

// maskPair generates two random masks over a shared small dimension.
func maskPair(a, b uint64, dRaw uint8) (uint64, uint64, int) {
	d := 1 + int(dRaw%20)
	m := uint64(1)<<uint(d) - 1
	return a & m, b & m, d
}

func TestSetAlgebraAgainstMasks(t *testing.T) {
	f := func(aRaw, bRaw uint64, dRaw uint8) bool {
		am, bm, d := maskPair(aRaw, bRaw, dRaw)
		a, err := ColumnSetFromMask(am, d)
		if err != nil {
			return false
		}
		b, err := ColumnSetFromMask(bm, d)
		if err != nil {
			return false
		}
		return a.Diff(b).Mask() == am&^bm &&
			a.Complement().Mask() == ^am&(uint64(1)<<uint(d)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaskRoundTrip(t *testing.T) {
	f := func(mRaw uint64, dRaw uint8) bool {
		d := 1 + int(dRaw%64)
		m := mRaw
		if d < 64 {
			m &= uint64(1)<<uint(d) - 1
		}
		c, err := ColumnSetFromMask(m, d)
		return err == nil && c.Mask() == m && c.Len() == bits.OnesCount64(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColumnSetFromMaskValidation(t *testing.T) {
	if _, err := ColumnSetFromMask(1<<6, 6); err == nil {
		t.Fatal("mask bits outside [d] must error")
	}
	if _, err := ColumnSetFromMask(0, 65); err == nil {
		t.Fatal("d > 64 must error")
	}
}

func TestFullColumnSet(t *testing.T) {
	c := FullColumnSet(5)
	if c.Len() != 5 || c.Dim() != 5 {
		t.Fatalf("full set: %v", c)
	}
	if c.Complement().Len() != 0 {
		t.Fatal("complement of full set must be empty")
	}
}

func TestSubsetAndEqual(t *testing.T) {
	a := MustColumnSet(6, 1, 3)
	if !a.Equal(MustColumnSet(6, 3, 1)) {
		t.Fatal("order must not matter")
	}
	if a.Equal(MustColumnSet(7, 1, 3)) {
		t.Fatal("dimension must matter")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	MustColumnSet(4, 1).Diff(MustColumnSet(5, 1))
}

func TestColumnSetString(t *testing.T) {
	if s := MustColumnSet(8, 0, 2, 5).String(); s != "{0,2,5}/8" {
		t.Fatalf("String = %q", s)
	}
}
