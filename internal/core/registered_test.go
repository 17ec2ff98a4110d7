package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/freq"
	"repro/internal/words"
)

// registeredFixture builds one Registered per column set of a
// d = 10 table and feeds each the same 4,000 rows.
func registeredFixture(t *testing.T) ([]*Registered, *words.Table, []words.ColumnSet) {
	t.Helper()
	subsets := []words.ColumnSet{
		words.MustColumnSet(10, 0, 1),
		words.MustColumnSet(10, 2, 3, 4),
		words.MustColumnSet(10, 5, 6, 7, 8),
	}
	tb := testData(4000, 21)
	var sums []*Registered
	for _, c := range subsets {
		s, err := NewRegistered(10, 2, c, RegisteredConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		feed(s, tb)
		sums = append(sums, s)
	}
	return sums, tb, subsets
}

func TestRegisteredF0Accuracy(t *testing.T) {
	sums, tb, subsets := registeredFixture(t)
	for i, c := range subsets {
		got, err := sums[i].F0(c)
		if err != nil {
			t.Fatal(err)
		}
		truth := float64(freq.FromTable(tb, c).Support())
		if math.Abs(got-truth)/truth > 0.1 {
			t.Fatalf("F0(%v) = %v, truth %v", c, got, truth)
		}
	}
}

func TestRegisteredRejectsUnknownSubset(t *testing.T) {
	sums, _, subsets := registeredFixture(t)
	s := sums[0]
	for _, c := range []words.ColumnSet{words.MustColumnSet(10, 0, 2), subsets[1]} {
		if _, err := s.F0(c); !errors.Is(err, ErrUnsupported) {
			t.Fatalf("unregistered subset %v: %v", c, err)
		}
	}
	if _, err := s.F0(words.MustColumnSet(9, 0)); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestRegisteredValidation(t *testing.T) {
	if _, err := NewRegistered(8, 2, words.MustColumnSet(9, 0), RegisteredConfig{}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	if _, err := NewRegistered(8, 2, words.MustColumnSet(8), RegisteredConfig{}); err == nil {
		t.Fatal("empty subset must error")
	}
	if _, err := NewRegistered(8, 2, words.MustColumnSet(8, 0), RegisteredConfig{Epsilon: 3}); err == nil {
		t.Fatal("bad epsilon must error")
	}
}

func TestNetMergeEqualsWholeStream(t *testing.T) {
	tb := testData(2000, 25)
	cfg := NetConfig{Alpha: 0.3, Epsilon: 0.2, Seed: 9}
	mk := func() *Net {
		s, err := NewNet(10, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	whole, a, b := mk(), mk(), mk()
	src := tb.Source()
	i := 0
	for {
		w, ok := src.Next()
		if !ok {
			break
		}
		whole.Observe(w)
		if i%2 == 0 {
			a.Observe(w)
		} else {
			b.Observe(w)
		}
		i++
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Rows() != whole.Rows() {
		t.Fatalf("merged rows %d != %d", a.Rows(), whole.Rows())
	}
	for _, cols := range [][]int{{0, 1}, {0, 1, 2, 3, 4}, {5, 6, 7}} {
		c := words.MustColumnSet(10, cols...)
		ma, err1 := a.F0(c)
		mw, err2 := whole.F0(c)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		// KMV merge is exactly the union of retained minima.
		if ma != mw {
			t.Fatalf("merged F0 %v != whole-stream F0 %v on %v", ma, mw, cols)
		}
	}
}

func TestNetMergeValidation(t *testing.T) {
	a, _ := NewNet(10, 2, NetConfig{Alpha: 0.3, Seed: 1})
	b, _ := NewNet(10, 2, NetConfig{Alpha: 0.3, Seed: 2})
	if err := a.Merge(b); err == nil {
		t.Fatal("different seeds must refuse to merge")
	}
	c, _ := NewNet(10, 2, NetConfig{Alpha: 0.25, Seed: 1})
	if err := a.Merge(c); err == nil {
		t.Fatal("different alpha must refuse to merge")
	}
	d, _ := NewNet(11, 2, NetConfig{Alpha: 0.3, Seed: 1})
	if err := a.Merge(d); err == nil {
		t.Fatal("different dimension must refuse to merge")
	}
}
