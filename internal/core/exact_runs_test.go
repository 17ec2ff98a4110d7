package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/freq"
	"repro/internal/rng"
	"repro/internal/words"
)

// The sharing contract of Exact's row runs: Merge adopts the donor's
// runs by reference, and neither side's later appends may show up in
// the other's rows.

// grownExact returns an exact summary whose own tail has spare
// capacity, so its next append writes in place rather than
// reallocating — the case where a shared array could be overwritten.
func grownExact(t *testing.T, seed uint64) *Exact {
	t.Helper()
	e := mustExact(t, 10, 2)
	for tb := testData(37, seed); e.n < 500; {
		e.ObserveBatch(tb.Batch())
	}
	if r := e.runs[len(e.runs)-1]; !e.own || cap(r) == len(r) {
		t.Fatalf("fixture tail has no spare capacity (len %d, cap %d)", len(r), cap(r))
	}
	return e
}

// flatExact is the reference: the concatenated rows appended to one
// contiguous words.Table, encoded as a single-run summary.
func flatExact(t *testing.T, tb *words.Table) []byte {
	t.Helper()
	e := mustExact(t, tb.Dim(), tb.Alphabet())
	e.ObserveBatch(tb.Batch())
	return mustMarshal(t, e)
}

func TestExactDonorAppendsAfterMergeAreInvisible(t *testing.T) {
	a := grownExact(t, 1)
	m := mustExact(t, 10, 2)
	if err := m.Merge(a); err != nil {
		t.Fatal(err)
	}
	blob := mustMarshal(t, m)
	c := words.MustColumnSet(10, 0, 1, 2)
	before := m.Vector(c)
	for i := range 5 {
		a.ObserveBatch(testData(50, uint64(10+i)).Batch())
	}
	if !bytes.Equal(mustMarshal(t, m), blob) {
		t.Fatal("the donor's appends after the merge changed the merged rows")
	}
	m.memo = nil // force a fresh pass over the shared rows
	if !sameVector(m.Vector(c), before) {
		t.Fatal("the merged vector moved with the donor's appends")
	}
}

func TestExactReceiverAppendsDoNotTouchDonor(t *testing.T) {
	a := grownExact(t, 2)
	ref := a.Table()
	m := mustExact(t, 10, 2)
	if err := m.Merge(a); err != nil {
		t.Fatal(err)
	}
	donorBlob := mustMarshal(t, a)
	extra := testData(40, 20)
	m.ObserveBatch(extra.Batch())
	if !bytes.Equal(mustMarshal(t, a), donorBlob) {
		t.Fatal("the receiver's append changed the donor's rows")
	}
	// The donor now appends in place into its spare capacity — exactly
	// where an uncapped shared run would have let the receiver write.
	a.ObserveBatch(testData(40, 21).Batch())
	ref.AppendBatch(extra.Batch())
	if !bytes.Equal(mustMarshal(t, m), flatExact(t, ref)) {
		t.Fatal("the donor's append overwrote the receiver's rows")
	}
}

func TestExactAdoptedRunsAreSealed(t *testing.T) {
	a, b := grownExact(t, 3), grownExact(t, 4)
	m := grownExact(t, 5)
	for _, donor := range []*Exact{a, b} {
		if err := m.Merge(donor); err != nil {
			t.Fatal(err)
		}
	}
	if m.own {
		t.Fatal("after a merge the last run is the donor's, not the receiver's own tail")
	}
	if len(m.runs) != 3 {
		t.Fatalf("merged summary holds %d runs, want 3 (its own sealed tail and one per donor)", len(m.runs))
	}
	for i, r := range m.runs {
		if len(r) != cap(r) {
			t.Fatalf("run %d has len %d, cap %d: an append could write into a shared array", i, len(r), cap(r))
		}
	}
	// Merging an empty donor adopts nothing and keeps the own tail.
	m.ObserveBatch(testData(3, 6).Batch())
	if err := m.Merge(mustExact(t, 10, 2)); err != nil {
		t.Fatal(err)
	}
	if !m.own || len(m.runs) != 4 {
		t.Fatalf("empty donor: own %v, %d runs, want own tail and 4 runs", m.own, len(m.runs))
	}
}

// TestExactRunsMatchFlatConcatenation drives random observes and
// merges among a few summaries, mirroring each in a contiguous
// words.Table, and checks every summary's encoding, row count, copy
// and vectors against its reference after every step.
func TestExactRunsMatchFlatConcatenation(t *testing.T) {
	const n = 4
	c := words.MustColumnSet(10, 1, 4, 6, 9)
	for seed := uint64(1); seed <= 40; seed++ {
		src := rng.New(seed)
		sums := make([]*Exact, n)
		refs := make([]*words.Table, n)
		for i := range sums {
			sums[i] = mustExact(t, 10, 2)
			refs[i] = words.NewTable(10, 2)
		}
		for step := range 30 {
			i := src.Intn(n)
			if j := src.Intn(n); j != i && src.Bool() {
				if err := sums[i].Merge(sums[j]); err != nil {
					t.Fatal(err)
				}
				refs[i].AppendBatch(refs[j].Batch())
			} else {
				tb := testData(src.Intn(60), src.Uint64())
				sums[i].ObserveBatch(tb.Batch())
				refs[i].AppendBatch(tb.Batch())
			}
			for k, s := range sums {
				if !bytes.Equal(mustMarshal(t, s), flatExact(t, refs[k])) {
					t.Fatalf("seed %d step %d: summary %d encodes differently from its flat reference", seed, step, k)
				}
				if s.Rows() != int64(refs[k].NumRows()) || s.SizeBytes() != refs[k].SizeBytes() {
					t.Fatalf("seed %d step %d: summary %d counts %d rows / %d bytes, reference %d / %d",
						seed, step, k, s.Rows(), s.SizeBytes(), refs[k].NumRows(), refs[k].SizeBytes())
				}
			}
		}
		for k, s := range sums {
			if !bytes.Equal(flatExact(t, s.Table()), flatExact(t, refs[k])) {
				t.Fatalf("seed %d: summary %d's Table copy differs from its reference", seed, k)
			}
			if !sameVector(s.Vector(c), freq.FromTable(refs[k], c)) {
				t.Fatalf("seed %d: summary %d's vector differs from its reference", seed, k)
			}
		}
	}
}

func TestExactTableIsACopy(t *testing.T) {
	e := grownExact(t, 7)
	blob := mustMarshal(t, e)
	tb := e.Table()
	tb.Append(make(words.Word, 10))
	if tb.NumRows() != int(e.Rows())+1 || !bytes.Equal(mustMarshal(t, e), blob) {
		t.Fatal("appending to Table's result changed the summary")
	}
}

func TestDecodeExactNamesRowAndSymbol(t *testing.T) {
	e := mustExact(t, 3, 4)
	e.ObserveBatch(words.BatchOf(3, []uint16{0, 1, 2, 3, 3, 3, 1, 0, 2}))
	blob := mustMarshal(t, e)
	blob[envelopeSize+2*7] = 9 // row 2, column 1
	_, err := UnmarshalSummary(blob)
	if !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("out-of-alphabet symbol: %v, want ErrBadEncoding", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "row 2") || !strings.Contains(msg, "symbol 9") {
		t.Fatalf("error %q does not name the row and the symbol", msg)
	}
}
