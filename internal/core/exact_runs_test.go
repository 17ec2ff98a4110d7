package core

import (
	"bytes"
	"errors"
	"runtime"
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
				if packed := refs[k].NumRows() * s.pk.Stride(); s.Rows() != int64(refs[k].NumRows()) || s.SizeBytes() != packed {
					t.Fatalf("seed %d step %d: summary %d counts %d rows / %d bytes, reference %d / %d",
						seed, step, k, s.Rows(), s.SizeBytes(), refs[k].NumRows(), packed)
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

// TestDecodeExactNamesRowAndSymbol: a symbol outside the alphabet, in
// either payload layout, and a set padding bit are refused typed, the
// error naming the row and what is wrong with it.
func TestDecodeExactNamesRowAndSymbol(t *testing.T) {
	syms := []uint16{0, 1, 2, 2, 2, 2, 1, 0, 2}
	e := mustExact(t, 3, 3) // 2 bits a symbol, one byte a row
	e.ObserveBatch(words.BatchOf(3, syms))
	packed := mustMarshal(t, e)
	legacy, err := appendEnvelope(KindExact, 3, 3, 0, 3, words.AppendSymbolsLE(nil, syms))
	if err != nil {
		t.Fatal(err)
	}
	outside := bytes.Clone(packed)
	outside[envelopeSize+2] |= 3 << 2 // row 2, column 1
	padding := bytes.Clone(packed)
	padding[envelopeSize+1] |= 1 << 7 // row 1
	legacy[envelopeSize+2*7] = 9      // row 2, column 1
	for _, c := range []struct {
		name string
		blob []byte
		want []string
	}{
		{"packed symbol", outside, []string{"row 2", "symbol 3"}},
		{"packed padding", padding, []string{"row 1", "padding"}},
		{"u16 symbol", legacy, []string{"row 2", "symbol 9"}},
	} {
		_, err := UnmarshalSummary(c.blob)
		if !errors.Is(err, ErrBadEncoding) {
			t.Fatalf("%s: %v, want ErrBadEncoding", c.name, err)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("%s: error %q does not say %q", c.name, err, w)
			}
		}
	}
}

// TestExactMergeStrandsNoSpareRoom: rows observed and merged in turns,
// as a node's shard takes pushes between batches, keep about the bytes
// they pack. A merge closes the receiver's own tail for good, so the
// tail's spare room would otherwise stay allocated under every merge.
func TestExactMergeStrandsNoSpareRoom(t *testing.T) {
	const turns = 200
	donors := make([]Summary, turns)
	for i := range donors {
		d := mustExact(t, 10, 2)
		d.ObserveBatch(testData(10, uint64(i)).Batch())
		s, err := UnmarshalSummary(mustMarshal(t, d)) // as a push decodes it
		if err != nil {
			t.Fatal(err)
		}
		donors[i] = s
	}
	rows := testData(10, 99).Batch()
	e := mustExact(t, 10, 2)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, d := range donors {
		e.ObserveBatch(rows)
		if err := e.Merge(d); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Fatalf("%d turns of 10 observed and 10 merged rows (%d bytes packed) hold %d more heap bytes",
			turns, e.SizeBytes(), grown)
	}
	runtime.KeepAlive(donors)
}
