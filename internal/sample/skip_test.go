package sample

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/wire"
	"repro/internal/words"
)

// positionPacking is the row layout of positionBatch's rows: one
// symbol over the largest alphabet.
var positionPacking = words.NewPacking(1, words.MaxAlphabet)

// keptRows unpacks the sampler's slots into a batch, one row a slot in
// slot order, or none before any row was seen.
func keptRows(s *WithReplacement) *words.Batch {
	d := s.pk.Dim()
	if s.rows == nil {
		return words.NewBatch(d, 0)
	}
	syms := make([]uint16, s.t*d)
	s.pk.Unpack(syms, s.rows)
	return words.BatchOf(d, syms)
}

// positionBatch returns rows 1..n of a stream whose row at stream
// position p is the one-symbol word {p − 1}, so a kept row names the
// position it was accepted at.
func positionBatch(n int) *words.Batch {
	b := words.NewBatch(1, n)
	for i := 0; i < n; i++ {
		b.Append(words.Word{uint16(i)})
	}
	return b
}

// chiSquareLimit is the Wilson–Hilferty approximation of the χ²
// quantile with df degrees of freedom whose upper tail is 1e-6
// (z = 4.753); lower gives the matching lower quantile.
func chiSquareLimit(df int, lower bool) float64 {
	z := 4.753
	if lower {
		z = -z
	}
	k := float64(df)
	a := 2 / (9 * k)
	return k * math.Pow(1-a+z*math.Sqrt(a), 3)
}

func mustRoundTrip(t *testing.T, s *WithReplacement) *WithReplacement {
	t.Helper()
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(s.pk, blob)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKeptPositionUniform: every slot holds a uniform draw from the
// stream. Over seeds × slots the kept stream position is bucketed into
// 40 equal bins and held to a χ² test (39 df, upper tail 1e-6), for
// four ways of feeding the same stream: one row at a time, random
// batch cuts (empty batches included), a merge of two samplers in the
// middle of the stream, and a wire round trip in the middle of it.
func TestKeptPositionUniform(t *testing.T) {
	const n, slots, seeds, bins = 4000, 100, 60, 40
	rows := positionBatch(n)
	feeds := map[string]func(seed uint64) *WithReplacement{
		"per-row": func(seed uint64) *WithReplacement {
			s := NewWithReplacementPacked(positionPacking, slots, seed)
			for i := 0; i < n; i++ {
				s.ObserveBatch(words.RowBatch(rows.Row(i)))
			}
			return s
		},
		"random-cuts": func(seed uint64) *WithReplacement {
			s := NewWithReplacementPacked(positionPacking, slots, seed)
			cut := rng.New(seed ^ 0xc0ffee)
			for i := 0; i < n; {
				j := min(n, i+cut.Intn(300))
				s.ObserveBatch(rows.Slice(i, j))
				i = j
			}
			return s
		},
		"merge": func(seed uint64) *WithReplacement {
			cut := rng.New(seed ^ 0xbeef)
			c1 := 1 + cut.Intn(n/2)
			c2 := c1 + 1 + cut.Intn(n/2-1)
			s := NewWithReplacementPacked(positionPacking, slots, seed)
			s.ObserveBatch(rows.Slice(0, c1))
			peer := NewWithReplacementPacked(positionPacking, slots, seed+1<<32)
			peer.ObserveBatch(rows.Slice(c1, c2))
			if err := s.Merge(peer); err != nil {
				t.Fatal(err)
			}
			s.ObserveBatch(rows.Slice(c2, n))
			return s
		},
		"round-trip": func(seed uint64) *WithReplacement {
			c := 1 + rng.New(seed^0xfeed).Intn(n-1)
			s := NewWithReplacementPacked(positionPacking, slots, seed)
			s.ObserveBatch(rows.Slice(0, c))
			s = mustRoundTrip(t, s)
			s.ObserveBatch(rows.Slice(c, n))
			return s
		},
	}
	limit := chiSquareLimit(bins-1, false)
	for name, feed := range feeds {
		var count [bins]int
		for seed := uint64(1); seed <= seeds; seed++ {
			s := feed(seed)
			if s.Seen() != n {
				t.Fatalf("%s: seen %d rows, want %d", name, s.Seen(), n)
			}
			kept := keptRows(s)
			for i := range kept.Len() {
				count[int(kept.Row(i)[0])*bins/n]++
			}
		}
		want := float64(slots*seeds) / bins
		chi := 0.0
		for _, c := range count {
			chi += (float64(c) - want) * (float64(c) - want) / want
		}
		t.Logf("%s: χ² = %.1f on %d df (limit %.1f)", name, chi, bins-1, limit)
		if chi > limit {
			t.Errorf("%s: kept positions are not uniform: χ² = %.1f on %d df, limit %.1f; bins %v", name, chi, bins-1, limit, count)
		}
	}
}

// TestSlotsIndependent: with independent slots, the sample count of a
// pattern of share p is Bin(t, p), so the estimated share's variance
// across seeds is p(1 − p)/t. Slots that shared draws would inflate
// it. The sample variance over S seeds is held to the χ²_{S−1} band
// with both tails at 1e-6.
func TestSlotsIndependent(t *testing.T) {
	const n, slots, seeds = 8000, 400, 400
	b := words.NewBatch(1, n)
	for i := 0; i < n; i++ {
		b.Append(words.Word{uint16(i % 8)})
	}
	const p = 3.0 / 8 // rows with symbol < 3
	var sum, sumSq float64
	for seed := uint64(1); seed <= seeds; seed++ {
		s := NewWithReplacementPacked(words.NewPacking(1, 8), slots, seed)
		for i := 0; i < n; i += 256 {
			s.ObserveBatch(b.Slice(i, min(i+256, n)))
		}
		g := 0
		kept := keptRows(s)
		for i := range kept.Len() {
			if kept.Row(i)[0] < 3 {
				g++
			}
		}
		share := float64(g) / slots
		sum += share
		sumSq += share * share
	}
	mean := sum / seeds
	variance := (sumSq - seeds*mean*mean) / (seeds - 1)
	want := p * (1 - p) / slots
	lo := chiSquareLimit(seeds-1, true) / (seeds - 1)
	hi := chiSquareLimit(seeds-1, false) / (seeds - 1)
	t.Logf("sd %.4f, binomial sd %.4f, ratio of variances %.3f (band %.3f–%.3f)", math.Sqrt(variance), math.Sqrt(want), variance/want, lo, hi)
	if r := variance / want; r < lo || r > hi {
		t.Fatalf("estimate variance %.3g is %.3f× the binomial %.3g, outside %.3f–%.3f", variance, r, want, lo, hi)
	}
	if math.Abs(mean-p) > 6*math.Sqrt(want/seeds) {
		t.Fatalf("mean share %.4f, want %.4f", mean, p)
	}
}

// TestObserveBatchAllocatesNothingWithoutAcceptance: a batch that ends
// before every slot's next acceptance only advances the row count.
func TestObserveBatchAllocatesNothingWithoutAcceptance(t *testing.T) {
	const runs = 50
	s := NewWithReplacementPacked(positionPacking, 150, 3)
	rows := positionBatch(256)
	// Feed until the earliest pending acceptance lies more than runs+1
	// rows ahead, which happens once seen ≫ t.
	for s.minNext <= uint64(s.seen)+runs+2 {
		s.ObserveBatch(rows)
	}
	one := rows.Slice(0, 1)
	before := s.seen
	if allocs := testing.AllocsPerRun(runs, func() { s.ObserveBatch(one) }); allocs != 0 {
		t.Fatalf("ObserveBatch without an acceptance allocated %v times", allocs)
	}
	if s.seen != before+runs+1 {
		t.Fatalf("seen advanced by %d, want %d", s.seen-before, runs+1)
	}
}

// TestSkipDistribution: from position m the next acceptance exceeds
// m′ with probability m/m′.
func TestSkipDistribution(t *testing.T) {
	const draws, m = 200000, 1000
	sl := slot{src: *rng.NewSplitMix64(9)}
	var past2m, past10m int
	for i := 0; i < draws; i++ {
		sl.skip(m)
		if sl.next <= m {
			t.Fatalf("skip from %d drew next %d", m, sl.next)
		}
		if sl.next > 2*m {
			past2m++
		}
		if sl.next > 10*m {
			past10m++
		}
	}
	for _, c := range []struct {
		got  int
		want float64
	}{{past2m, 0.5}, {past10m, 0.1}} {
		sd := math.Sqrt(c.want * (1 - c.want) / draws)
		if got := float64(c.got) / draws; math.Abs(got-c.want) > 6*sd {
			t.Errorf("P(next > m′) = %.4f, want %.4f", got, c.want)
		}
	}
	// The largest gap saturates instead of wrapping.
	sl.skip(1 << 62)
	if sl.next <= 1<<62 {
		t.Fatalf("skip from 2^62 wrapped to %d", sl.next)
	}
}

// TestMergeDrawsOnlyOnTake: a slot keeps its own row exactly when its
// pending acceptance lies past the merged count, and then keeps its
// state untouched; a slot that takes the peer's row redraws its next
// acceptance past the merged count.
func TestMergeDrawsOnlyOnTake(t *testing.T) {
	rows := positionBatch(2000)
	s := NewWithReplacementPacked(positionPacking, 200, 1)
	s.ObserveBatch(rows.Slice(0, 1000))
	peer := NewWithReplacementPacked(positionPacking, 200, 2)
	peer.ObserveBatch(rows.Slice(1000, 2000))
	before := append([]slot(nil), s.slots...)
	if err := s.Merge(peer); err != nil {
		t.Fatal(err)
	}
	kept, peers := keptRows(s), keptRows(peer)
	took := 0
	for i, sl := range s.slots {
		if sl.next <= 2000 {
			t.Fatalf("slot %d: next %d not past the 2000 merged rows", i, sl.next)
		}
		switch {
		case before[i].next <= 2000:
			took++
			if !kept.Row(i).Equal(peers.Row(i)) {
				t.Fatalf("slot %d holds %v, not the peer's %v", i, kept.Row(i), peers.Row(i))
			}
		case sl != before[i] || kept.Row(i)[0] >= 1000:
			t.Fatalf("slot %d kept its row but changed state", i)
		}
	}
	// Each slot takes the peer's row with probability 1/2.
	if took < 60 || took > 140 {
		t.Fatalf("%d of 200 slots took the peer's row, want about 100", took)
	}
}

// TestUnmarshalRejectsUnreachableSlots: both decoders, of the packed
// slab and of the earlier u16 rows, refuse slots no sampler can reach,
// a row the layout cannot hold, and a slot count the blob cannot hold.
func TestUnmarshalRejectsUnreachableSlots(t *testing.T) {
	pk := words.NewPacking(1, 4)
	// build writes t slots whose next acceptance is next after seen
	// rows; with row set each slot holds the one-symbol row {sym}, as
	// a packed byte or as a u16 row behind its length.
	build := func(u16 bool, t, seen, next uint64, row bool, sym uint16) []byte {
		w := wire.NewWriter(0)
		w.U32(uint32(t))
		w.I64(int64(seen))
		for i := uint64(0); i < t; i++ {
			w.U64(7)
			w.U64(next)
		}
		for i := uint64(0); i < t; i++ {
			switch {
			case row && u16:
				w.U32(1)
				w.U16(sym)
			case row:
				w.U8(uint8(sym))
			case u16:
				w.U32(nilRow)
			}
		}
		return w.Bytes()
	}
	for name, decode := range map[string]func(words.Packing, []byte) (*WithReplacement, error){"packed": Decode, "u16": DecodeU16} {
		u16 := name == "u16"
		good := build(u16, 2, 5, 6, true, 1)
		s, err := decode(pk, good)
		if err != nil {
			t.Fatalf("%s: reachable state refused: %v", name, err)
		}
		if kept := keptRows(s); kept.Len() != 2 || kept.Row(1)[0] != 1 {
			t.Fatalf("%s: decoded rows %v", name, kept.Symbols())
		}
		// 4 is outside [4] as a u16 symbol and a set padding bit as a
		// packed byte.
		for what, blob := range map[string][]byte{
			"next at seen":          build(u16, 2, 5, 5, true, 1),
			"next before seen":      build(u16, 2, 5, 2, true, 1),
			"fresh slot skips row":  build(u16, 2, 0, 2, false, 0),
			"row before any seen":   build(u16, 2, 0, 1, true, 1),
			"seen without a row":    build(u16, 2, 5, 6, false, 0),
			"row outside layout":    build(u16, 2, 5, 6, true, 4),
			"t beyond the blob":     good[:len(good)-1],
			"trailing bytes":        append(append([]byte(nil), good...), 0),
			"empty with a row byte": append(build(u16, 1, 0, 1, false, 0), 0),
		} {
			if _, err := decode(pk, blob); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, %s: %v, want ErrCorrupt", name, what, err)
			}
		}
	}
}

// TestRoundTripIsExact: a decoded sampler re-encodes to the same bytes
// and continues exactly as the original.
func TestRoundTripIsExact(t *testing.T) {
	rows := positionBatch(3000)
	a := NewWithReplacementPacked(positionPacking, 64, 5)
	a.ObserveBatch(rows.Slice(0, 1234))
	b := mustRoundTrip(t, a)
	a.ObserveBatch(rows.Slice(1234, 3000))
	b.ObserveBatch(rows.Slice(1234, 3000))
	x, _ := a.MarshalBinary()
	y, _ := b.MarshalBinary()
	if !bytes.Equal(x, y) {
		t.Fatal("a decoded sampler diverged from the original")
	}
}
