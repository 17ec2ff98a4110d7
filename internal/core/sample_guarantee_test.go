package core

import (
	"math"
	"testing"

	"repro/internal/freq"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/words"
	"repro/internal/workload"
)

// The Sample guarantee gate (Theorem 5.1 and Corollary 5.2) runs at
// the benchmark's accuracy, ε = 0.2 and δ = 0.1, and φ = 0.5 for the
// ℓ₁ heavy hitters.
const (
	gateEps, gateDelta = 0.2, 0.1
	gatePhi            = 0.5
	gateSeeds          = 100
	gateShards         = 4
	// gateAlpha is the chance that one tally of a correct sampler
	// exceeds its binomial limit on this seed list.
	gateAlpha = 1e-6
)

// gateHHEvents is K, the number of events the heavy-hitter union
// bound needs (see TestSampleGuarantee), at c = φ − ε.
func gateHHEvents() int {
	c := gatePhi - gateEps
	return int(math.Floor(1/c)) + int(math.Floor(2/c)) + 2
}

// binomialTailLimit returns the smallest k with P(Bin(n, p) > k) ≤
// alpha, by summing the exact binomial pmf upward from zero.
func binomialTailLimit(n int, p, alpha float64) int {
	pmf := math.Pow(1-p, float64(n))
	cdf := pmf
	for k := 0; k < n; k++ {
		if 1-cdf <= alpha {
			return k
		}
		pmf *= float64(n-k) / float64(k+1) * p / (1 - p)
		cdf += pmf
	}
	return n
}

// gateTrial is one seed's stream and the two queries asked of it: a
// point frequency f_b(C) and the φ-ℓ₁ heavy hitters on C.
type gateTrial struct {
	d, q  int
	rows  *words.Batch
	point words.ColumnSet
	b     words.Word
	hh    words.ColumnSet
}

// gateStreams returns the trial for seed s of each stream: one fixed
// Zipf stream whose queries rotate with s, and a fresh Theorem 5.3
// instance per seed, y ∈ T on even seeds, queried at S = [d] \ supp(y)
// for the candidate 0_S.
func gateStreams(t *testing.T) map[string]func(s int) gateTrial {
	t.Helper()
	const d, q, n = 16, 4, 4096
	zipf := words.Collect(workload.ZipfPatterns(d, q, n, 64, 1.1, 1), -1).Batch()
	colSets := []words.ColumnSet{
		words.MustColumnSet(d, 0),
		words.MustColumnSet(d, 0, 1, 2),
		words.MustColumnSet(d, 3, 7, 11, 15),
		words.FullColumnSet(d),
	}
	return map[string]func(s int) gateTrial{
		"zipf": func(s int) gateTrial {
			c := colSets[s%len(colSets)]
			return gateTrial{
				d: d, q: q, rows: zipf,
				point: c,
				b:     words.KeyToWord(string(words.AppendKey(nil, zipf.Row(s*7919%n), c))),
				hh:    colSets[(s+1)%len(colSets)],
			}
		},
		"hh-instance": func(s int) gateTrial {
			inst, err := workload.NewHHInstance(workload.HHParams{D: 32, Eps: 0.25, Gamma: 0.05, TSize: 6, InT: s%2 == 0}, rng.New(uint64(s)))
			if err != nil {
				t.Fatal(err)
			}
			src, err := inst.Source()
			if err != nil {
				t.Fatal(err)
			}
			return gateTrial{
				d: inst.D, q: 2, rows: words.Collect(src, -1).Batch(),
				point: inst.Query, b: inst.ZeroPattern(), hh: inst.Query,
			}
		},
	}
}

// gateFeed streams rows [lo, hi) of b into s in 256-row batches.
func gateFeed(s Summary, b *words.Batch, lo, hi int) {
	for i := lo; i < hi; i += 256 {
		s.ObserveBatch(b.Slice(i, min(i+256, hi)))
	}
}

func gateRoundTrip(t *testing.T, s Summary) Summary {
	t.Helper()
	blob, err := MarshalSummary(s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// gateVariants builds the three summaries a trial judges, each of
// size tSlots: "direct" sees the whole stream; "merged" is gateShards
// independently seeded samplers over contiguous quarters, merged as an
// epoch merges shards; "wire" is the direct sampler checkpointed
// through the wire format mid-stream, resumed, and shipped through it
// again at the end.
func gateVariants(t *testing.T, tr gateTrial, tSlots int, seed uint64) map[string]Summary {
	t.Helper()
	mk := func(seed uint64) Summary {
		s, err := NewSample(tr.d, tr.q, tSlots, seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	n := tr.rows.Len()
	direct := mk(seed)
	gateFeed(direct, tr.rows, 0, n/2)
	wired := gateRoundTrip(t, direct)
	gateFeed(direct, tr.rows, n/2, n)
	gateFeed(wired, tr.rows, n/2, n)
	wired = gateRoundTrip(t, wired)

	var merged Summary
	for i := 0; i < gateShards; i++ {
		shard := mk(seed<<8 | uint64(i+1))
		gateFeed(shard, tr.rows, i*n/gateShards, (i+1)*n/gateShards)
		if merged == nil {
			merged = shard
		} else if err := merged.(Mergeable).Merge(shard); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]Summary{"direct": direct, "merged": merged, "wire": wired}
}

// gatePointFails reports whether the estimate of f_b(C) misses the
// truth by more than ε‖f‖₁.
func gatePointFails(t *testing.T, s Summary, truth *freq.Vector, c words.ColumnSet, b words.Word) bool {
	t.Helper()
	est, err := s.(FrequencyQuerier).Frequency(c, b)
	if err != nil {
		t.Fatal(err)
	}
	return math.Abs(est-float64(truth.CountWord(b))) > gateEps*float64(truth.Total())
}

// gateHHFails reports whether a φ-ℓ₁ heavy-hitter answer is wrong:
// some reported estimate misses its truth by more than ε‖f‖₁, or a
// pattern with f ≥ (φ + ε)‖f‖₁ is not reported.
func gateHHFails(t *testing.T, s Summary, truth *freq.Vector, c words.ColumnSet) bool {
	t.Helper()
	hits, err := s.(HeavyHitterQuerier).HeavyHitters(c, 1, gatePhi)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(truth.Total())
	reported := make(map[string]bool, len(hits))
	for _, h := range hits {
		if math.Abs(h.Estimate-float64(truth.CountWord(h.Pattern))) > gateEps*n {
			return true
		}
		reported[h.Pattern.String()] = true
	}
	for _, e := range truth.HeavyHitters(1, gatePhi) {
		if float64(e.Count) >= (gatePhi+gateEps)*n && !reported[e.Word.String()] {
			return true
		}
	}
	return false
}

// TestSampleGuarantee holds the with-replacement Sample summary to
// Theorem 5.1 and Corollary 5.2 on a Zipf stream and on Theorem 5.3's
// heavy-hitter instance, as built (direct), after a 4-shard merge and
// after wire round trips (ROADMAP items 1(b) and 1(d)).
//
// Each of gateSeeds seeds is one independent trial per stream and
// variant, and asks two questions:
//
//   - Point frequency. A sampler of t = SizeForError(ε, δ) slots
//     estimates one fixed f_b(C) within ε‖f‖₁ with probability ≥ 1 − δ
//     (Theorem 5.1).
//   - ℓ₁ heavy hitters. A sampler of t = SizeForError(ε, δ/K) slots
//     answers HeavyHitters(C, 1, φ), judged as above (gateHHFails). Let
//     c = φ − ε. The answer can be wrong only if one of K events
//     happens. The first kind is a pattern with f ≥ c‖f‖₁ whose
//     estimate misses by more than ε‖f‖₁; there are at most ⌊1/c⌋ such
//     patterns. The second kind is a group of lighter patterns whose
//     summed estimate overshoots the group's mass by more than ε‖f‖₁.
//     First-fit packs the lighter patterns into at most ⌊2/c⌋ + 2
//     groups of mass below c‖f‖₁. So K = ⌊1/c⌋ + ⌊2/c⌋ + 2, each event
//     has probability ≤ δ/K, and the answer is wrong with probability
//     ≤ δ.
//
// So each tally of failed trials is dominated by Bin(gateSeeds, δ),
// and the test fails a tally that exceeds the smallest k with
// P(Bin(gateSeeds, δ) > k) ≤ gateAlpha. At ε = 0.2, δ = 0.1, φ = 0.5:
// t = 150, K = 11, t_HH = 270, and the limit is 27 of 100.
//
// Failed trials observed (of 100 per tally; every tally):
//
//	sampler                           point  heavy hitters
//	xoshiro draw per (slot, row)      0      0
//	skip-ahead slots                  0      0
//
// A failure here is a finding about the sampler, not a reason to
// widen the limit.
func TestSampleGuarantee(t *testing.T) {
	tPoint := sample.SizeForError(gateEps, gateDelta)
	k := gateHHEvents()
	tHH := sample.SizeForError(gateEps, gateDelta/float64(k))
	limit := binomialTailLimit(gateSeeds, gateDelta, gateAlpha)
	t.Logf("t = %d, K = %d, t_HH = %d, limit %d of %d", tPoint, k, tHH, limit, gateSeeds)
	for name, trial := range gateStreams(t) {
		fails := map[string]int{}
		for s := 0; s < gateSeeds; s++ {
			tr := trial(s)
			tb := words.NewTable(tr.d, tr.q)
			tb.AppendBatch(tr.rows)
			pointTruth, hhTruth := freq.FromTable(tb, tr.point), freq.FromTable(tb, tr.hh)
			for v, sum := range gateVariants(t, tr, tPoint, uint64(s)+1) {
				if gatePointFails(t, sum, pointTruth, tr.point, tr.b) {
					fails[v+" point"]++
				}
			}
			for v, sum := range gateVariants(t, tr, tHH, uint64(s)+1) {
				if gateHHFails(t, sum, hhTruth, tr.hh) {
					fails[v+" hh"]++
				}
			}
		}
		for _, v := range []string{"direct", "merged", "wire"} {
			for _, q := range []string{"point", "hh"} {
				got := fails[v+" "+q]
				t.Logf("%s %s %s: %d of %d trials failed", name, v, q, got, gateSeeds)
				if got > limit {
					t.Errorf("%s %s %s: %d of %d trials failed, above the Bin(%d, %v) limit %d (tail ≤ %v)",
						name, v, q, got, gateSeeds, gateSeeds, gateDelta, limit, gateAlpha)
				}
			}
		}
	}
}

// TestBinomialTailLimit pins the limit the gate compares against.
func TestBinomialTailLimit(t *testing.T) {
	for _, c := range []struct {
		n     int
		p, a  float64
		limit int
	}{
		{10, 0.5, 1.0 / 1024, 9},
		{10, 0.5, 11.0 / 1024, 8},
		{100, 0.1, 1e-6, 27},
	} {
		if got := binomialTailLimit(c.n, c.p, c.a); got != c.limit {
			t.Errorf("Bin(%d, %v) tail ≤ %v: limit %d, want %d", c.n, c.p, c.a, got, c.limit)
		}
	}
	if k := gateHHEvents(); k != 11 {
		t.Errorf("K = %d, want 11", k)
	}
}
