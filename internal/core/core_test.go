package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/freq"
	"repro/internal/rng"
	"repro/internal/words"
)

// mustSample builds a Sample summary, failing the test on a rejected
// parameter.
func mustSample(t *testing.T, d, q, size int, seed uint64) *Sample {
	t.Helper()
	s, err := NewSample(d, q, size, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testData builds a deterministic skewed table: pattern classes with
// known structure over d=10 binary columns.
// mustExact builds an exact summary or fails the test.
func mustExact(t testing.TB, d, q int) *Exact {
	t.Helper()
	e, err := NewExact(d, q)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testData(n int, seed uint64) *words.Table {
	src := rng.New(seed)
	tb := words.NewTable(10, 2)
	heavy := words.Word{1, 1, 1, 0, 0, 0, 0, 0, 0, 0}
	for i := 0; i < n; i++ {
		if src.Float64() < 0.3 {
			w := heavy.Clone()
			for j := 6; j < 10; j++ {
				w[j] = uint16(src.Intn(2))
			}
			tb.Append(w)
		} else {
			w := make(words.Word, 10)
			for j := range w {
				w[j] = uint16(src.Intn(2))
			}
			tb.Append(w)
		}
	}
	return tb
}

func feed(s Summary, tb *words.Table) {
	src := tb.Source()
	for {
		w, ok := src.Next()
		if !ok {
			return
		}
		s.Observe(w)
	}
}

func TestExactAnswersEverything(t *testing.T) {
	tb := testData(2000, 1)
	e := mustExact(t, 10, 2)
	feed(e, tb)
	if e.Rows() != 2000 || e.Dim() != 10 || e.Alphabet() != 2 {
		t.Fatalf("shape: %d %d %d", e.Rows(), e.Dim(), e.Alphabet())
	}
	c := words.MustColumnSet(10, 0, 1, 2)
	ref := freq.FromTable(tb, c)

	f0, err := e.F0(c)
	if err != nil || f0 != float64(ref.Support()) {
		t.Fatalf("F0 = %v (%v), want %d", f0, err, ref.Support())
	}
	f2, err := e.Fp(c, 2)
	if err != nil || f2 != ref.F(2) {
		t.Fatalf("F2 = %v (%v), want %v", f2, err, ref.F(2))
	}
	fr, err := e.Frequency(c, words.Word{1, 1, 1})
	if err != nil || fr != float64(ref.CountWord(words.Word{1, 1, 1})) {
		t.Fatalf("Frequency = %v (%v)", fr, err)
	}
	hh, err := e.HeavyHitters(c, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(hh) == 0 || !hh[0].Pattern.Equal(words.Word{1, 1, 1}) {
		t.Fatalf("heavy hitters: %+v", hh)
	}
}

func TestExactSampleLpMatchesDistribution(t *testing.T) {
	tb := testData(2000, 2)
	e := mustExact(t, 10, 2)
	feed(e, tb)
	c := words.MustColumnSet(10, 0, 1, 2)
	ref := freq.FromTable(tb, c)
	src := rng.New(5)
	const draws = 4000
	heavyKey := string(words.AppendKey(nil, words.Word{1, 1, 1}, words.FullColumnSet(3)))
	wantP := math.Pow(float64(ref.Count(heavyKey)), 2) / ref.F(2)
	hits := 0
	for i := 0; i < draws; i++ {
		s, err := e.SampleLp(c, 2, src)
		if err != nil {
			t.Fatal(err)
		}
		if s.Pattern.Equal(words.Word{1, 1, 1}) {
			hits++
			if math.Abs(s.Probability-wantP) > 1e-9 {
				t.Fatalf("reported probability %v, want %v", s.Probability, wantP)
			}
		}
	}
	if got := float64(hits) / draws; math.Abs(got-wantP) > 0.03 {
		t.Fatalf("empirical P = %v, want %v", got, wantP)
	}
}

func TestExactQueryValidation(t *testing.T) {
	e := mustExact(t, 4, 2)
	e.Observe(words.Word{0, 1, 0, 1})
	if _, err := e.F0(words.MustColumnSet(5, 0)); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	if _, err := e.F0(words.MustColumnSet(4)); err == nil {
		t.Fatal("empty query must error")
	}
	if _, err := e.Fp(words.MustColumnSet(4, 0), -2); err == nil {
		t.Fatal("negative p must error")
	}
	if _, err := e.Frequency(words.MustColumnSet(4, 0, 1), words.Word{1}); err == nil {
		t.Fatal("pattern length mismatch must error")
	}
	if _, err := e.Frequency(words.MustColumnSet(4, 0), words.Word{7}); err == nil {
		t.Fatal("pattern outside alphabet must error")
	}
	if _, err := e.HeavyHitters(words.MustColumnSet(4, 0), 0, 0.5); err == nil {
		t.Fatal("p=0 heavy hitters must error")
	}
}

func TestSampleFrequencyAccuracy(t *testing.T) {
	tb := testData(20000, 3)
	s, err2 := NewSampleForError(10, 2, 0.05, 0.01, 7)
	if err2 != nil {
		t.Fatal(err2)
	}
	feed(s, tb)
	c := words.MustColumnSet(10, 0, 1, 2)
	ref := freq.FromTable(tb, c)
	truth := float64(ref.CountWord(words.Word{1, 1, 1}))
	est, err := s.Frequency(c, words.Word{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-truth) > 0.05*float64(tb.NumRows()) {
		t.Fatalf("sample estimate %v, truth %v", est, truth)
	}
}

func TestSampleHeavyHittersFindPlanted(t *testing.T) {
	tb := testData(20000, 4)
	s := mustSample(t, 10, 2, 800, 11)
	feed(s, tb)
	c := words.MustColumnSet(10, 0, 1, 2)
	hh, err := s.HeavyHitters(c, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range hh {
		if h.Pattern.Equal(words.Word{1, 1, 1}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("planted heavy hitter missed: %+v", hh)
	}
	// Nothing with true frequency below phi/4 should be reported
	// (c = 4 approximation slack).
	ref := freq.FromTable(tb, c)
	norm := ref.Norm(1)
	for _, h := range hh {
		truth := float64(ref.CountWord(h.Pattern))
		if truth < 0.2/4*norm {
			t.Fatalf("reported far-below-threshold pattern %v (truth %v)", h.Pattern, truth)
		}
	}
}

func TestSampleLpP1IsRowSampling(t *testing.T) {
	tb := testData(10000, 5)
	s := mustSample(t, 10, 2, 600, 13)
	feed(s, tb)
	c := words.MustColumnSet(10, 0, 1, 2)
	ref := freq.FromTable(tb, c)
	truthP := float64(ref.CountWord(words.Word{1, 1, 1})) / float64(tb.NumRows())
	src := rng.New(17)
	hits := 0
	const draws = 3000
	for i := 0; i < draws; i++ {
		smp, err := s.SampleLp(c, 1, src)
		if err != nil {
			t.Fatal(err)
		}
		if smp.Pattern.Equal(words.Word{1, 1, 1}) {
			hits++
		}
	}
	if got := float64(hits) / draws; math.Abs(got-truthP) > 0.05 {
		t.Fatalf("l1 sample rate %v, want %v", got, truthP)
	}
}

func TestSampleUnsupportedQueries(t *testing.T) {
	s := mustSample(t, 4, 2, 10, 1)
	s.Observe(words.Word{0, 1, 0, 1})
	// F0/Fp are not part of the Sample summary's interface at all:
	// enforce at compile time that it does not satisfy theglob
	// queriers.
	var any interface{} = s
	if _, ok := any.(F0Querier); ok {
		t.Fatal("Sample must not advertise F0 (Section 4 lower bound)")
	}
	if _, ok := any.(FpQuerier); ok {
		t.Fatal("Sample must not advertise Fp (Theorem 5.4)")
	}
}

func TestSampleValidation(t *testing.T) {
	s := mustSample(t, 4, 2, 10, 1)
	s.Observe(words.Word{0, 1, 0, 1})
	if _, err := s.Frequency(words.MustColumnSet(3, 0), words.Word{1}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	if _, err := s.HeavyHitters(words.MustColumnSet(4, 0), 2, 1.5); err == nil {
		t.Fatal("bad phi must error")
	}
	if _, err := s.SampleLp(words.MustColumnSet(4, 0), -1, rng.New(1)); err == nil {
		t.Fatal("negative p must error")
	}
}

func TestNetSummaryF0WithinDistortion(t *testing.T) {
	tb := testData(1500, 6)
	s, err := NewNet(10, 2, NetConfig{Alpha: 0.3, Epsilon: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	feed(s, tb)
	for _, cols := range [][]int{{0, 1}, {0, 1, 2, 3, 4}, {2, 3, 4, 5, 6, 7, 8}} {
		c := words.MustColumnSet(10, cols...)
		ans, err := s.F0Answer(c)
		if err != nil {
			t.Fatal(err)
		}
		truth := float64(freq.FromTable(tb, c).Support())
		ratio := ans.Estimate / truth
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > ans.Distortion*1.25 {
			t.Fatalf("query %v: ratio %v > distortion %v * slack", cols, ratio, ans.Distortion)
		}
	}
}

func TestNetSummaryF1Exact(t *testing.T) {
	tb := testData(500, 7)
	s, err := NewNet(10, 2, NetConfig{Alpha: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	feed(s, tb)
	got, err := s.Fp(words.MustColumnSet(10, 3, 4), 1)
	if err != nil || got != 500 {
		t.Fatalf("F1 = %v (%v), want 500", got, err)
	}
}

func TestNetSummaryMomentConfigured(t *testing.T) {
	tb := testData(800, 8)
	// StableReps = 250 keeps the median estimator's noise on the norm
	// near ±8% (1σ), so the squared moment stays within the 1.6 gate.
	s, err := NewNet(10, 2, NetConfig{Alpha: 0.3, Epsilon: 0.25, Moments: []float64{2}, StableReps: 250, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	feed(s, tb)
	c := words.MustColumnSet(10, 0, 1)
	got, err := s.Fp(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth := freq.FromTable(tb, c).F(2)
	ratio := got / truth
	if ratio < 1 {
		ratio = 1 / ratio
	}
	// Member query (size 2 <= low): only sketch error applies.
	if ratio > 1.6 {
		t.Fatalf("F2 ratio %v (est %v truth %v)", ratio, got, truth)
	}
	// Unconfigured moment errors with ErrUnsupported.
	if _, err := s.Fp(c, 1.5); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("unconfigured moment: %v", err)
	}
}

func TestNetSummaryConfigValidation(t *testing.T) {
	if _, err := NewNet(10, 2, NetConfig{Alpha: 0}); err == nil {
		t.Fatal("alpha=0 must error")
	}
	if _, err := NewNet(10, 2, NetConfig{Alpha: 0.2, Epsilon: 2}); err == nil {
		t.Fatal("epsilon out of range must error")
	}
	if _, err := NewNet(10, 2, NetConfig{Alpha: 0.2, Moments: []float64{3}}); err == nil {
		t.Fatal("moment order > 2 must error")
	}
}

func TestSummaryInterfaceCompliance(t *testing.T) {
	// Compile-time and runtime checks that each summary implements
	// the intended capability set.
	ex := mustExact(t, 4, 2)
	var _ Summary = ex
	var _ F0Querier = ex
	var _ FpQuerier = ex
	var _ FrequencyQuerier = ex
	var _ HeavyHitterQuerier = ex
	var _ LpSampleQuerier = ex
	var _ Mergeable = ex

	smp := mustSample(t, 4, 2, 4, 1)
	var _ Summary = smp
	var _ FrequencyQuerier = smp
	var _ HeavyHitterQuerier = smp
	var _ LpSampleQuerier = smp
	var _ Mergeable = smp

	nt, err := NewNet(6, 2, NetConfig{Alpha: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var _ Summary = nt
	var _ F0Querier = nt
	var _ FpQuerier = nt
	var _ Mergeable = nt

	reg, err := NewRegistered(6, 2, words.MustColumnSet(6, 0, 1), RegisteredConfig{Epsilon: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var _ Summary = reg
	var _ F0Querier = reg
	var _ Mergeable = reg

	for _, s := range []Summary{mustExact(t, 4, 2), smp, nt, reg} {
		if s.Name() == "" {
			t.Fatal("summaries must be named")
		}
	}
}
