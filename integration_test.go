package projfreq

import (
	"errors"
	"math"
	"testing"

	"repro/internal/workload"
)

// buildAll streams one workload into all three public summaries.
func buildAll(t *testing.T, src RowSource) (*testing.T, Summary, Summary, Summary) {
	t.Helper()
	d, q := src.Dim(), src.Alphabet()
	exact, err := NewExactSummary(d, q)
	if err != nil {
		t.Fatal(err)
	}
	sample, err := NewSampleSummary(d, q, 0.03, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetSummary(d, q, NetConfig{Alpha: 0.3, Epsilon: 0.2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for {
		w, ok := src.Next()
		if !ok {
			break
		}
		exact.Observe(w)
		sample.Observe(w)
		net.Observe(w)
	}
	return t, exact, sample, net
}

func TestPublicAPIEndToEnd(t *testing.T) {
	src := workload.ZipfPatterns(10, 3, 20000, 40, 1.2, 3)
	_, exact, sample, net := buildAll(t, src)

	c, err := NewColumnSet(10, 1, 4, 7)
	if err != nil {
		t.Fatal(err)
	}

	// All summaries agree on n, and F1 is query-independent.
	if exact.Rows() != 20000 || sample.Rows() != 20000 || net.Rows() != 20000 {
		t.Fatal("row counts disagree")
	}

	// Exact is the reference.
	f0, err := exact.(F0Querier).F0(c)
	if err != nil {
		t.Fatal(err)
	}

	// Net answers F0 within its advertised distortion (ternary data:
	// per-column factor 3).
	netF0, err := net.(F0Querier).F0(c)
	if err != nil {
		t.Fatal(err)
	}
	ratio := netF0 / f0
	if ratio < 1 {
		ratio = 1 / ratio
	}
	// d=10, alpha=0.3: band (2,8), |C|=3 rounds 1 column: bound 3.
	if ratio > 3*1.3 {
		t.Fatalf("net F0 ratio %v exceeds distortion bound", ratio)
	}

	// Sample answers point frequencies within eps*n.
	heavy, err := exact.(HeavyHitterQuerier).HeavyHitters(c, 1, 0.05)
	if err != nil || len(heavy) == 0 {
		t.Fatalf("no exact heavy hitters (%v)", err)
	}
	est, err := sample.(FrequencyQuerier).Frequency(c, heavy[0].Pattern)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-heavy[0].Estimate) > 0.03*20000 {
		t.Fatalf("sampled frequency %v vs exact %v", est, heavy[0].Estimate)
	}

	// Space ordering: sample < exact on this shape. Both pack a row in
	// 3 bytes, and the sample keeps ~11.8k of the 20k rows.
	if !(sample.SizeBytes() < exact.SizeBytes()) {
		t.Fatalf("sample bytes %d !< exact bytes %d", sample.SizeBytes(), exact.SizeBytes())
	}
}

func TestPublicAPICapabilityMatrix(t *testing.T) {
	// The capability dichotomies of the paper, enforced by the type
	// system: Sample must not answer F0/Fp, Net must not answer point
	// frequencies or sampling.
	sampleSum, err := NewSampleSummarySize(4, 2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sample interface{} = sampleSum
	if _, ok := sample.(F0Querier); ok {
		t.Fatal("sample summary must not answer F0")
	}
	if _, ok := sample.(FpQuerier); ok {
		t.Fatal("sample summary must not answer Fp")
	}
	net, err := NewNetSummary(6, 2, NetConfig{Alpha: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var netAny interface{} = net
	if _, ok := netAny.(FrequencyQuerier); ok {
		t.Fatal("net summary must not answer point frequencies")
	}
	if _, ok := netAny.(LpSampleQuerier); ok {
		t.Fatal("net summary must not answer lp sampling (Theorem 5.5)")
	}
	exOnly, err := NewExactSummary(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var exAny interface{} = exOnly
	for _, ok := range []bool{
		is[F0Querier](exAny), is[FpQuerier](exAny), is[FrequencyQuerier](exAny),
		is[HeavyHitterQuerier](exAny), is[LpSampleQuerier](exAny),
	} {
		if !ok {
			t.Fatal("exact summary must answer every query class")
		}
	}
}

func is[T any](v interface{}) bool {
	_, ok := v.(T)
	return ok
}

func TestPublicAPIErrors(t *testing.T) {
	net, err := NewNetSummary(8, 2, NetConfig{Alpha: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net.Observe(make(Word, 8))
	bad, _ := NewColumnSet(9, 0)
	if _, err := net.F0(bad); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	if _, err := net.Fp(FullColumnSet(8), 1.7); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("unconfigured moment must be ErrUnsupported, got %v", err)
	}
	if _, err := NewColumnSet(4, 9); err == nil {
		t.Fatal("out-of-range column must error")
	}
	if _, err := NewNetSummary(8, 2, NetConfig{Alpha: 0.9}); err == nil {
		t.Fatal("bad alpha must error")
	}
}

// TestLowerBoundStoryEndToEnd walks the full Theorem 4.1 narrative
// through the public machinery: on the adversarial instance, the
// exact summary distinguishes the Index cases while a sample summary
// is structurally unable to.
func TestLowerBoundStoryEndToEnd(t *testing.T) {
	src := NewRand(5)
	var exactF0 [2]float64
	for i, inT := range []bool{true, false} {
		inst, err := workload.NewF0Instance(12, 3, 6, 8, inT, src)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := inst.Source()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewExactSummary(12, 6)
		if err != nil {
			t.Fatal(err)
		}
		for {
			w, ok := stream.Next()
			if !ok {
				break
			}
			ex.Observe(w)
		}
		f0, err := ex.F0(inst.Query)
		if err != nil {
			t.Fatal(err)
		}
		exactF0[i] = f0
	}
	if exactF0[0]/exactF0[1] < 2 { // Δ = Q/k = 2
		t.Fatalf("exact summary separation %v below Δ", exactF0[0]/exactF0[1])
	}
}
