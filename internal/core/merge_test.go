package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/freq"
	"repro/internal/words"
)

// splitFeed distributes tb's rows round-robin across the given shard
// summaries while also feeding whole, mimicking sharded ingestion.
func splitFeed(whole Summary, shards []Summary, tb *words.Table) {
	src := tb.Source()
	i := 0
	for {
		w, ok := src.Next()
		if !ok {
			return
		}
		if whole != nil {
			whole.Observe(w)
		}
		shards[i%len(shards)].Observe(w)
		i++
	}
}

// mergeAll folds shards[1:] into shards[0] and returns it.
func mergeAll(t *testing.T, shards []Summary) Summary {
	t.Helper()
	head := shards[0].(Mergeable)
	for _, s := range shards[1:] {
		if err := head.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	return shards[0]
}

func TestExactMergeEqualsUnion(t *testing.T) {
	tb := testData(3000, 41)
	whole := mustExact(t, 10, 2)
	shards := []Summary{mustExact(t, 10, 2), mustExact(t, 10, 2), mustExact(t, 10, 2)}
	splitFeed(whole, shards, tb)
	merged := mergeAll(t, shards).(*Exact)
	if merged.Rows() != whole.Rows() {
		t.Fatalf("rows %d != %d", merged.Rows(), whole.Rows())
	}
	c := words.MustColumnSet(10, 0, 1, 2)
	for _, p := range []float64{0, 1, 2} {
		a, err1 := merged.Fp(c, p)
		b, err2 := whole.Fp(c, p)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Fatalf("F%g: merged %v != whole %v", p, a, b)
		}
	}
	a, _ := merged.Frequency(c, words.Word{1, 1, 1})
	b, _ := whole.Frequency(c, words.Word{1, 1, 1})
	if a != b {
		t.Fatalf("Frequency: merged %v != whole %v", a, b)
	}
}

func TestNetMergeEqualsUnionAcrossKinds(t *testing.T) {
	// Same-seed shards merge to exactly the single-pass summary for
	// both sketch kinds a member keeps: KMV union for F0 and
	// stable-vector sums for the moments are order- and
	// split-independent.
	tb := testData(1500, 43)
	cfg := NetConfig{Alpha: 0.3, Epsilon: 0.25, Moments: []float64{0.5, 2}, StableReps: 30, Seed: 45}
	mk := func() Summary {
		s, err := NewNet(10, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	whole := mk()
	shards := []Summary{mk(), mk(), mk(), mk()}
	splitFeed(whole, shards, tb)
	merged := mergeAll(t, shards).(*Net)
	if merged.Rows() != whole.Rows() {
		t.Fatalf("rows %d != %d", merged.Rows(), whole.Rows())
	}
	for _, cols := range [][]int{{0, 1}, {0, 1, 2, 3, 4}, {3, 4, 5, 6, 7, 8, 9}} {
		c := words.MustColumnSet(10, cols...)
		a, err1 := merged.F0(c)
		b, err2 := whole.(*Net).F0(c)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Fatalf("F0(%v) merged %v != whole %v", cols, a, b)
		}
		for _, p := range []float64{0.5, 2} {
			a, err1 := merged.Fp(c, p)
			b, err2 := whole.(*Net).Fp(c, p)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if math.Abs(a-b) > 1e-9*math.Max(math.Abs(b), 1) {
				t.Fatalf("F%g(%v) merged %v != whole %v", p, cols, a, b)
			}
		}
	}
}

// wireOf is s's wire form.
func wireOf(t *testing.T, s Summary) []byte {
	t.Helper()
	blob, err := MarshalSummary(s)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestNetCloneMatchesFreshMerge pins Net.Clone to the merge into a
// fresh net that it replaces, byte for byte, and checks that the copy
// ingests through variate tables of its own: feeding it leaves the
// source's tables untouched, and it goes on exactly as the source does.
func TestNetCloneMatchesFreshMerge(t *testing.T) {
	tb := testData(1500, 44)
	more := testData(500, 46).Batch()
	for _, moments := range [][]float64{nil, {2}, {0.5, 2}} {
		cfg := NetConfig{Alpha: 0.3, Epsilon: 0.25, Moments: moments, StableReps: 30, Seed: 45}
		mk := func() *Net {
			s, err := NewNet(10, 2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		src := mk()
		src.ObserveBatch(tb.Batch())
		fresh := mk()
		if err := fresh.Merge(src); err != nil {
			t.Fatal(err)
		}
		c := src.Clone()
		if got, want := wireOf(t, c), wireOf(t, fresh); !bytes.Equal(got, want) {
			t.Fatalf("moments %v: clone differs from a fresh net merged with its source", moments)
		}
		before := src.VariateTableStats()
		c.ObserveBatch(more)
		if src.VariateTableStats() != before {
			t.Fatalf("moments %v: feeding the clone touched its source's variate tables", moments)
		}
		if st := c.VariateTableStats(); len(moments) > 0 && st.Misses == 0 {
			t.Fatalf("moments %v: the clone's sketches do not share its own tables: %+v", moments, st)
		}
		src.ObserveBatch(more)
		if got, want := wireOf(t, c), wireOf(t, src); !bytes.Equal(got, want) {
			t.Fatalf("moments %v: the clone and its source diverged on the same rows", moments)
		}
	}
}

// TestRegisteredCloneIsIndependent checks Registered.Clone: the same
// bytes as its source, and its own KMV.
func TestRegisteredCloneIsIndependent(t *testing.T) {
	src, err := NewRegistered(10, 2, words.MustColumnSet(10, 1, 4, 6), RegisteredConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	src.ObserveBatch(testData(800, 47).Batch())
	c := src.Clone()
	want := wireOf(t, src)
	if got := wireOf(t, c); !bytes.Equal(got, want) {
		t.Fatal("clone differs from its source")
	}
	c.ObserveBatch(testData(800, 48).Batch())
	if got := wireOf(t, src); !bytes.Equal(got, want) {
		t.Fatal("feeding the clone changed its source")
	}
}

func TestSampleMergeFrequencyWithinTolerance(t *testing.T) {
	// A merged k-shard sample is still a uniform sample of the whole
	// stream, so the Theorem 5.1 guarantee applies to it: frequency
	// estimates land within ε·n of the truth (ε = 0.05 here, with
	// sample size comfortably above the bound's requirement).
	tb := testData(20000, 51)
	mk := func(seed uint64) Summary { return mustSample(t, 10, 2, 1600, seed) }
	shards := []Summary{mk(61), mk(62), mk(63), mk(64)}
	splitFeed(nil, shards, tb)
	merged := mergeAll(t, shards).(*Sample)
	if merged.Rows() != int64(tb.NumRows()) {
		t.Fatalf("merged rows %d != %d", merged.Rows(), tb.NumRows())
	}
	c := words.MustColumnSet(10, 0, 1, 2)
	truth := float64(freq.FromTable(tb, c).CountWord(words.Word{1, 1, 1}))
	est, err := merged.Frequency(c, words.Word{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-truth) > 0.05*float64(tb.NumRows()) {
		t.Fatalf("merged estimate %v, truth %v", est, truth)
	}
}

func TestMergeIncompatibilityChecks(t *testing.T) {
	sampleA := mustSample(t, 4, 2, 8, 1)
	sampleB := mustSample(t, 5, 2, 8, 1)
	sampleC := mustSample(t, 4, 2, 16, 1)
	netA, _ := NewNet(4, 2, NetConfig{Alpha: 0.3, Seed: 1})
	pair := words.MustColumnSet(4, 0, 1)
	regA, _ := NewRegistered(4, 2, pair, RegisteredConfig{Epsilon: 0.3, Seed: 1})
	regB, _ := NewRegistered(4, 2, pair, RegisteredConfig{Epsilon: 0.3, Seed: 2})
	regC, _ := NewRegistered(4, 2, words.MustColumnSet(4, 0, 2), RegisteredConfig{Epsilon: 0.3, Seed: 1})

	selfE := mustExact(t, 4, 2)
	cases := []struct {
		name string
		got  error
	}{
		{"exact-self", selfE.Merge(selfE)},
		{"sample-self", sampleA.Merge(sampleA)},
		{"net-self", netA.Merge(netA)},
		{"registered-self", regA.Merge(regA)},
		{"exact-vs-sample", mustExact(t, 4, 2).Merge(sampleA)},
		{"exact-shape", mustExact(t, 4, 2).Merge(mustExact(t, 5, 2))},
		{"sample-vs-net", sampleA.Merge(netA)},
		{"sample-dim", sampleA.Merge(sampleB)},
		{"sample-size", sampleA.Merge(sampleC)},
		{"net-vs-exact", netA.Merge(mustExact(t, 4, 2))},
		{"net-moment-set", func() error {
			a, _ := NewNet(4, 2, NetConfig{Alpha: 0.3, Moments: []float64{2}, StableReps: 40, Seed: 1})
			b, _ := NewNet(4, 2, NetConfig{Alpha: 0.3, Seed: 1})
			return a.Merge(b)
		}()},
		{"registered-vs-exact", regA.Merge(mustExact(t, 4, 2))},
		{"registered-seed", regA.Merge(regB)},
		{"registered-cols", regA.Merge(regC)},
	}
	for _, tc := range cases {
		if !errors.Is(tc.got, ErrIncompatibleMerge) {
			t.Fatalf("%s: want ErrIncompatibleMerge, got %v", tc.name, tc.got)
		}
	}
}

func TestConstructionValidation(t *testing.T) {
	bad := []struct {
		name string
		err  error
	}{
		{"sample-d", errOf(NewSample(0, 2, 8, 1))},
		{"sample-q", errOf(NewSample(4, 1, 8, 1))},
		{"sample-t", errOf(NewSample(4, 2, 0, 1))},
		{"sample-eps", errOf(NewSampleForError(4, 2, 0, 0.01, 1))},
		{"sample-eps-high", errOf(NewSampleForError(4, 2, 1.5, 0.01, 1))},
		{"sample-delta", errOf(NewSampleForError(4, 2, 0.1, 0, 1))},
		{"net-d", errOfNet(NewNet(0, 2, NetConfig{Alpha: 0.3}))},
		{"net-q", errOfNet(NewNet(4, 1, NetConfig{Alpha: 0.3}))},
		{"net-alpha", errOfNet(NewNet(4, 2, NetConfig{Alpha: 0.7}))},
		{"net-eps", errOfNet(NewNet(4, 2, NetConfig{Alpha: 0.3, Epsilon: 2}))},
		{"net-moment", errOfNet(NewNet(4, 2, NetConfig{Alpha: 0.3, Moments: []float64{3}}))},
	}
	for _, tc := range bad {
		if !errors.Is(tc.err, ErrInvalidParam) {
			t.Fatalf("%s: want ErrInvalidParam, got %v", tc.name, tc.err)
		}
		var pe *ParamError
		if !errors.As(tc.err, &pe) || pe.Param == "" {
			t.Fatalf("%s: want a populated ParamError, got %#v", tc.name, tc.err)
		}
	}
	// Valid parameters still construct.
	if _, err := NewSample(4, 2, 8, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSampleForError(4, 2, 0.1, 0.05, 1); err != nil {
		t.Fatal(err)
	}
}

func errOf(_ *Sample, err error) error { return err }
func errOfNet(_ *Net, err error) error { return err }
