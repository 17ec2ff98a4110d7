package workload

import (
	"hash/fnv"
	"testing"

	"repro/internal/freq"
	"repro/internal/words"
)

func collectKeys(src words.RowSource) []string {
	full := words.FullColumnSet(src.Dim())
	var keys []string
	words.Drain(src, func(w words.Word) {
		keys = append(keys, string(words.AppendKey(nil, w, full)))
	})
	return keys
}

func TestUniformShapeAndDeterminism(t *testing.T) {
	src := Uniform(6, 4, 100, 42)
	if src.Dim() != 6 || src.Alphabet() != 4 {
		t.Fatalf("shape %d %d", src.Dim(), src.Alphabet())
	}
	first := collectKeys(src)
	if len(first) != 100 {
		t.Fatalf("rows %d", len(first))
	}
	src.(words.Resettable).Reset()
	second := collectKeys(src)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
	// Symbols must respect the alphabet.
	src.(words.Resettable).Reset()
	words.Drain(src, func(w words.Word) {
		for _, x := range w {
			if x >= 4 {
				t.Fatalf("symbol %d outside alphabet", x)
			}
		}
	})
}

func TestZipfPatternsSkew(t *testing.T) {
	src := ZipfPatterns(8, 3, 5000, 50, 1.3, 7)
	v := freq.FromSource(src, words.FullColumnSet(8))
	if v.Total() != 5000 {
		t.Fatalf("total %d", v.Total())
	}
	if v.Support() > 50 {
		t.Fatalf("support %d exceeds catalog", v.Support())
	}
	// The head pattern must dominate: top count >= 5x the median.
	entries := v.Entries()
	var max int64
	for _, e := range entries {
		if e.Count > max {
			max = e.Count
		}
	}
	if max < 5000/10 {
		t.Fatalf("head pattern count %d too small for Zipf(1.3)", max)
	}
}

func TestClusteredConcentratesOnSignal(t *testing.T) {
	cfg := ClusteredConfig{
		D: 10, Q: 4, N: 3000, Clusters: 4,
		Signal: []int{0, 1, 2, 3}, Noise: 0.02, Seed: 11,
	}
	src, err := Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	table := words.Collect(src, -1)
	sig := words.MustColumnSet(10, 0, 1, 2, 3)
	off := words.MustColumnSet(10, 6, 7, 8, 9)
	f0sig := freq.FromTable(table, sig).Support()
	f0off := freq.FromTable(table, off).Support()
	// On the signal subspace the distinct count collapses toward the
	// cluster count; off-subspace it approaches Q^4 = 256.
	if f0sig > 60 {
		t.Fatalf("signal F0 = %d, want near %d clusters", f0sig, cfg.Clusters)
	}
	if f0off < 200 {
		t.Fatalf("off-subspace F0 = %d, want near 256", f0off)
	}
	if _, err := Clustered(ClusteredConfig{D: 4, Q: 2, N: 0}); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestCensusCreatesHeavyCombos(t *testing.T) {
	cfg := CensusConfig{
		N: 4000, Card: []int{4, 4, 4, 4, 4}, Groups: 5, Skew: 1.2, Mixing: 0.05, Seed: 13,
	}
	src, err := Census(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := freq.FromSource(src, words.FullColumnSet(5))
	hits := v.HeavyHitters(1, 0.05)
	if len(hits) == 0 {
		t.Fatal("census workload must contain over-represented attribute combinations")
	}
	if _, err := Census(CensusConfig{N: 10, Card: []int{1}, Groups: 2}); err == nil {
		t.Fatal("cardinality < 2 must error")
	}
}

func TestLinkabilityUniqueFraction(t *testing.T) {
	cfg := LinkabilityConfig{
		N: 3000, Card: []int{50, 50, 50}, UniqueFraction: 0.2, CommonProfiles: 5, Seed: 17,
	}
	src, err := Linkability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := freq.FromSource(src, words.FullColumnSet(3))
	// ~20% of rows are near-unique; F0 should be ≈ 5 + 0.2*3000.
	if v.Support() < 400 || v.Support() > 700 {
		t.Fatalf("F0 = %d, want ~605", v.Support())
	}
	if _, err := Linkability(LinkabilityConfig{N: 10, Card: []int{5}, UniqueFraction: 2, CommonProfiles: 1}); err == nil {
		t.Fatal("unique fraction > 1 must error")
	}
}

// TestZipfPatternsGoldenStream pins the emitted rows to what the
// generator produced when every draw recomputed the harmonic sum: the
// first rows literally, the first 3000 by hash. A changed stream would
// silently change every seeded experiment and test built on it.
func TestZipfPatternsGoldenStream(t *testing.T) {
	for _, tc := range []struct {
		m     int
		s     float64
		seed  uint64
		first []words.Word
		hash  uint64
	}{
		{40, 1.2, 3, []words.Word{
			{11, 10, 3, 8, 6, 6, 3, 11}, {1, 1, 14, 11, 9, 8, 8, 0}, {11, 10, 3, 8, 6, 6, 3, 11},
			{1, 1, 14, 11, 9, 8, 8, 0}, {11, 10, 3, 8, 6, 6, 3, 11}, {11, 10, 3, 8, 6, 6, 3, 11},
		}, 0x6d54cbe10a4fb425},
		{4096, 1.1, 7, []words.Word{
			{12, 10, 9, 13, 4, 15, 9, 13}, {4, 7, 2, 2, 2, 10, 10, 4}, {4, 14, 5, 4, 2, 6, 11, 8},
			{4, 12, 6, 10, 12, 14, 14, 7}, {0, 0, 7, 8, 12, 6, 8, 1}, {5, 5, 1, 10, 11, 15, 7, 5},
		}, 0x59a955cc4351aa79},
	} {
		src := ZipfPatterns(8, 16, 3000, tc.m, tc.s, tc.seed)
		for pass := 0; pass < 2; pass++ { // the second pass checks Reset
			h := fnv.New64a()
			for i := 0; ; i++ {
				w, ok := src.Next()
				if !ok {
					break
				}
				if i < len(tc.first) && !w.Equal(tc.first[i]) {
					t.Fatalf("seed %d pass %d: row %d is %v, want %v", tc.seed, pass, i, w, tc.first[i])
				}
				for _, x := range w {
					h.Write([]byte{byte(x), byte(x >> 8)})
				}
			}
			if h.Sum64() != tc.hash {
				t.Fatalf("seed %d pass %d: stream hash %#x, want %#x", tc.seed, pass, h.Sum64(), tc.hash)
			}
			src.(words.Resettable).Reset()
		}
	}
}
