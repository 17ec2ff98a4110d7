// Package workload generates the data the experiment suite runs on:
// synthetic streams exercising the paper's motivating scenarios
// (Section 1: bias auditing, privacy/linkability, subspace
// clustering), and the adversarial instances realizing every
// lower-bound construction of Sections 4 and 5. All sources are
// deterministic given their seed and resettable so the same instance
// can be replayed into several summaries.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/words"
)

// genSource is the common replayable generator: Reset re-derives the
// random stream from the stored seed, so every replay is identical.
type genSource struct {
	d, q int
	n    int
	seed uint64
	gen  func(src *rng.Source, i int, w words.Word)

	i   int
	src *rng.Source
	buf words.Word
}

func newGenSource(d, q, n int, seed uint64, gen func(*rng.Source, int, words.Word)) *genSource {
	g := &genSource{d: d, q: q, n: n, seed: seed, gen: gen}
	g.Reset()
	return g
}

// Dim returns the number of columns d.
func (g *genSource) Dim() int { return g.d }

// Alphabet returns the alphabet size Q.
func (g *genSource) Alphabet() int { return g.q }

// Reset replays the stream from the beginning.
func (g *genSource) Reset() {
	g.i = 0
	g.src = rng.New(g.seed)
	g.buf = make(words.Word, g.d)
}

// Next returns the next generated row; the slice is reused.
func (g *genSource) Next() (words.Word, bool) {
	if g.i >= g.n {
		return nil, false
	}
	g.gen(g.src, g.i, g.buf)
	g.i++
	return g.buf, true
}

// Uniform streams n i.i.d. uniform rows over [q]^d: the maximally
// diverse input for which projected F0 approaches q^|C|.
func Uniform(d, q, n int, seed uint64) words.RowSource {
	return newGenSource(d, q, n, seed, func(src *rng.Source, _ int, w words.Word) {
		for j := range w {
			w[j] = uint16(src.Intn(q))
		}
	})
}

// ZipfPatterns streams n rows drawn from a catalog of m random
// patterns with Zipf(s) frequencies: the skewed regime where heavy
// hitters exist and sampling-based estimation shines (Theorem 5.1).
func ZipfPatterns(d, q, n, m int, s float64, seed uint64) words.RowSource {
	master := rng.New(seed)
	catalog := make([]words.Word, m)
	for i := range catalog {
		row := make(words.Word, d)
		for j := range row {
			row[j] = uint16(master.Intn(q))
		}
		catalog[i] = row
	}
	cdf := zipfCDF(m, s)
	return newGenSource(d, q, n, master.Uint64(), func(src *rng.Source, _ int, w words.Word) {
		copy(w, catalog[zipfDraw(src, cdf)])
	})
}

// zipfCDF returns the Zipf(s) cumulative distribution over ranks
// [0, m): cdf[i] = Σ_{j≤i} (j+1)^-s / H, with H the generalized
// harmonic number. Each term is normalized and then accumulated, in
// that order: every seeded stream built on this table is pinned bit for
// bit (TestZipfPatternsGoldenStream), so the arithmetic must not move.
func zipfCDF(m int, s float64) []float64 {
	total := 0.0
	for i := 0; i < m; i++ {
		total += 1 / powf(float64(i+1), s)
	}
	cdf := make([]float64, m)
	acc := 0.0
	for i := range cdf {
		acc += 1 / powf(float64(i+1), s) / total
		cdf[i] = acc
	}
	return cdf
}

// zipfDraw draws a rank by inverse CDF: the first rank whose
// cumulative mass exceeds a uniform draw. The table is read-only, so
// the draw stays stateless and the source trivially resettable.
func zipfDraw(src *rng.Source, cdf []float64) int {
	u := src.Float64()
	i := sort.Search(len(cdf), func(i int) bool { return u < cdf[i] })
	return min(i, len(cdf)-1)
}

func powf(x, y float64) float64 {
	if y == 1 {
		return x
	}
	// math.Pow via exp/log would be fine; use the stdlib through a
	// tiny alias to keep imports tidy.
	return mathPow(x, y)
}

// ClusteredConfig parameterizes Clustered.
type ClusteredConfig struct {
	D        int     // total columns
	Q        int     // alphabet
	N        int     // rows
	Clusters int     // number of hidden clusters
	Signal   []int   // the hidden subspace the clusters live in
	Noise    float64 // per-signal-column corruption probability
	Seed     uint64
}

// Clustered streams rows that are tightly clustered on a hidden
// column subset and uniform elsewhere — the subspace-clustering
// motivation of Section 1: on the signal columns F0 is ≈ Clusters,
// while off-subspace columns inflate apparent diversity.
func Clustered(cfg ClusteredConfig) (words.RowSource, error) {
	if cfg.Clusters < 1 || cfg.N < 1 || len(cfg.Signal) == 0 {
		return nil, fmt.Errorf("workload: invalid clustered config %+v", cfg)
	}
	sig, err := words.NewColumnSet(cfg.D, cfg.Signal...)
	if err != nil {
		return nil, err
	}
	master := rng.New(cfg.Seed)
	centers := make([]words.Word, cfg.Clusters)
	for i := range centers {
		c := make(words.Word, cfg.D)
		for _, j := range sig.Columns() {
			c[j] = uint16(master.Intn(cfg.Q))
		}
		centers[i] = c
	}
	isSignal := make([]bool, cfg.D)
	for _, j := range sig.Columns() {
		isSignal[j] = true
	}
	return newGenSource(cfg.D, cfg.Q, cfg.N, master.Uint64(), func(src *rng.Source, _ int, w words.Word) {
		center := centers[src.Intn(cfg.Clusters)]
		for j := 0; j < cfg.D; j++ {
			if isSignal[j] {
				if src.Float64() < cfg.Noise {
					w[j] = uint16(src.Intn(cfg.Q))
				} else {
					w[j] = center[j]
				}
			} else {
				w[j] = uint16(src.Intn(cfg.Q))
			}
		}
	}), nil
}

// CensusConfig parameterizes Census.
type CensusConfig struct {
	N    int   // rows (individuals)
	Card []int // cardinality of each categorical attribute
	// Groups is the number of latent demographic groups; attribute
	// values correlate within a group, creating over-represented
	// attribute combinations (the "bias" heavy hitters of Section 1).
	Groups int
	// Skew is the Zipf exponent of the group-size distribution.
	Skew float64
	// Mixing is the probability an attribute ignores the group and is
	// drawn uniformly (higher = weaker correlations).
	Mixing float64
	Seed   uint64
}

// Census streams categorical records with group-correlated attributes
// for the bias/diversity scenario. The alphabet is max(Card).
func Census(cfg CensusConfig) (words.RowSource, error) {
	if cfg.N < 1 || len(cfg.Card) == 0 || cfg.Groups < 1 {
		return nil, fmt.Errorf("workload: invalid census config %+v", cfg)
	}
	q := 2
	for _, c := range cfg.Card {
		if c < 2 {
			return nil, fmt.Errorf("workload: attribute cardinality %d < 2", c)
		}
		if c > q {
			q = c
		}
	}
	d := len(cfg.Card)
	master := rng.New(cfg.Seed)
	// Each group deterministically prefers one value per attribute.
	pref := make([][]uint16, cfg.Groups)
	for g := range pref {
		pref[g] = make([]uint16, d)
		for j := 0; j < d; j++ {
			pref[g][j] = uint16(master.Intn(cfg.Card[j]))
		}
	}
	cdf := zipfCDF(cfg.Groups, cfg.Skew)
	return newGenSource(d, q, cfg.N, master.Uint64(), func(src *rng.Source, _ int, w words.Word) {
		g := zipfDraw(src, cdf)
		for j := 0; j < d; j++ {
			if src.Float64() < cfg.Mixing {
				w[j] = uint16(src.Intn(cfg.Card[j]))
			} else {
				w[j] = pref[g][j]
			}
		}
	}), nil
}

// LinkabilityConfig parameterizes Linkability.
type LinkabilityConfig struct {
	N    int   // records
	Card []int // per-column cardinalities (quasi-identifiers)
	// UniqueFraction of records get fully random values (likely
	// unique combinations — the re-identification risk); the rest are
	// drawn from a small pool of common profiles.
	UniqueFraction float64
	CommonProfiles int
	Seed           uint64
}

// Linkability streams records mixing a few common quasi-identifier
// profiles with a fraction of near-unique ones, the KHyperLogLog-style
// re-identifiability scenario of Section 1: projected F0 relative to N
// measures how identifying a column subset is.
func Linkability(cfg LinkabilityConfig) (words.RowSource, error) {
	if cfg.N < 1 || len(cfg.Card) == 0 || cfg.CommonProfiles < 1 {
		return nil, fmt.Errorf("workload: invalid linkability config %+v", cfg)
	}
	if cfg.UniqueFraction < 0 || cfg.UniqueFraction > 1 {
		return nil, fmt.Errorf("workload: unique fraction %v outside [0,1]", cfg.UniqueFraction)
	}
	q := 2
	for _, c := range cfg.Card {
		if c > q {
			q = c
		}
	}
	d := len(cfg.Card)
	master := rng.New(cfg.Seed)
	profiles := make([][]uint16, cfg.CommonProfiles)
	for i := range profiles {
		profiles[i] = make([]uint16, d)
		for j := 0; j < d; j++ {
			profiles[i][j] = uint16(master.Intn(cfg.Card[j]))
		}
	}
	return newGenSource(d, q, cfg.N, master.Uint64(), func(src *rng.Source, _ int, w words.Word) {
		if src.Float64() < cfg.UniqueFraction {
			for j := 0; j < d; j++ {
				w[j] = uint16(src.Intn(cfg.Card[j]))
			}
			return
		}
		p := profiles[src.Intn(cfg.CommonProfiles)]
		copy(w, p)
	}), nil
}

// ZipfCatalogBatches returns count batches of rows rows each: draws
// from a catalog of m random patterns over [q]^d with Zipf(s)
// frequencies, built as the end-to-end benchmark builds its load
// (benchmark/gen.go) — the catalog from a master source seeded with
// seed, the ranks from rng.Zipf over the master's next draw. The
// distribution is ZipfPatterns'; the draws are the benchmark's.
func ZipfCatalogBatches(d, q, count, rows, m int, s float64, seed uint64) []*words.Batch {
	master := rng.New(seed)
	catalog := make([]words.Word, m)
	for i := range catalog {
		row := make(words.Word, d)
		for j := range row {
			row[j] = uint16(master.Intn(q))
		}
		catalog[i] = row
	}
	zipf := rng.NewZipf(rng.New(master.Uint64()), m, s)
	all := words.NewBatch(d, count*rows)
	for range count * rows {
		all.Append(catalog[zipf.Next()])
	}
	out := make([]*words.Batch, count)
	for i := range out {
		out[i] = all.Slice(i*rows, (i+1)*rows)
	}
	return out
}
