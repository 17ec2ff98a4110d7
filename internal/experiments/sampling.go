package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/words"
	"repro/internal/workload"
)

func init() { register("E3", RunSampling) }

// RunSampling validates Theorem 5.1 / Corollary 5.2: uniform row
// sampling of size t = O(ε⁻² log 1/δ) estimates projected point
// frequencies within ε‖f‖₁ additive error, for queries revealed after
// the data, in space independent of n and d. The driver sweeps ε,
// measures the worst and 95th-percentile additive error over many
// (pattern, query) pairs on a skewed stream, and reports the fraction
// of estimates within the bound (which must be ≥ 1−δ). The ablation
// row feeds the same stream to a sample.Reservoir of the same size and
// seed, sized at the 2·d bytes a row its words.Word rows take (the
// with-replacement sampler packs a row in ⌈d·⌈log₂q⌉/8⌉).
func RunSampling(opt Options) (*Report, error) {
	d, q := 16, 4
	n := 40000
	catalog := 64
	queries := 8
	patterns := 24
	epsList := []float64{0.2, 0.1, 0.05}
	if opt.Quick {
		n, queries, patterns = 4000, 3, 8
		epsList = []float64{0.2}
	}
	const delta = 0.05

	tbl := &Table{
		Name: "Theorem 5.1: additive error of sampled frequency estimates (error unit: eps*n)",
		Columns: []string{
			"sampler", "eps", "t", "bytes", "max |err|/n", "p95 |err|/n",
			"within eps*n", "bound holds (>= 1-delta)",
		},
	}
	rep := &Report{ID: "E3", Title: "Theorem 5.1 / Corollary 5.2 — sampling upper bound", Tables: []*Table{tbl}}

	gen := workload.ZipfPatterns(d, q, n, catalog, 1.2, opt.Seed^0xe3)
	table := words.Collect(gen, -1)
	qsrc := rng.New(opt.Seed ^ 0xe31)

	// Pre-draw the query set; both samplers face the same queries.
	type probe struct {
		c words.ColumnSet
		b words.Word
	}
	var probes []probe
	for qi := 0; qi < queries; qi++ {
		c := words.MustColumnSet(d, qsrc.Subset(d, 6)...)
		v := freq.FromTable(table, c)
		entries := v.Entries()
		for pi := 0; pi < patterns && pi < len(entries); pi++ {
			e := entries[qsrc.Intn(len(entries))]
			probes = append(probes, probe{c: c, b: words.KeyToWord(e.Key)})
		}
	}

	batch := table.Batch()
	type sampler struct {
		name     string
		bytes    int
		estimate func(words.ColumnSet, words.Word) (float64, error)
	}
	for _, eps := range epsList {
		t := sample.SizeForError(eps, delta)
		wr, err := core.NewSample(d, q, t, opt.Seed^0xe32)
		if err != nil {
			return nil, err
		}
		wr.ObserveBatch(batch)
		rs := sample.NewReservoir(t, opt.Seed^0xe32)
		rs.ObserveBatch(batch)
		rsBytes := 16
		for _, row := range rs.Rows() {
			rsBytes += 2 * len(row)
		}
		for _, sm := range []sampler{
			{"with-replacement", wr.SizeBytes(), wr.Frequency},
			{"reservoir", rsBytes, func(c words.ColumnSet, b words.Word) (float64, error) {
				return rs.EstimateFrequency(c, b), nil
			}},
		} {
			maxErr, errs := 0.0, make([]float64, 0, len(probes))
			within := 0
			for _, pr := range probes {
				est, err := sm.estimate(pr.c, pr.b)
				if err != nil {
					return nil, err
				}
				truth := float64(freq.FromTable(table, pr.c).CountWord(pr.b))
				e := math.Abs(est-truth) / float64(n)
				errs = append(errs, e)
				if e > maxErr {
					maxErr = e
				}
				if e <= eps {
					within++
				}
			}
			frac := float64(within) / float64(len(probes))
			tbl.AddRow(sm.name, eps, t, sm.bytes,
				maxErr, percentile(errs, 0.95), frac, frac >= 1-delta)
		}
	}
	rep.Notes = append(rep.Notes,
		"‖f‖₁ = n, so the Theorem 5.1 guarantee is additive error ≤ eps·n with probability ≥ 1−delta per estimate.",
		"Sample size t is independent of n and d; queries are drawn after the stream is consumed, matching the model.",
	)
	return rep, nil
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
			cp[j-1], cp[j] = cp[j], cp[j-1]
		}
	}
	idx := int(p * float64(len(cp)-1))
	return cp[idx]
}
