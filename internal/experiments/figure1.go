package experiments

import (
	"fmt"
	"math"

	"repro/internal/anet"
	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/rng"
	"repro/internal/words"
	"repro/internal/workload"
)

func init() { register("E2", RunFigure1) }

// RunFigure1 reproduces Figure 1: the space–approximation tradeoff of
// the α-net meta-algorithm at d = 20. Pane 1 is relative space
// 2^{H(1/2−α)d}/2^d versus α, pane 2 the approximation factor 2^{αd}
// versus α, pane 3 the tradeoff between the two. Both the entropy
// bound (the curve the paper plots) and the exact net size are
// reported. A fourth table overlays an empirical run at d = 12: the
// achieved approximation of an actual Net summary on uniform data,
// which must sit below the analytic bound.
func RunFigure1(opt Options) (*Report, error) {
	const d = 20
	analytic := &Table{
		Name: "Figure 1 (analytic, d=20): alpha sweep",
		Columns: []string{
			"alpha", "relative space (entropy bound)", "relative space (exact)",
			"approx factor 2^(alpha d)", "log2 approx",
		},
	}
	for i := 1; i <= 19; i++ {
		alpha := float64(i) / 40 // 0.025 .. 0.475
		n, err := anet.NewNet(d, alpha)
		if err != nil {
			return nil, err
		}
		bound := math.Exp2(n.LogSizeBound() - float64(d))
		exact := n.RelativeSpace()
		approx := math.Exp2(alpha * float64(d))
		analytic.AddRow(alpha, bound, exact, approx, alpha*float64(d))
	}

	rep := &Report{ID: "E2", Title: "Figure 1 — space-approximation tradeoff", Tables: []*Table{analytic}}

	// Empirical overlay: measure what a real Net summary achieves.
	ed := 12
	en := 4096
	queries := 24
	if opt.Quick {
		ed, en, queries = 10, 512, 6
	}
	emp := &Table{
		Name: fmt.Sprintf("Figure 1 (empirical overlay, d=%d, n=%d uniform binary rows)", ed, en),
		Columns: []string{
			"alpha", "sketches |N|", "bytes", "relative space (exact)",
			"bound 2^ceil(alpha d)", "worst measured ratio", "median measured ratio", "within bound",
		},
	}
	rep.Tables = append(rep.Tables, emp)

	data := workload.Uniform(ed, 2, en, opt.Seed^0xf16)
	exactRef := words.Collect(data, -1)
	qsrc := rng.New(opt.Seed ^ 0xf17)
	for _, alpha := range []float64{0.1, 0.2, 0.3, 0.4} {
		sum, err := core.NewNet(ed, 2, core.NetConfig{Alpha: alpha, Epsilon: 0.25, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		sum.ObserveBatch(exactRef.Batch())
		// Query random mid-band subsets (worst-case rounding distance).
		ratios := make([]float64, 0, queries)
		worst := 0.0
		bound := 0.0
		for qi := 0; qi < queries; qi++ {
			cols := qsrc.Subset(ed, ed/2)
			c := words.MustColumnSet(ed, cols...)
			ans, err := sum.F0Answer(c)
			if err != nil {
				return nil, err
			}
			truth := float64(freq.FromTable(exactRef, c).Support())
			r := ans.Estimate / truth
			if r < 1 {
				r = 1 / r
			}
			ratios = append(ratios, r)
			if r > worst {
				worst = r
			}
			if ans.Distortion > bound {
				bound = ans.Distortion
			}
		}
		med := medianOf(ratios)
		// The sketch contributes its own (1+eps); fold into the bound.
		fullBound := bound * 1.25
		emp.AddRow(alpha, sum.NumSketches(), sum.SizeBytes(), sum.ANet().RelativeSpace(),
			bound, worst, med, fmt.Sprintf("%v", worst <= fullBound))
	}
	rep.Notes = append(rep.Notes,
		"Analytic panes use the Lemma 6.2 entropy bound; the exact |N| column shows how loose it is at finite d.",
		"Empirical ratios are max(est/true, true/est) for F0 on random size-d/2 queries, i.e. the worst rounding case.",
	)
	return rep, nil
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
			cp[j-1], cp[j] = cp[j], cp[j-1]
		}
	}
	if len(cp)%2 == 1 {
		return cp[len(cp)/2]
	}
	return (cp[len(cp)/2-1] + cp[len(cp)/2]) / 2
}
