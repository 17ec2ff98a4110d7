package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/rng"
	"repro/internal/words"
	"repro/internal/workload"
)

func init() { register("E8", RunTradeoff) }

// RunTradeoff validates Theorem 6.5 end to end: Algorithm 1 with
// 2^{H(1/2−α)d} β-approximate sketches achieves a β·2^{O(αd)}
// approximation to projected F0 and F_p, with space shrinking and
// approximation degrading as α grows. It also runs the F0-sketch
// ablation (KMV vs HLL vs BJKST) at a fixed α.
func RunTradeoff(opt Options) (*Report, error) {
	d := 12
	n := 2048
	queries := 20
	if opt.Quick {
		d, n, queries = 10, 512, 5
	}

	sweep := &Table{
		Name: fmt.Sprintf("Theorem 6.5: Net summary on uniform binary data (d=%d, n=%d)", d, n),
		Columns: []string{
			"alpha", "|N| sketches", "bytes", "naive 2^d bytes", "F0 worst ratio",
			"F0 bound", "F2 worst ratio", "F2 bound", "both within",
		},
	}
	ablation := &Table{
		Name: "Ablation: F0 sketch kind at alpha=0.2",
		Columns: []string{
			"sketch", "bytes", "F0 worst ratio", "bound", "within",
		},
	}
	rep := &Report{ID: "E8", Title: "Theorem 6.5 — Algorithm 1 space/approximation", Tables: []*Table{sweep, ablation}}

	table := words.Collect(workload.Uniform(d, 2, n, opt.Seed^0xe8), -1)
	feed := func(s *core.Net) { s.ObserveBatch(table.Batch()) }
	type qres struct {
		c  words.ColumnSet
		f0 float64
		f2 float64
	}
	qsrc := rng.New(opt.Seed ^ 0xe81)
	probes := make([]qres, 0, queries)
	for i := 0; i < queries; i++ {
		c := words.MustColumnSet(d, qsrc.Subset(d, d/2)...)
		v := freq.FromTable(table, c)
		probes = append(probes, qres{c: c, f0: float64(v.Support()), f2: v.F(2)})
	}

	worstRatio := func(s *core.Net, p float64) (float64, float64, error) {
		worst, bound := 1.0, 1.0
		for _, pr := range probes {
			var est float64
			var distortion float64
			if p == 0 {
				ans, err := s.F0Answer(pr.c)
				if err != nil {
					return 0, 0, err
				}
				est, distortion = ans.Estimate, ans.Distortion
			} else {
				ans, err := s.FpAnswer(pr.c, p)
				if err != nil {
					return 0, 0, err
				}
				est, distortion = ans.Estimate, ans.Distortion
			}
			truth := pr.f0
			if p != 0 {
				truth = pr.f2
			}
			r := est / truth
			if r < 1 {
				r = 1 / r
			}
			if r > worst {
				worst = r
			}
			if distortion > bound {
				bound = distortion
			}
		}
		return worst, bound, nil
	}

	naive := 1 << uint(d) // one sketch per subset; unit: sketch count
	for _, alpha := range []float64{0.1, 0.2, 0.3, 0.4} {
		s, err := core.NewNet(d, 2, core.NetConfig{
			Alpha: alpha, Epsilon: 0.25, Moments: []float64{2}, StableReps: 40, Seed: opt.Seed ^ 0xe82,
		})
		if err != nil {
			return nil, err
		}
		feed(s)
		f0w, f0b, err := worstRatio(s, 0)
		if err != nil {
			return nil, err
		}
		f2w, f2b, err := worstRatio(s, 2)
		if err != nil {
			return nil, err
		}
		// Sketch slack: KMV is near-exact here (its k exceeds the
		// small-side F0), so F0 gets a 1.6 factor. The p-stable
		// median estimator at 40 reps carries ~±3/sqrt(40) ≈ 47%
		// worst-of-20-queries noise on the norm, which squares in the
		// moment: allow (1.5)^2 ≈ 2.5.
		ok := f0w <= f0b*1.6 && f2w <= f2b*2.5
		sweep.AddRow(alpha, s.NumSketches(), s.SizeBytes(), naive,
			f0w, f0b, f2w, f2b, fmt.Sprintf("%v", ok))
	}

	for _, kind := range []core.F0SketchKind{core.F0KMV, core.F0HLL, core.F0BJKST} {
		s, err := core.NewNet(d, 2, core.NetConfig{
			Alpha: 0.2, Epsilon: 0.25, F0Sketch: kind, Seed: opt.Seed ^ 0xe83,
		})
		if err != nil {
			return nil, err
		}
		feed(s)
		w, b, err := worstRatio(s, 0)
		if err != nil {
			return nil, err
		}
		ablation.AddRow(kind.String(), s.SizeBytes(), w, b, fmt.Sprintf("%v", w <= b*1.6))
	}
	rep.Notes = append(rep.Notes,
		"Queries are size d/2, the worst rounding case; bounds are the Lemma 6.4 distortion at the observed neighbour distance.",
		"naive column: the 2^d sketch count of the enumerate-everything strategy the α-net beats (Lemma 6.2).",
	)
	return rep, nil
}
