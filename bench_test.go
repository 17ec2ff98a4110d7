// Benchmarks regenerating the paper's evaluation artifacts (one bench
// per Table 1 row and Figure 1 pane, named Table1_*/Figure1_*) plus
// the per-theorem experiment benches E3–E9 and micro-benchmarks for
// every substrate the experiments' ablations (E8, E10) exercise. Run with
//
//	go test -bench=. -benchmem
package projfreq

import (
	"math"
	"testing"

	"repro/internal/anet"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/freq"
	"repro/internal/hashing"
	"repro/internal/rng"
	"repro/internal/sketch"
	"repro/internal/words"
	"repro/internal/workload"
)

// --- Table 1 (E1): one bench per construction row. Each iteration
// builds a fresh instance and measures the exact projected F0 on
// Bob's query — the quantity whose two-case gap is the lower bound.

func benchTable1(b *testing.B, d, k, q, tSize int, reduce int) {
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst, err := workload.NewF0Instance(d, k, q, tSize, i%2 == 0, src)
		if err != nil {
			b.Fatal(err)
		}
		var stream words.RowSource
		query := inst.Query
		if reduce > 0 {
			red, err := inst.NewAlphabetReduction(reduce)
			if err != nil {
				b.Fatal(err)
			}
			stream, query = red, red.ExpandQuery(inst.Query)
		} else {
			s, err := inst.Source()
			if err != nil {
				b.Fatal(err)
			}
			stream = s
		}
		v := freq.FromSource(stream, query)
		if v.Support() == 0 {
			b.Fatal("empty instance")
		}
	}
}

func BenchmarkTable1_Thm41(b *testing.B) { benchTable1(b, 14, 4, 8, 8, 0) }
func BenchmarkTable1_Cor42(b *testing.B) { benchTable1(b, 10, 5, 8, 4, 0) }
func BenchmarkTable1_Cor43(b *testing.B) { benchTable1(b, 10, 5, 10, 4, 0) }
func BenchmarkTable1_Cor44(b *testing.B) { benchTable1(b, 10, 5, 8, 4, 2) }

// --- Figure 1 (E2): the analytic sweep and the empirical net query.

func BenchmarkFigure1_AnalyticSeries(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 1; j <= 19; j++ {
			alpha := float64(j) / 40
			n, err := anet.NewNet(20, alpha)
			if err != nil {
				b.Fatal(err)
			}
			_ = n.RelativeSpace()
			_ = math.Exp2(n.LogSizeBound())
		}
	}
}

func BenchmarkFigure1_EmpiricalNetBuild(b *testing.B) {
	table := words.Collect(workload.Uniform(12, 2, 1024, 3), -1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := core.NewNet(12, 2, core.NetConfig{Alpha: 0.3, Epsilon: 0.25, Seed: 4})
		if err != nil {
			b.Fatal(err)
		}
		net.ObserveBatch(table.Batch())
	}
}

// --- E3: Theorem 5.1 sampling — stream ingestion and query cost.

func BenchmarkSampleObserve(b *testing.B) {
	s, err := core.NewSampleForError(16, 4, 0.05, 0.01, 5)
	if err != nil {
		b.Fatal(err)
	}
	w := make(words.Word, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w[0] = uint16(i % 4)
		s.Observe(w)
	}
}

// BenchmarkSampleObserveBatch feeds 256-row Zipf batches into a
// sampler of the benchmark workloads' size (ε = 0.2, δ = 0.1, so
// t = 150; d = 16 over [4]), the shape a durable sample node replays
// its log tail in.
func BenchmarkSampleObserveBatch(b *testing.B) {
	const d, q, batchRows = 16, 4, 256
	s, err := core.NewSampleForError(d, q, 0.2, 0.1, 5)
	if err != nil {
		b.Fatal(err)
	}
	table := words.Collect(workload.ZipfPatterns(d, q, 64*batchRows, 1000, 1.1, 7), -1).Batch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i % 64 * batchRows
		s.ObserveBatch(table.Slice(lo, lo+batchRows))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchRows), "ns/row")
}

func BenchmarkSampleFrequencyQuery(b *testing.B) {
	src := workload.ZipfPatterns(16, 4, 50000, 100, 1.2, 7)
	s, err := core.NewSampleForError(16, 4, 0.05, 0.01, 5)
	if err != nil {
		b.Fatal(err)
	}
	words.Drain(src, s.Observe)
	c := words.MustColumnSet(16, 2, 5, 8, 11)
	pattern := make(words.Word, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Frequency(c, pattern); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4/E5/E6: the coded separation instances (build + measure).

func BenchmarkTheorem53_HHInstance(b *testing.B) {
	src := rng.New(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst, err := workload.NewHHInstance(workload.HHParams{
			D: 32, Eps: 0.25, Gamma: 0.05, TSize: 6, InT: i%2 == 0,
		}, src)
		if err != nil {
			b.Fatal(err)
		}
		stream, err := inst.Source()
		if err != nil {
			b.Fatal(err)
		}
		v := freq.FromSource(stream, inst.Query)
		_ = v.Norm(2)
	}
}

func BenchmarkTheorem54_FpInstance(b *testing.B) {
	src := rng.New(11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst, err := workload.NewFpInstance(workload.HHParams{
			D: 32, Eps: 0.25, Gamma: 0.05, TSize: 6, InT: i%2 == 0,
		}, src)
		if err != nil {
			b.Fatal(err)
		}
		stream, err := inst.Source()
		if err != nil {
			b.Fatal(err)
		}
		_ = freq.FromSource(stream, inst.Query).F(0.5)
	}
}

func BenchmarkTheorem55_LpSampling(b *testing.B) {
	src := rng.New(13)
	inst, err := workload.NewFpInstance(workload.HHParams{
		D: 32, Eps: 0.25, Gamma: 0.05, TSize: 6, InT: true,
	}, src)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := inst.Source()
	if err != nil {
		b.Fatal(err)
	}
	v := freq.FromSource(stream, inst.Query)
	sampler := v.NewSampler(0.5)
	mprime := inst.MPrime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = mprime[sampler.Sample(src)]
	}
}

// --- E7: rounding distortion measurement.

func BenchmarkDistortionMeasurement(b *testing.B) {
	table := words.Collect(workload.Uniform(12, 2, 2048, 15), -1)
	net, err := anet.NewNet(12, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	qsrc := rng.New(17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := words.MustColumnSet(12, qsrc.Subset(12, 6)...)
		nb, _ := net.Neighbor(c)
		a := freq.FromTable(table, c).Support()
		bb := freq.FromTable(table, nb).Support()
		if a == 0 || bb == 0 {
			b.Fatal("degenerate")
		}
	}
}

// --- E8: Algorithm 1 — ingest and query costs across alpha (the
// space/time side of the tradeoff).

func benchNetObserve(b *testing.B, alpha float64) {
	net, err := core.NewNet(12, 2, core.NetConfig{Alpha: alpha, Epsilon: 0.25, Seed: 19})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(21)
	w := make(words.Word, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range w {
			w[j] = uint16(src.Intn(2))
		}
		net.Observe(w)
	}
	b.ReportMetric(float64(net.NumSketches()), "sketches")
}

func BenchmarkNetObserve_Alpha10(b *testing.B) { benchNetObserve(b, 0.1) }
func BenchmarkNetObserve_Alpha20(b *testing.B) { benchNetObserve(b, 0.2) }
func BenchmarkNetObserve_Alpha30(b *testing.B) { benchNetObserve(b, 0.3) }
func BenchmarkNetObserve_Alpha40(b *testing.B) { benchNetObserve(b, 0.4) }

// BenchmarkNetObserveBatch times the α-net ingest at the net-ingest
// workload's shape: the daemons' StandardSummary("net") at d = 8,
// q = 4, fed 256-row batches from a 4096-pattern Zipf(1.1) catalog.
// One iteration is one batch. It cycles a pool the size of the
// workload's ingest (288 batches, drawn as benchmark/gen.go draws
// them) through one summary, so the moment's variate table warms and
// evicts as in the daemon; a pool of a few batches would time a warm
// cache. -benchtime 288x is one pass over the pool. It reports the
// table's hit ratio.
func BenchmarkNetObserveBatch(b *testing.B) { benchNetObserveBatch(b, 8) }

// BenchmarkNetObserveBatchD16 is BenchmarkNetObserveBatch at d = 16
// (1,394 members), where the variate working set is far above the
// table's budget and most lookups evict.
func BenchmarkNetObserveBatchD16(b *testing.B) { benchNetObserveBatch(b, 16) }

func benchNetObserveBatch(b *testing.B, d int) {
	const q, rows, pool = 4, 256, 288
	sum, err := engine.StandardSummary("net", d, q, 0.05, 0.01, 0.3, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	batches := workload.ZipfCatalogBatches(d, q, pool, rows, 4096, 1.1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum.ObserveBatch(batches[i%pool])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	st := sum.(*core.Net).VariateTableStats()
	b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit-ratio")
}

func BenchmarkNetF0Query(b *testing.B) {
	net, err := core.NewNet(12, 2, core.NetConfig{Alpha: 0.3, Epsilon: 0.25, Seed: 23})
	if err != nil {
		b.Fatal(err)
	}
	words.Drain(workload.Uniform(12, 2, 2048, 25), net.Observe)
	c := words.MustColumnSet(12, 0, 1, 2, 3, 4, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.F0(c); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: one full Index protocol round (net variant, small shape).

func BenchmarkIndexProtocolRound(b *testing.B) {
	p := comm.Net{Alpha: 0.25, Epsilon: 0.25, Seed: 7}
	src := rng.New(27)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst, err := workload.NewF0Instance(10, 2, 12, 4, i%2 == 0, src)
		if err != nil {
			b.Fatal(err)
		}
		stream, err := inst.Source()
		if err != nil {
			b.Fatal(err)
		}
		msg, err := p.Encode(stream)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Decide(msg, inst); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks.

func BenchmarkSketchAdd(b *testing.B) {
	sketches := map[string]interface{ Add(uint64) }{
		"kmv":         sketch.NewKMV(1024, 1),
		"hll":         sketch.NewHLL(12, 1),
		"bjkst":       sketch.NewBJKST(1024, 1),
		"countsketch": sketch.NewCountSketch(256, 5, 1),
	}
	for name, s := range sketches {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Add(uint64(i) * 0x9e3779b97f4a7c15)
			}
		})
	}
	b.Run("stable-p0.5-r40", func(b *testing.B) {
		s := sketch.NewStable(0.5, 40, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Add(uint64(i))
		}
	})
}

func BenchmarkFingerprint64(b *testing.B) {
	buf := make([]byte, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf[0] = byte(i)
		_ = hashing.Fingerprint64(buf)
	}
}

func BenchmarkStarEnumerate(b *testing.B) {
	inst, err := workload.NewF0Instance(16, 4, 8, 8, true, rng.New(29))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream, err := inst.Source()
		if err != nil {
			b.Fatal(err)
		}
		n := words.Drain(stream, func(words.Word) {})
		if n == 0 {
			b.Fatal("empty star")
		}
		b.SetBytes(int64(n))
	}
}

func BenchmarkExactF0Query(b *testing.B) {
	ex, err := core.NewExact(12, 4)
	if err != nil {
		b.Fatal(err)
	}
	words.Drain(workload.Uniform(12, 4, 20000, 33), ex.Observe)
	c := words.MustColumnSet(12, 0, 3, 6, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.F0(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactWire times the exact summary's wire codec at the
// exact-coldquery workload's final shape: 237,568 rows of d = 16 over
// [4] (a 7.6 MB blob), encoded and decoded once per iteration.
func BenchmarkExactWire(b *testing.B) {
	const d, q, rows = 16, 4, 237_568
	ex, err := core.NewExact(d, q)
	if err != nil {
		b.Fatal(err)
	}
	ex.ObserveBatch(words.Collect(workload.ZipfPatterns(d, q, rows, 4096, 1.1, 1), -1).Batch())
	blob, err := ex.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ex.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.UnmarshalSummary(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExperimentQuick runs each experiment driver end-to-end in
// quick mode — the "regenerate everything" cost.
func BenchmarkExperimentQuick(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(id, experiments.Options{Seed: uint64(i + 1), Quick: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
