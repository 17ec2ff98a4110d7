// Benchmarks regenerating the paper's evaluation artifacts (one bench
// per Table 1 row and Figure 1 pane, named Table1_*/Figure1_*) plus
// the per-theorem experiment benches E3–E9 and micro-benchmarks for
// every substrate the DESIGN.md ablations call out. Run with
//
//	go test -bench=. -benchmem
package projfreq

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/anet"
	"repro/internal/benchsuite"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/freq"
	"repro/internal/hashing"
	"repro/internal/rng"
	"repro/internal/sample"
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
		src := table.Source()
		for {
			w, ok := src.Next()
			if !ok {
				break
			}
			net.Observe(w)
		}
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
// space/time side of the tradeoff) and across sketch kinds (ablation).

func benchNetObserve(b *testing.B, alpha float64, kind core.F0SketchKind) {
	net, err := core.NewNet(12, 2, core.NetConfig{Alpha: alpha, Epsilon: 0.25, F0Sketch: kind, Seed: 19})
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

func BenchmarkNetObserve_Alpha10(b *testing.B) { benchNetObserve(b, 0.1, core.F0KMV) }
func BenchmarkNetObserve_Alpha20(b *testing.B) { benchNetObserve(b, 0.2, core.F0KMV) }
func BenchmarkNetObserve_Alpha30(b *testing.B) { benchNetObserve(b, 0.3, core.F0KMV) }
func BenchmarkNetObserve_Alpha40(b *testing.B) { benchNetObserve(b, 0.4, core.F0KMV) }

func BenchmarkNetObserve_AblationKMV(b *testing.B)   { benchNetObserve(b, 0.3, core.F0KMV) }
func BenchmarkNetObserve_AblationHLL(b *testing.B)   { benchNetObserve(b, 0.3, core.F0HLL) }
func BenchmarkNetObserve_AblationBJKST(b *testing.B) { benchNetObserve(b, 0.3, core.F0BJKST) }

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
	p := experimentsNetProtocol()
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
		"countmin":    sketch.NewCountMin(272, 5, 1, false),
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
	b.Run("ams-3x32", func(b *testing.B) {
		s := sketch.NewAMS(3, 32, 1)
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

func BenchmarkReservoirObserve(b *testing.B) {
	s := sample.NewReservoir(1024, 31)
	w := make(words.Word, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(w)
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

// --- Sharded engine: ingestion throughput across shard counts and
// batched query latency. The Net summary is the heavy per-row update
// (one sketch add per net member), so it is where parallel ingest
// pays; the final Flush folds the merge cost into the timed region.

func benchShardedObserve(b *testing.B, shards int) {
	cfg := core.NetConfig{Alpha: 0.3, Epsilon: 0.25, Seed: 19}
	eng, err := engine.NewSharded(func(int) (core.Summary, error) {
		return core.NewNet(12, 2, cfg)
	}, engine.Config{Shards: shards, Queue: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	src := rng.New(21)
	w := make(words.Word, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range w {
			w[j] = uint16(src.Intn(2))
		}
		eng.Observe(w)
	}
	if _, err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkShardedObserve_1(b *testing.B) { benchShardedObserve(b, 1) }
func BenchmarkShardedObserve_2(b *testing.B) { benchShardedObserve(b, 2) }
func BenchmarkShardedObserve_4(b *testing.B) { benchShardedObserve(b, 4) }
func BenchmarkShardedObserve_NumCPU(b *testing.B) {
	benchShardedObserve(b, runtime.GOMAXPROCS(0))
}

// --- Batched engine ingestion at d=16. The reservoir sample summary
// keeps per-row work tiny (one RNG draw) and its state bounded
// regardless of b.N, so what this bench measures is the engine hot
// path itself: one arena copy and one channel send per chunk. One
// iteration is one row.

func benchShardedIngest16(b *testing.B, batchRows int) {
	eng, err := engine.NewSharded(func(shard int) (core.Summary, error) {
		return core.NewSample(16, 4, 256, uint64(shard)+1, core.WithReservoir())
	}, engine.Config{Shards: 4, Queue: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	const pool = 1 << 12
	data := make([]uint16, pool*16)
	src := rng.New(35)
	for i := range data {
		data[i] = uint16(src.Intn(4))
	}
	rows := words.BatchOf(16, data)
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < b.N; lo += batchRows {
		n := batchRows
		if lo+n > b.N {
			n = b.N - lo
		}
		eng.ObserveBatch(rows.Slice(0, n))
	}
	if _, err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardedObserveBatch tracks the batched ingestion pipeline
// across batch sizes.
func BenchmarkShardedObserveBatch(b *testing.B) {
	for _, size := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("rows%d", size), func(b *testing.B) {
			benchShardedIngest16(b, size)
		})
	}
}

// BenchmarkMixedReadWrite is the acceptance benchmark for the epoch
// read path (internal/benchsuite.MixedReadWrite): batched ingestion
// timed under concurrent QueryBatch readers. "epoch-readers" must stay
// within ~10% of the read-free "ingest-only" ceiling, against the
// "strict-readers" quiesce baseline. cmd/bench runs the same workloads
// to produce the committed BENCH_*.json receipts.
func BenchmarkMixedReadWrite(b *testing.B) {
	modes := []struct {
		name string
		mode benchsuite.MixedMode
	}{
		{"ingest-only", benchsuite.MixedIngestOnly},
		{"epoch-readers", benchsuite.MixedEpochReaders},
		{"strict-readers", benchsuite.MixedStrictReaders},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) { benchsuite.MixedReadWrite(b, m.mode) })
	}
}

// BenchmarkWALAppend times write-ahead-log batch appends (the
// durability tee's cost per row) via the shared bench suite.
func BenchmarkWALAppend(b *testing.B) { benchsuite.WALAppend(b) }

// BenchmarkClusterShipping is the acceptance benchmark for the
// aggregator's ETag anti-entropy (internal/benchsuite.ClusterShipping):
// one iteration is one pull round against an in-process summary
// source. "changed" pays the full blob transfer + decode + absorb;
// "not-modified" is the 304-only probe the conditional GET reduces
// unchanged shards to — the gap is the per-round saving. cmd/bench
// runs the same workloads into the BENCH_*.json receipts.
func BenchmarkClusterShipping(b *testing.B) {
	modes := []struct {
		name string
		mode benchsuite.ShipMode
	}{
		{"changed", benchsuite.ShipChanged},
		{"not-modified", benchsuite.ShipNotModified},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) { benchsuite.ClusterShipping(b, m.mode) })
	}
}

// batchQueries builds a 32-query mixed batch over distinct projections.
func batchQueries() []engine.Query {
	var qs []engine.Query
	for i := 0; i < 16; i++ {
		c := words.MustColumnSet(12, i%11, i%11+1)
		qs = append(qs, engine.Query{Kind: engine.KindF0, Cols: c})
		qs = append(qs, engine.Query{Kind: engine.KindFp, Cols: c, P: 2})
	}
	return qs
}

func benchShardedQueryBatch(b *testing.B, invalidate bool) {
	eng, err := engine.NewSharded(func(int) (core.Summary, error) {
		return core.NewExact(12, 2)
	}, engine.Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	words.Drain(workload.Uniform(12, 2, 20000, 33), eng.Observe)
	qs := batchQueries()
	eng.QueryBatch(qs) // build the first snapshot outside the timer
	row := make(words.Word, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if invalidate {
			eng.Observe(row) // forces re-merge + cold cache
		}
		res := eng.QueryBatch(qs)
		if res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
}

func BenchmarkShardedQueryBatch_Warm(b *testing.B) { benchShardedQueryBatch(b, false) }
func BenchmarkShardedQueryBatch_Cold(b *testing.B) { benchShardedQueryBatch(b, true) }

// --- Planner-routed queries over a multi-subspace engine. The
// workload mixes exact-match, covering, and full-fallback routes over
// an exact catch-all, whose first query about a column set costs a
// pass over the retained rows. An exact summary memoizes that pass per
// epoch, so every iteration first cuts a new epoch (one more row,
// outside the timer): the batch always meets cold column sets and an
// empty result cache, and the parallel/sequential comparison measures
// the evaluation of (target, C) groups side by side, not the memo.
// The acceptance bar is the parallel sub-benchmark beating the
// sequential one per processed batch.

func plannedBenchEngine(b *testing.B) (*engine.Sharded, []engine.Query) {
	b.Helper()
	eng, err := engine.NewSharded(func(int) (core.Summary, error) {
		return core.NewExact(12, 2)
	}, engine.Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	subspaces := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}
	for _, cols := range subspaces {
		if err := eng.RegisterSubspace(words.MustColumnSet(12, cols...), func(int) (core.Summary, error) {
			return core.NewExact(12, 2)
		}); err != nil {
			b.Fatal(err)
		}
	}
	words.Drain(workload.Uniform(12, 2, 20000, 33), eng.Observe)
	var qs []engine.Query
	for i := 0; i < 12; i++ {
		exact := words.MustColumnSet(12, subspaces[i%4]...) // exact-match route
		cover := words.MustColumnSet(12, i%11, i%11+1)      // covering or full
		qs = append(qs, engine.Query{Kind: engine.KindF0, Cols: exact})
		qs = append(qs, engine.Query{Kind: engine.KindF0, Cols: cover})
		qs = append(qs, engine.Query{Kind: engine.KindFp, Cols: exact, P: 2})
		qs = append(qs, engine.Query{Kind: engine.KindFp, Cols: cover, P: 2})
	}
	return eng, qs
}

// newEpoch makes the next query meet a freshly merged snapshot: no
// memoized vectors, no cached results. It runs outside the timer.
func newEpoch(b *testing.B, eng *engine.Sharded) {
	b.StopTimer()
	eng.Observe(make(words.Word, eng.Dim()))
	if _, err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
}

// BenchmarkPlannedQueryBatch is the acceptance benchmark for the
// planner-routed parallel query path: "parallel" answers the whole
// mixed batch in one QueryBatch (plan → group by (target, C) → one
// worker per group → reassemble), "sequential" answers the same
// queries one QueryBatch call at a time. One iteration processes the
// full batch against a new epoch in both, so ns/op compare directly.
func BenchmarkPlannedQueryBatch(b *testing.B) {
	b.Run("parallel", func(b *testing.B) {
		eng, qs := plannedBenchEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			newEpoch(b, eng)
			res := eng.QueryBatch(qs)
			if res[0].Err != nil {
				b.Fatal(res[0].Err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		eng, qs := plannedBenchEngine(b)
		one := make([]engine.Query, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			newEpoch(b, eng)
			for _, q := range qs {
				one[0] = q
				if res := eng.QueryBatch(one); res[0].Err != nil {
					b.Fatal(res[0].Err)
				}
			}
		}
	})
}

// BenchmarkRegistryPlan measures raw planner throughput: exact-match
// lookups, covering scans, and full fallbacks over an 8-entry
// registry (internal/benchsuite.Plan).
func BenchmarkRegistryPlan(b *testing.B) { benchsuite.Plan(b) }

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

func experimentsNetProtocol() interface {
	Encode(words.RowSource) ([]byte, error)
	Decide([]byte, *workload.F0Instance) (bool, error)
} {
	return benchNet{}
}

// benchNet is a minimal inline protocol identical in shape to
// comm.Net with alpha=0.25; kept local so the root bench file does
// not import internal/comm's full test surface.
type benchNet struct{}

func (benchNet) Encode(src words.RowSource) ([]byte, error) {
	n, err := anet.NewNet(src.Dim(), 0.25)
	if err != nil {
		return nil, err
	}
	m, err := anet.NewMetaSummary(n, func(id uint64) anet.Estimator {
		return sketch.KMVForEpsilon(0.25, 7^rng.Mix64(id))
	})
	if err != nil {
		return nil, err
	}
	words.Drain(src, m.Observe)
	return m.MarshalSketches()
}

func (benchNet) Decide(msg []byte, inst *workload.F0Instance) (bool, error) {
	n, err := anet.NewNet(inst.D, 0.25)
	if err != nil {
		return false, err
	}
	m, err := anet.NewMetaSummary(n, func(id uint64) anet.Estimator {
		return sketch.KMVForEpsilon(0.25, 7^rng.Mix64(id))
	})
	if err != nil {
		return false, err
	}
	if err := m.UnmarshalSketches(msg); err != nil {
		return false, err
	}
	ans, err := m.Query(inst.Query, 0)
	if err != nil {
		return false, err
	}
	return ans.Estimate >= math.Sqrt(inst.ThresholdHigh()*inst.ThresholdLow()), nil
}

var _ = fmt.Sprintf // keep fmt linked for future bench reporting
