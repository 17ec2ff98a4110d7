package core

import (
	"fmt"
	"slices"

	"repro/internal/anet"
	"repro/internal/rng"
	"repro/internal/sketch"
	"repro/internal/words"
)

// NetConfig configures the Net summary.
type NetConfig struct {
	// Alpha is the net parameter α ∈ (0, 1/2) trading space for
	// approximation (Figure 1).
	Alpha float64
	// Epsilon is the per-sketch accuracy β = 1+ε.
	Epsilon float64
	// Moments lists the orders p (0 < p ≤ 2, p ≠ 0) for which F_p
	// sketches are maintained in addition to F0. Each moment adds one
	// p-stable sketch per net member.
	Moments []float64
	// StableReps overrides the p-stable repetition count (default
	// sized from Epsilon).
	StableReps int
	// Seed drives all sketch randomness.
	Seed uint64
}

// Net is Algorithm 1 (Theorem 6.5) as a summary: one MetaSummary
// whose members each keep a KMV sketch for F0 (problem 0) and one
// p-stable sketch per configured moment order, ascending (problems
// 1…), all fed by one key pass per member.
type Net struct {
	d, q int
	cfg  NetConfig
	meta *anet.MetaSummary
	// moments lists the distinct configured moment orders, ascending;
	// moments[j] is the meta-summary's problem j+1.
	moments []float64
	// seeds[0] seeds the F0 sketches and seeds[j+1] moment j's; a
	// member's sketch takes its problem's seed xor its mask's mix.
	seeds []uint64
	reps  int // repetitions of every moment sketch
	// tables holds each moment's variate table, shared by the moment's
	// members; per-process ingest state, never serialized.
	tables  []*sketch.StableTable
	rows    int64
	pk      words.Packing     // the rows' packed layout (d, q)
	packBuf words.PackedBatch // ObserveBatch's packed copy of its batch
}

// Construction limits, shared with wire decoding so that any net a
// constructor accepts can also be decoded: the summary may hold at
// most maxNetMembers sketches per problem and each p-stable sketch at
// most maxStableReps repetitions.
const (
	maxNetMembers = 1 << 22
	maxStableReps = 1 << 21
	maxNetMoments = 16
)

// NewNet builds the summary; d must be ≤ 30 (net enumeration), and in
// practice experiments use d ≤ 16. Degenerate shapes and parameters
// are rejected with errors wrapping ErrInvalidParam, as are
// configurations whose net or sketch sizes exceed the construction
// limits above.
func NewNet(d, q int, cfg NetConfig) (*Net, error) {
	if err := validateRowShape("net", d, q); err != nil {
		return nil, err
	}
	if !(cfg.Alpha > 0 && cfg.Alpha < 0.5) {
		return nil, badParam("net", "alpha", cfg.Alpha, "outside (0, 1/2)")
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.1
	}
	if !(cfg.Epsilon > 0 && cfg.Epsilon < 1) {
		return nil, badParam("net", "epsilon", cfg.Epsilon, "outside (0,1)")
	}
	if err := validateEpsRetention("net", cfg.Epsilon); err != nil {
		return nil, err
	}
	if len(cfg.Moments) > maxNetMoments {
		return nil, badParam("net", "moments", len(cfg.Moments),
			fmt.Sprintf("exceeds the limit %d", maxNetMoments))
	}
	if cfg.StableReps < 0 || cfg.StableReps > maxStableReps {
		return nil, badParam("net", "stablereps", cfg.StableReps,
			fmt.Sprintf("outside [0, %d]", maxStableReps))
	}
	reps := cfg.StableReps
	if reps == 0 {
		reps = int(6/(cfg.Epsilon*cfg.Epsilon)) + 3
	}
	if len(cfg.Moments) > 0 && reps > maxStableReps {
		return nil, badParam("net", "epsilon", cfg.Epsilon,
			fmt.Sprintf("implies %d stable repetitions, above the limit %d", reps, maxStableReps))
	}
	n, err := anet.NewNet(d, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	if count, err := n.MemberCount(); err != nil {
		return nil, badParam("net", "alpha", cfg.Alpha, err.Error())
	} else if count > maxNetMembers {
		return nil, badParam("net", "alpha", cfg.Alpha,
			fmt.Sprintf("yields a net of %d members, above the limit %d", count, maxNetMembers))
	}
	// The moments' seeds are drawn in configuration order, skipping
	// repeats; the moments are then laid out ascending.
	master := rng.New(cfg.Seed)
	f0seed := master.Uint64()
	seeds := make(map[float64]uint64, len(cfg.Moments))
	var moments []float64
	for _, p := range cfg.Moments {
		if !(p > 0 && p <= 2) {
			return nil, badParam("net", "moment", p, "outside (0,2]")
		}
		if _, dup := seeds[p]; !dup {
			seeds[p] = master.Uint64()
			moments = append(moments, p)
		}
	}
	slices.Sort(moments)
	s := &Net{d: d, q: q, cfg: cfg, moments: moments, seeds: []uint64{f0seed}, reps: reps, pk: words.NewPacking(d, q)}
	for _, p := range moments {
		s.seeds = append(s.seeds, seeds[p])
	}
	if s.meta, err = anet.NewMetaSummary(n, s.problems()...); err != nil {
		return nil, err
	}
	return s, nil
}

// problems gives s fresh variate tables, one per moment, and returns
// the meta-summary's factories over them: problem 0 builds a member's
// F0 KMV and problem j+1 its sketch of moment j. Every member of a
// moment shares the moment's table: a member's row for an item is
// keyed by its seed xor the item's mix, so the members' rows never
// clash (sketch.StableTable). A table allocates nothing until its
// first lookup.
func (s *Net) problems() []anet.Factory {
	eps, f0seed, reps := s.cfg.Epsilon, s.seeds[0], s.reps
	problems := []anet.Factory{func(id uint64) anet.Estimator {
		return kmvEstimator{sketch.KMVForEpsilon(eps, f0seed^rng.Mix64(id))}
	}}
	s.tables = make([]*sketch.StableTable, len(s.moments))
	for j, p := range s.moments {
		pseed, table := s.seeds[j+1], sketch.NewStableTable(p, reps, sketch.StableTableBudget)
		s.tables[j] = table
		problems = append(problems, func(id uint64) anet.Estimator {
			sk := sketch.NewStable(p, reps, pseed^rng.Mix64(id))
			sk.ShareTable(table)
			return &stableAdapter{sk: sk}
		})
	}
	return problems
}

// Clone returns a copy of s that shares no mutable state with it:
// every member's KMV and moment sketches are copied (sketch.KMV.Clone,
// sketch.Stable.Clone), and the copy's moment sketches share fresh
// variate tables of its own, never s's, which only s's ingest may
// touch. The copy's state, and so its wire form, is bit for bit that
// of a fresh net into which s was merged.
func (s *Net) Clone() *Net {
	c := &Net{d: s.d, q: s.q, cfg: s.cfg, moments: s.moments, seeds: s.seeds, reps: s.reps, rows: s.rows, pk: s.pk}
	meta, ok := s.meta.Clone(c.problems(), func(j int, e anet.Estimator) (anet.Estimator, bool) {
		switch e := e.(type) {
		case kmvEstimator:
			return kmvEstimator{e.KMV.Clone()}, true
		case *stableAdapter:
			sk := e.sk.Clone()
			sk.ShareTable(c.tables[j-1])
			return &stableAdapter{sk: sk}, true
		}
		return nil, false
	})
	if !ok {
		panic("core: net member sketch outside NewNet's kinds")
	}
	c.meta = meta
	return c
}

// stableAdapter exposes a p-stable moment sketch through the
// anet.Estimator interface.
type stableAdapter struct {
	sk *sketch.Stable
}

func (a *stableAdapter) AddBatch(items []uint64) { a.sk.AddBatch(items) }
func (a *stableAdapter) Estimate() float64       { return a.sk.EstimateMoment() }
func (a *stableAdapter) SizeBytes() int          { return a.sk.SizeBytes() }

// MergeEstimator implements anet.Mergeable.
func (a *stableAdapter) MergeEstimator(o anet.Estimator) error {
	other, ok := o.(*stableAdapter)
	if !ok {
		return fmt.Errorf("core: cannot merge stable sketch with %T", o)
	}
	return a.sk.Merge(other.sk)
}

// MarshalBinary forwards the underlying sketch's encoding, so moment
// sketches serialize like the F0 ones.
func (a *stableAdapter) MarshalBinary() ([]byte, error) { return a.sk.MarshalBinary() }

// UnmarshalBinary forwards the underlying sketch's decoding.
func (a *stableAdapter) UnmarshalBinary(data []byte) error { return a.sk.UnmarshalBinary(data) }

// kmvEstimator adds anet.Mergeable dispatch on top of the KMV sketch's
// typed Merge; binary (de)serialization is the sketch's own.
type kmvEstimator struct{ *sketch.KMV }

// MergeEstimator implements anet.Mergeable.
func (k kmvEstimator) MergeEstimator(o anet.Estimator) error {
	other, ok := o.(kmvEstimator)
	if !ok {
		return fmt.Errorf("core: cannot merge KMV with %T", o)
	}
	return k.KMV.Merge(other.KMV)
}

// Observe feeds one row into every member sketch, as a one-row batch.
func (s *Net) Observe(w words.Word) {
	s.ObserveBatch(words.RowBatch(w))
}

// ObserveBatch packs the batch in the summary's layout and ingests it
// (ObservePacked). It panics if b's dimension differs from the
// summary's, or, observing none of the batch, if a symbol lies outside
// [Q].
func (s *Net) ObserveBatch(b *words.Batch) {
	if b.Dim() != s.d {
		panic(fmt.Sprintf("core: batch dimension %d != data dimension %d", b.Dim(), s.d))
	}
	s.ObservePacked(packU16(&s.packBuf, s.pk, b, "net summary", s.q))
}

// ObservePacked streams the whole batch member-major through the
// meta-summary (anet.MetaSummary.ObservePacked), so each member's keys
// are built off the packed rows once per batch for all its sketches.
// It panics if b's layout is not the summary's.
func (s *Net) ObservePacked(b *words.PackedBatch) {
	if b.Packing() != s.pk {
		panic("core: packed batch layout differs from the net summary's")
	}
	s.rows += int64(b.Len())
	s.meta.ObservePacked(b)
}

// Dim returns d.
func (s *Net) Dim() int { return s.d }

// Alphabet returns Q.
func (s *Net) Alphabet() int { return s.q }

// Rows returns n.
func (s *Net) Rows() int64 { return s.rows }

// SizeBytes totals all member sketches across all problems.
func (s *Net) SizeBytes() int { return s.meta.SizeBytes() }

// VariateTableStats totals the moment sketches' variate tables: one
// per configured moment, each at most sketch.StableTableBudget
// float64s of variates.
func (s *Net) VariateTableStats() sketch.StableTableStats {
	var total sketch.StableTableStats
	for _, t := range s.tables {
		st := t.Stats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Rows += st.Rows
		total.MaxRows += st.MaxRows
	}
	return total
}

// Name identifies the summary.
func (s *Net) Name() string {
	return fmt.Sprintf("net(alpha=%.3f,kmv)", s.cfg.Alpha)
}

// NumSketches returns the member count per problem (|N|).
func (s *Net) NumSketches() int { return s.meta.NumSketches() }

// ANet exposes the underlying α-net for reporting.
func (s *Net) ANet() *anet.Net { return s.meta.Net() }

// F0 answers the projected distinct count through the α-neighbour.
// The returned estimate is within β·2^{dist} of the truth (Lemma 6.4
// item 1 with the sketch's β), where dist ≤ ⌈αd⌉.
func (s *Net) F0(c words.ColumnSet) (float64, error) {
	ans, err := s.F0Answer(c)
	return ans.Estimate, err
}

// F0Answer returns the full neighbour/distortion detail for F0, used
// by the experiment drivers. The Distortion field is alphabet-aware:
// q^{dist} rather than the binary 2^{dist} (see anet.DistortionQ).
func (s *Net) F0Answer(c words.ColumnSet) (anet.Answer, error) {
	return s.answer(c, 0, anet.RoundNearest)
}

// F0AnswerMode is F0Answer with an explicit neighbour rounding mode,
// used by the E10 ablation.
func (s *Net) F0AnswerMode(c words.ColumnSet, mode anet.RoundingMode) (anet.Answer, error) {
	return s.answer(c, 0, mode)
}

// Fp answers a projected moment query for a configured order p; F1 is
// answered exactly as Rows() per Section 5.3.
func (s *Net) Fp(c words.ColumnSet, p float64) (float64, error) {
	if p == 1 {
		if err := validateQuery(s, c); err != nil {
			return 0, err
		}
		return float64(s.rows), nil
	}
	ans, err := s.FpAnswer(c, p)
	return ans.Estimate, err
}

// FpAnswer returns full detail for a moment query (p = 0 is F0); its
// Distortion field is alphabet-aware like F0Answer's.
func (s *Net) FpAnswer(c words.ColumnSet, p float64) (anet.Answer, error) {
	return s.answer(c, p, anet.RoundNearest)
}

// answer rounds c to its α-neighbour under mode and reads the sketch of
// moment order p there (p = 0 is F0).
func (s *Net) answer(c words.ColumnSet, p float64, mode anet.RoundingMode) (anet.Answer, error) {
	if err := validateQuery(s, c); err != nil {
		return anet.Answer{}, err
	}
	problem := 0
	if p != 0 {
		i, ok := slices.BinarySearch(s.moments, p)
		if !ok {
			return anet.Answer{}, fmt.Errorf("%w: moment p=%v not configured (have %v)", ErrUnsupported, p, s.cfg.Moments)
		}
		problem = i + 1
	}
	ans, err := s.meta.QueryMode(problem, c, p, mode)
	if err != nil {
		return anet.Answer{}, err
	}
	ans.Distortion = anet.DistortionQ(p, ans.Distance, s.q)
	return ans, nil
}

// Merge implements Mergeable: it folds another Net summary into s,
// enabling shard-and-merge ingestion of partitioned streams. Both
// summaries must have been built with identical (d, q, config) — in
// particular the same Seed, so member sketches share hash functions.
func (s *Net) Merge(other Summary) error {
	o, ok := other.(*Net)
	if !ok {
		return mergeErr("cannot merge %s with %T", s.Name(), other)
	}
	if o == s {
		return errSelfMerge
	}
	if o.d != s.d || o.q != s.q {
		return mergeErr("merging nets of different shape (%d/%d vs %d/%d)", s.d, s.q, o.d, o.q)
	}
	if s.cfg.Alpha != o.cfg.Alpha || s.cfg.Epsilon != o.cfg.Epsilon ||
		s.cfg.Seed != o.cfg.Seed || s.cfg.StableReps != o.cfg.StableReps {
		return mergeErr("merging nets with different configs")
	}
	// Validate the full moment set before touching any sketch, so a
	// refused merge leaves s untouched rather than half-merged.
	if !slices.Equal(s.moments, o.moments) {
		return mergeErr("merging nets with different moment sets (%v vs %v)", s.moments, o.moments)
	}
	if err := s.meta.Merge(o.meta); err != nil {
		return mergeWrap(err)
	}
	s.rows += o.rows
	return nil
}
