package anet

import (
	"encoding"
	"fmt"
	"sort"

	"repro/internal/hashing"
	"repro/internal/words"
)

// Estimator is the sketch contract Algorithm 1 requires: a
// β-approximate estimator of one projected frequency statistic fed
// with pattern fingerprints. core.Net keeps a KMV for F0 and one
// sketch.Stable per moment order behind it; the F0 ablation of
// experiment E8 plugs in HLL and BJKST as well.
type Estimator interface {
	// AddBatch observes every fingerprint of items in order; the state
	// afterwards must not depend on how a stream is cut into calls.
	// items is shared by all of a member's estimators, so AddBatch
	// must only read it.
	AddBatch(items []uint64)
	Estimate() float64
	SizeBytes() int
}

// Factory builds a fresh Estimator for the net member with the given
// subset ID (its bitmask); implementations must derive per-subset
// seeds from the ID so sketches are independent.
type Factory func(subsetID uint64) Estimator

// MetaSummary is Algorithm 1 (ProjectedFreq): it generates the α-net
// N, keeps one sketch per member U ∈ N and problem (one statistic,
// such as F0 or one F_p) updated with the projection of every observed
// row onto U, and answers a query C for a problem from that problem's
// sketch at an α-neighbour C′, inheriting the Lemma 6.4 rounding
// distortion.
type MetaSummary struct {
	net      *Net
	problems []Factory
	masks    []uint64
	subsets  []words.ColumnSet
	// sk holds member i's estimator for problem j at i·len(problems)+j.
	sk     []Estimator
	keyBuf []byte   // reusable key arena for ObservePacked
	fps    []uint64 // reusable fingerprint arena for ObservePacked
	rows   int64
}

// NewMetaSummary materializes the net (d ≤ 30 is required for
// enumeration; the experiments use d ≤ 16) and, for every member, one
// sketch per problem, built by that problem's factory. Problems are
// addressed by their index in problems.
func NewMetaSummary(net *Net, problems ...Factory) (*MetaSummary, error) {
	if len(problems) == 0 {
		return nil, fmt.Errorf("anet: meta-summary without a problem")
	}
	m := &MetaSummary{net: net, problems: problems}
	err := net.EnumerateMasks(func(mask uint64) bool {
		m.masks = append(m.masks, mask)
		m.subsets = append(m.subsets, maskColumns(mask, net.Dim()))
		for _, f := range problems {
			m.sk = append(m.sk, f(mask))
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if len(m.masks) == 0 {
		return nil, fmt.Errorf("anet: net has no members")
	}
	return m, nil
}

// est returns member i's estimator for problem j.
func (m *MetaSummary) est(i, j int) Estimator { return m.sk[i*len(m.problems)+j] }

func (m *MetaSummary) checkProblem(problem int) error {
	if problem < 0 || problem >= len(m.problems) {
		return fmt.Errorf("anet: no problem %d (have %d)", problem, len(m.problems))
	}
	return nil
}

// Net returns the underlying α-net.
func (m *MetaSummary) Net() *Net { return m.net }

// NumSketches returns |N|, the count of members; each keeps one sketch
// per problem.
func (m *MetaSummary) NumSketches() int { return len(m.masks) }

// Rows returns the number of rows observed.
func (m *MetaSummary) Rows() int64 { return m.rows }

// ObservePacked feeds every row of b into every member sketch — the
// O(|N|) per-row cost that Theorem 6.5 trades against query-time
// generality; the paper's claim is about space, not update time. It is
// the meta-summary's only ingest: core.Net's u16 door packs in the
// summary's layout, and the experiments pack their tables once. b may
// be in any packed layout of the net's dimension, because the keys do
// not depend on the layout: for each net member the whole batch is
// projected into one flat key arena (words.Packing.AppendKeys, two
// little-endian bytes a projected symbol whatever the packing) and
// fingerprinted in one pass (hashing.AppendFingerprints64), once for
// all problems, and the fingerprints are handed to the member's
// sketches in problem order. Both arenas are owned by the summary and
// reused across members and batches; every sketch sees the same
// fingerprints in the same order however the stream is cut into
// batches.
func (m *MetaSummary) ObservePacked(b *words.PackedBatch) {
	pk := b.Packing()
	if pk.Dim() != m.net.Dim() {
		panic(fmt.Sprintf("anet: batch dimension %d != dimension %d", pk.Dim(), m.net.Dim()))
	}
	n := b.Len()
	if n == 0 {
		return
	}
	m.rows += int64(n)
	k := len(m.problems)
	for i, cs := range m.subsets {
		m.keyBuf = pk.AppendKeys(m.keyBuf[:0], b.Rows(), cs)
		m.fps = hashing.AppendFingerprints64(m.fps[:0], m.keyBuf, n, 2*cs.Len())
		for _, e := range m.sk[i*k : (i+1)*k] {
			e.AddBatch(m.fps)
		}
	}
}

// Answer is the result of a meta-summary query.
type Answer struct {
	// Estimate is the sketch estimate at the neighbour.
	Estimate float64
	// Neighbor is the net member the query was rounded to.
	Neighbor words.ColumnSet
	// Distance is |C Δ C′|; 0 means the query was answered directly.
	Distance int
	// Distortion is the Lemma 6.4 bound 2^{Distance·c(p)} for the
	// problem's moment order, folded in by the caller via
	// anet.Distortion; stored here for reporting.
	Distortion float64
}

// Query answers the projection query C for the problem with the given
// index, whose statistic has moment order p (p = 0 for F0). The
// estimate is the raw neighbour-sketch value; the true answer lies
// within Distortion·β of it per Theorem 6.5.
func (m *MetaSummary) Query(problem int, c words.ColumnSet, p float64) (Answer, error) {
	return m.QueryMode(problem, c, p, RoundNearest)
}

// QueryMode is Query with an explicit neighbour rounding mode (the
// ablation of experiment E10).
func (m *MetaSummary) QueryMode(problem int, c words.ColumnSet, p float64, mode RoundingMode) (Answer, error) {
	if err := m.checkProblem(problem); err != nil {
		return Answer{}, err
	}
	if c.Dim() != m.net.Dim() {
		return Answer{}, fmt.Errorf("anet: query dimension %d != net dimension %d", c.Dim(), m.net.Dim())
	}
	nb, dist := m.net.NeighborMode(c, mode)
	idx := m.indexOf(nb.Mask())
	if idx < 0 {
		return Answer{}, fmt.Errorf("anet: neighbour %v not materialized", nb)
	}
	return Answer{
		Estimate:   m.est(idx, problem).Estimate(),
		Neighbor:   nb,
		Distance:   dist,
		Distortion: Distortion(p, dist),
	}, nil
}

// Mergeable is implemented by estimators that support distributed
// ingestion; the concrete sketches in internal/sketch all do, each
// with a typed Merge — this adapter dispatches on the dynamic type.
type Mergeable interface {
	MergeEstimator(other Estimator) error
}

// Merge folds another meta-summary built over the same net and
// factories into m, enabling shard-and-merge ingestion of partitioned
// streams. Every member sketch must support merging.
func (m *MetaSummary) Merge(o *MetaSummary) error {
	if len(m.masks) != len(o.masks) {
		return fmt.Errorf("anet: merging nets of different size (%d vs %d)", len(m.masks), len(o.masks))
	}
	if len(m.problems) != len(o.problems) {
		return fmt.Errorf("anet: merging %d problems with %d", len(m.problems), len(o.problems))
	}
	for i := range m.masks {
		if m.masks[i] != o.masks[i] {
			return fmt.Errorf("anet: member %d mask mismatch", i)
		}
	}
	for i, s := range m.sk {
		mg, ok := s.(Mergeable)
		if !ok {
			return fmt.Errorf("anet: sketch %d does not merge", i)
		}
		if err := mg.MergeEstimator(o.sk[i]); err != nil {
			return fmt.Errorf("anet: sketch %d: %w", i, err)
		}
	}
	m.rows += o.rows
	return nil
}

// Clone returns a copy of m that shares no sketch state with it:
// member i's estimator for problem j is copyEst(j, e) of m's, and
// problems, one factory per problem of m, build what the copy builds
// afresh (UnmarshalSketches). The net and its member list, which never
// change after construction, are shared. ok is false, and the copy
// nil, when copyEst declines an estimator.
func (m *MetaSummary) Clone(problems []Factory, copyEst func(problem int, e Estimator) (Estimator, bool)) (*MetaSummary, bool) {
	c := &MetaSummary{net: m.net, problems: problems, masks: m.masks, subsets: m.subsets,
		sk: make([]Estimator, len(m.sk)), rows: m.rows}
	for i, e := range m.sk {
		var ok bool
		if c.sk[i], ok = copyEst(i%len(m.problems), e); !ok {
			return nil, false
		}
	}
	return c, true
}

func (m *MetaSummary) indexOf(mask uint64) int {
	i := sort.Search(len(m.masks), func(i int) bool { return m.masks[i] >= mask })
	if i < len(m.masks) && m.masks[i] == mask {
		return i
	}
	return -1
}

// SizeBytes returns the total serialized size of all member sketches:
// the space Theorem 6.5 accounts.
func (m *MetaSummary) SizeBytes() int {
	total := 0
	for _, s := range m.sk {
		total += s.SizeBytes()
	}
	return total
}

// MarshalSketches serializes one problem's member sketches (in mask
// order) when they implement encoding.BinaryMarshaler; the
// communication experiments use this as Alice's message body.
func (m *MetaSummary) MarshalSketches(problem int) ([]byte, error) {
	if err := m.checkProblem(problem); err != nil {
		return nil, err
	}
	var out []byte
	for i := range m.masks {
		bm, ok := m.est(i, problem).(encoding.BinaryMarshaler)
		if !ok {
			return nil, fmt.Errorf("anet: sketch %d does not serialize", i)
		}
		b, err := bm.MarshalBinary()
		if err != nil {
			return nil, err
		}
		var hdr [4]byte
		hdr[0] = byte(len(b))
		hdr[1] = byte(len(b) >> 8)
		hdr[2] = byte(len(b) >> 16)
		hdr[3] = byte(len(b) >> 24)
		out = append(out, hdr[:]...)
		out = append(out, b...)
	}
	return out, nil
}

// UnmarshalSketches restores one problem's member sketch state from a
// MarshalSketches message; this is Bob's decoding step in the
// communication experiments and the summary layer's net decoding.
//
// The receiver must have been freshly built with the same net and
// factories (no rows observed). When the member sketches support
// merging (Mergeable), each message sketch is decoded into a new
// factory-made instance and folded into the corresponding empty
// member, which both reproduces the serialized state exactly and
// rejects message sketches whose parameters contradict what the
// factory derives for that member — the validation the summary
// layer's wire decoding relies on. Members without merge support are
// overwritten in place, unvalidated.
func (m *MetaSummary) UnmarshalSketches(problem int, data []byte) error {
	if err := m.checkProblem(problem); err != nil {
		return err
	}
	off := 0
	for i, mask := range m.masks {
		target := m.est(i, problem)
		mg, validated := target.(Mergeable)
		if validated {
			target = m.problems[problem](mask)
		}
		bu, ok := target.(encoding.BinaryUnmarshaler)
		if !ok {
			return fmt.Errorf("anet: sketch %d does not deserialize", i)
		}
		if off+4 > len(data) {
			return fmt.Errorf("anet: truncated sketch message at sketch %d", i)
		}
		n := int(data[off]) | int(data[off+1])<<8 | int(data[off+2])<<16 | int(data[off+3])<<24
		off += 4
		if n < 0 || off+n > len(data) {
			return fmt.Errorf("anet: truncated sketch body at sketch %d", i)
		}
		if err := bu.UnmarshalBinary(data[off : off+n]); err != nil {
			return fmt.Errorf("anet: sketch %d: %w", i, err)
		}
		if validated {
			if err := mg.MergeEstimator(target); err != nil {
				return fmt.Errorf("anet: sketch %d contradicts its factory parameters: %w", i, err)
			}
		}
		off += n
	}
	if off != len(data) {
		return fmt.Errorf("anet: %d trailing bytes in sketch message", len(data)-off)
	}
	return nil
}
