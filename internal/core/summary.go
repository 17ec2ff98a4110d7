// Package core is the paper's primary contribution surfaced as a
// library: summaries of an n×d array over [Q], built while streaming
// the data, that answer projected frequency queries for column sets
// revealed only after observation (Section 2's computational model).
//
// Four summaries cover the paper's upper-bound landscape and the
// baselines its lower bounds are measured against:
//
//   - Exact: retains every row — the Θ(nd) naïve solution of
//     Section 3.1; answers everything exactly.
//   - Sample: uniform row sampling — Theorem 5.1/Corollary 5.2;
//     answers ℓp frequency estimation and heavy hitters with
//     guarantees for 0 < p ≤ 1 in O(ε⁻² log 1/δ) space.
//   - Net: Algorithm 1 over an α-net — Theorem 6.5; answers F0/Fp
//     within β·2^{O(αd)} using 2^{H(1/2−α)d} sketches.
//   - Registered: one F0 sketch for a query set known before the
//     data — the KHyperLogLog deployment regime the paper's
//     introduction contrasts with. A registry holding one Registered
//     per t-subset that combin.Combinations enumerates is Section
//     3.1's Ω(d^t) enumeration baseline for a known query size t.
//
// Every summary is mergeable (Mergeable) and serializable to a
// versioned wire format (marshal.go, specified in ARCHITECTURE.md),
// which is what makes sharded and cross-process ingestion possible.
//
// Capabilities differ by summary, mirroring the paper's dichotomies
// (e.g. no summary but Exact supports ℓp sampling for p ≠ 1 —
// Theorem 5.5 proves that inherent). Callers probe capabilities via
// the narrow query interfaces and receive ErrUnsupported otherwise.
package core

import (
	"errors"
	"fmt"

	"repro/internal/rng"
	"repro/internal/words"
)

// ErrUnsupported is returned when a summary cannot answer a query
// class at all (as opposed to failing on a malformed query).
var ErrUnsupported = errors.New("core: query unsupported by this summary")

// Summary is a space-bounded digest of the observed stream.
type Summary interface {
	// ObserveBatch feeds every row of b, in order. A summary's state
	// depends on the row sequence only, not on how it is split into
	// batches (the batch property tests pin this bit-for-bit), so
	// per-row bookkeeping — projection scratch, key staging, clones —
	// is paid once per batch. The summary must not retain b or any row
	// view into it, and panics if b's dimension is not Dim(). An empty
	// batch is a no-op.
	ObserveBatch(b *words.Batch)
	// Observe feeds one row as a one-row batch; the summary must not
	// retain the slice.
	Observe(w words.Word)
	// Dim returns the number of columns d.
	Dim() int
	// Alphabet returns the alphabet size Q.
	Alphabet() int
	// Rows returns the number of rows observed (F1, which Section 5.3
	// notes is query-independent).
	Rows() int64
	// SizeBytes reports the summary's space, the quantity every bound
	// in the paper is stated in.
	SizeBytes() int
	// Name identifies the summary kind in experiment reports.
	Name() string
}

// ObserveAll feeds every row of b into s.
func ObserveAll(s Summary, b *words.Batch) { s.ObserveBatch(b) }

// PackedObserver is how rows reach every summary an engine builds: a
// batch already in the summary's packed layout (words.PackedBatch),
// whose symbols were checked against the alphabet where it was packed
// or verified, so the summary copies bytes or builds keys and checks
// nothing. Every summary's ObservePacked is its one ingest
// implementation: its u16 ObserveBatch packs the batch in the
// summary's layout, panicking on a symbol outside [Q], and calls it.
// ObservePacked panics if b's layout is not the summary's, and, like
// ObserveBatch, must not retain b or any row of it.
type PackedObserver interface {
	ObservePacked(b *words.PackedBatch)
}

// packU16 packs b into buf in pk's layout for a summary's u16
// ObserveBatch and returns buf, panicking, with nothing observed, if a
// symbol lies outside [Q]. who names the summary in the panic.
func packU16(buf *words.PackedBatch, pk words.Packing, b *words.Batch, who string, q int) *words.PackedBatch {
	if i := buf.Pack(pk, b); i >= 0 {
		panic(fmt.Sprintf("core: batch row %d symbol %d outside %s alphabet [%d]", i/b.Dim(), b.Symbols()[i], who, q))
	}
	return buf
}

// Mergeable is the distributed-ingestion capability: a summary that
// can fold a peer built over a disjoint part of the stream into
// itself, so that the merged summary answers every query as if it had
// observed the concatenated stream. All four core summaries implement
// it (the sketches underneath — KMV, the p-stable moment sketch, and
// the row sampler — are all mergeable); merging
// requires compatible shape and, for seeded sketch summaries,
// identical seeds, and returns an error wrapping ErrIncompatibleMerge
// otherwise. Combined with the wire format (see marshal.go), merging
// works cross-process: decode a peer's blob, then Merge it.
type Mergeable interface {
	// Merge folds other into the receiver. other must be the same
	// summary kind with a compatible configuration; it is left intact.
	Merge(other Summary) error
}

// F0Querier answers projected distinct-count queries.
type F0Querier interface {
	F0(c words.ColumnSet) (float64, error)
}

// FpQuerier answers projected frequency-moment queries.
type FpQuerier interface {
	Fp(c words.ColumnSet, p float64) (float64, error)
}

// FrequencyQuerier answers projected point-frequency queries for a
// pattern b over the columns of C (len(b) == |C|).
type FrequencyQuerier interface {
	Frequency(c words.ColumnSet, b words.Word) (float64, error)
}

// HeavyHitter is a reported pattern with its estimated frequency.
type HeavyHitter struct {
	Pattern  words.Word
	Estimate float64
}

// HeavyHitterQuerier answers projected φ-ℓp heavy hitter queries.
type HeavyHitterQuerier interface {
	HeavyHitters(c words.ColumnSet, p, phi float64) ([]HeavyHitter, error)
}

// LpSample is one draw from the (approximate) ℓp distribution over
// projected patterns together with the sampler's probability estimate,
// matching the problem definition in Section 2.1.
type LpSample struct {
	Pattern     words.Word
	Probability float64
}

// LpSampleQuerier draws from the ℓp distribution over patterns of the
// projection.
type LpSampleQuerier interface {
	SampleLp(c words.ColumnSet, p float64, r *rng.Source) (LpSample, error)
}

// validateQuery checks a column query against summary shape.
func validateQuery(s Summary, c words.ColumnSet) error {
	if c.Dim() != s.Dim() {
		return fmt.Errorf("core: query dimension %d != data dimension %d", c.Dim(), s.Dim())
	}
	if c.Len() == 0 {
		return fmt.Errorf("core: empty column query")
	}
	return nil
}

// validatePattern checks a pattern against a query.
func validatePattern(c words.ColumnSet, b words.Word, q int) error {
	if len(b) != c.Len() {
		return fmt.Errorf("core: pattern length %d != |C| = %d", len(b), c.Len())
	}
	return b.Validate(q)
}
