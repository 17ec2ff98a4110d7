// Package projfreq is the public API of the projected frequency
// estimation library, a faithful implementation of "Subspace
// Exploration: Bounds on Projected Frequency Estimation" (Cormode,
// Dickens, Woodruff; PODS 2021).
//
// The model: an n×d array A over alphabet [Q] is observed as a stream
// of rows; only afterwards a column subset C ⊆ [d] is revealed, and
// queries are functions of the frequency vector f(A, C) of the
// projected rows — distinct counts (F0), frequency moments (Fp),
// point frequencies, heavy hitters, and ℓp samples.
//
// Build a summary, stream rows into it, then query:
//
//	sum, _ := projfreq.NewSampleSummary(d, q, 0.05, 0.01, seed)
//	for _, row := range rows {
//		sum.Observe(row)
//	}
//	c, _ := projfreq.NewColumnSet(d, 0, 3, 7)
//	est, _ := sum.Frequency(c, pattern)
//
// Three summaries with different guarantees are provided, mirroring
// the paper's upper bounds and baselines:
//
//   - NewExactSummary: Θ(nd) space, every query exact (Section 3.1's
//     naïve baseline and the experiment ground truth).
//   - NewSampleSummary: O(ε⁻² log 1/δ) rows, point frequencies within
//     ε‖f‖₁ and heavy hitters for 0 < p ≤ 1 (Theorem 5.1 /
//     Corollary 5.2).
//   - NewNetSummary: Algorithm 1 over an α-net — F0/Fp within
//     β·2^{O(αd)} using 2^{H(1/2−α)d} sketches (Theorem 6.5); the
//     paper's 2^Ω(d) lower bounds (Sections 4–5) show the exponential
//     dependence is unavoidable.
//
// Everything is deterministic given the seeds, uses only the standard
// library, and streams in one pass.
package projfreq

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/words"
)

// Word is a row of the input array: symbols over [Q].
type Word = words.Word

// ColumnSet is a projection query C ⊆ [d].
type ColumnSet = words.ColumnSet

// RowSource is a resettable stream of rows.
type RowSource = words.RowSource

// Table is an in-memory n×d array.
type Table = words.Table

// Batch is a flat stride-d buffer of rows — the unit of ingestion.
// Build rows into a Batch and feed it to a summary's (or the engine's)
// ObserveBatch to pay per-row overhead once per batch; Observe is the
// one-row case. A summary's state depends on the row sequence only,
// not on how it is split into batches. Every summary packs a batch at
// ⌈log₂Q⌉ bits a symbol before it ingests it, and panics, ingesting
// none of the batch, on a symbol outside [Q] (a sampling summary packs
// only a batch in which one of its slots takes a row).
type Batch = words.Batch

// NewBatch returns an empty batch of rows with d columns and capacity
// preallocated for capacityRows rows.
func NewBatch(d, capacityRows int) *Batch { return words.NewBatch(d, capacityRows) }

// BatchOf wraps an existing flat row-major symbol slice (length a
// multiple of d) as a batch without copying.
func BatchOf(d int, symbols []uint16) *Batch { return words.BatchOf(d, symbols) }

// Summary is a space-bounded digest answering projected queries.
type Summary = core.Summary

// The query capability interfaces; summaries implement the subset the
// paper's bounds allow.
type (
	// F0Querier answers projected distinct-count queries.
	F0Querier = core.F0Querier
	// FpQuerier answers projected moment queries.
	FpQuerier = core.FpQuerier
	// FrequencyQuerier answers projected point-frequency queries.
	FrequencyQuerier = core.FrequencyQuerier
	// HeavyHitterQuerier answers projected heavy-hitter queries.
	HeavyHitterQuerier = core.HeavyHitterQuerier
	// LpSampleQuerier draws from the projected ℓp distribution.
	LpSampleQuerier = core.LpSampleQuerier
)

// HeavyHitter is a reported heavy pattern.
type HeavyHitter = core.HeavyHitter

// LpSample is one ℓp draw with its probability estimate.
type LpSample = core.LpSample

// NetConfig configures the α-net summary.
type NetConfig = core.NetConfig

// Mergeable is the distributed-ingestion capability: summaries that
// fold a peer built over a disjoint stream shard into themselves.
type Mergeable = core.Mergeable

// ErrUnsupported reports a query class a summary cannot answer.
var ErrUnsupported = core.ErrUnsupported

// ErrInvalidParam reports a rejected construction parameter.
var ErrInvalidParam = core.ErrInvalidParam

// ErrIncompatibleMerge reports a merge between incompatible summaries.
var ErrIncompatibleMerge = core.ErrIncompatibleMerge

// ErrBadEncoding reports a malformed serialized summary blob.
var ErrBadEncoding = core.ErrBadEncoding

// NewColumnSet builds the projection query {cols...} over [d].
func NewColumnSet(d int, cols ...int) (ColumnSet, error) {
	return words.NewColumnSet(d, cols...)
}

// FullColumnSet returns the identity projection over [d].
func FullColumnSet(d int) ColumnSet { return words.FullColumnSet(d) }

// NewExactSummary returns the Θ(nd) exact baseline. Degenerate shapes
// (d < 1, q < 2 or beyond the uint16 symbol range) are rejected with
// an error wrapping ErrInvalidParam, like every other constructor.
func NewExactSummary(d, q int) (*core.Exact, error) { return core.NewExact(d, q) }

// NewSampleSummary returns the Theorem 5.1 uniform-sampling summary
// sized for additive error ε‖f‖₁ with probability 1−δ. Degenerate
// parameters (d < 1, q < 2, ε or δ outside (0,1)) are rejected with
// an error wrapping ErrInvalidParam.
func NewSampleSummary(d, q int, eps, delta float64, seed uint64) (*core.Sample, error) {
	return core.NewSampleForError(d, q, eps, delta, seed)
}

// NewSampleSummarySize returns the sampling summary with an explicit
// sample size t.
func NewSampleSummarySize(d, q, t int, seed uint64) (*core.Sample, error) {
	return core.NewSample(d, q, t, seed)
}

// NewNetSummary returns the Algorithm 1 summary (Theorem 6.5).
func NewNetSummary(d, q int, cfg NetConfig) (*core.Net, error) {
	return core.NewNet(d, q, cfg)
}

// RegisteredConfig configures the registered-subsets summary.
type RegisteredConfig = core.RegisteredConfig

// NewRegisteredSummary returns the summary for the easy regime where
// a query's column set is known before the data arrives (the
// KHyperLogLog deployment model the paper's introduction contrasts
// with): a (1±ε) F0 sketch over c. Register one per known set in a
// SubspaceRegistry; space is linear in the number of sets.
func NewRegisteredSummary(d, q int, c ColumnSet, cfg RegisteredConfig) (*core.Registered, error) {
	return core.NewRegistered(d, q, c, cfg)
}

// NewRand returns the library's deterministic random source, needed
// by sampling queries.
func NewRand(seed uint64) *rng.Source { return rng.New(seed) }

// The sharded ingestion + batched query engine: every core summary is
// mergeable (Mergeable), so ingestion fans out across shards and
// queries are served from an on-demand merged snapshot.
type (
	// ShardedSummary ingests rows across N parallel shard summaries
	// and answers queries through a merged snapshot. It implements
	// Summary and all scalar query interfaces.
	ShardedSummary = engine.Sharded
	// ShardedConfig tunes shard count, queue depth, chunk size, query
	// workers, and the durability log.
	ShardedConfig = engine.Config
	// SummaryFactory builds the per-shard summaries (and the merge
	// snapshot, index Shards).
	SummaryFactory = engine.Factory
	// Query is one question for ShardedSummary.QueryBatch.
	Query = engine.Query
	// QueryResult is a batched query answer.
	QueryResult = engine.Result
	// QueryKind selects the query class of a batched Query.
	QueryKind = engine.Kind
)

// The batched query classes.
const (
	QueryF0           = engine.KindF0
	QueryFp           = engine.KindFp
	QueryFrequency    = engine.KindFrequency
	QueryHeavyHitters = engine.KindHeavyHitters
)

// NewShardedSummary returns the parallel engine over the factory's
// summary kind. With a zero config it shards across GOMAXPROCS.
func NewShardedSummary(factory SummaryFactory, cfg ShardedConfig) (*ShardedSummary, error) {
	return engine.NewSharded(factory, cfg)
}

// The subspace registry and query planner: many summaries keyed by
// the column set they were provisioned for, behind one planning
// front door.
type (
	// SubspaceRegistry holds a catch-all full-dimension summary plus
	// any number of per-columnset subspace summaries, and routes each
	// projection query to the subspace registered for exactly its
	// column set, else to the catch-all. It implements Summary,
	// Mergeable, the batched query interfaces, and the wire codec, so
	// it drops in anywhere a summary does. ShardedSummary's
	// RegisterSubspace method is the engine form of the same
	// registration.
	SubspaceRegistry = registry.Registry
	// SubspaceInfo describes one subspace registered on a sharded
	// engine (ShardedSummary.Subspaces).
	SubspaceInfo = engine.SubspaceInfo
)

// ErrDuplicateSubspace reports a second registration of the same
// column set on a registry or engine.
var ErrDuplicateSubspace = registry.ErrDuplicateSubspace

// NewRegistry wraps a catch-all summary in a subspace registry.
// Register dedicated summaries for hot projections with
// RegisterSubspace — before any row is observed, so every member
// digests the identical stream — then stream rows into the registry
// and query it like any summary; see Example_registry.
func NewRegistry(full Summary) (*SubspaceRegistry, error) { return registry.New(full) }

// WireVersion is the version byte of the summary wire format (see
// ARCHITECTURE.md for the full envelope and payload specification).
const WireVersion = core.WireVersion

// MarshalSummary serializes a summary into its self-describing wire
// form. Every summary this package constructs implements
// encoding.BinaryMarshaler, including the sharded engine (which
// serializes its merged snapshot), so blobs can travel to another
// process and be merged there — the cmd/projfreqd deployment model.
func MarshalSummary(s Summary) ([]byte, error) { return core.MarshalSummary(s) }

// UnmarshalSummary decodes a summary from its wire form, dispatching
// on the envelope's kind byte. Corrupt blobs fail with errors wrapping
// ErrBadEncoding (or ErrInvalidParam for degenerate shape headers);
// decoding never panics.
func UnmarshalSummary(data []byte) (Summary, error) { return core.UnmarshalSummary(data) }
