// Package registry is the query-side subsystem of the engine: a
// subspace registry that holds many summaries keyed by the column set
// they were provisioned for, plus the catch-all full-dimension
// summary, and a planner that routes each projection query to the
// summary registered for exactly its column set, or else to the
// catch-all.
//
// The paper's cost landscape motivates the shape. A summary built for
// arbitrary post-hoc column sets pays 2^Ω(d) (Sections 4–5), while a
// summary for subsets known in advance is linear in the number of
// subsets (the KHyperLogLog regime of the introduction); the subspace
// sketch literature (Li, Wang & Woodruff 2019) likewise prices
// sketches per subspace. A deployment that knows its hot projections
// can therefore provision a cheap dedicated summary per hot column
// set and keep one general summary for the long tail — which is
// exactly what a Registry holds.
//
// # Planning
//
// Plan resolves a query's column set C with one map lookup: an entry
// registered for exactly C serves it (MatchExact), and every other C —
// strict subsets and supersets of registered sets included — goes to
// the catch-all full-dimension summary (MatchFull).
//
// The returned Target carries a stable ID (0 for the full summary,
// 1+i for entry i) so callers can tell queries apart per target, and
// a human-readable Route label. Routing never changes an answer's
// meaning — every summary in the registry observed the same stream —
// it only changes which space/accuracy tradeoff serves it; if the
// planned target cannot answer the query's class at all
// (core.ErrUnsupported), callers fall back to the full summary, as
// the registry's own query methods do.
//
// # Lifecycle contract
//
// Subspaces must register before observation (RegisterSubspace
// refuses once rows have been observed): a summary that missed rows
// would answer from a shorter stream than its peers. After
// registration the registry fans every row out to the full summary
// and all entries — Observe, ObserveBatch, Merge, and the wire codec
// (marshal.go) keep the members in lockstep, so a registry is itself
// a core.Summary. engine.Sharded builds one per shard around its
// factory's summary; subspaces reach an engine only through its
// RegisterSubspace.
package registry

import (
	"errors"
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/words"
)

// ErrDuplicateSubspace reports a RegisterSubspace call for a column
// set that already has an entry.
var ErrDuplicateSubspace = errors.New("registry: subspace already registered")

// SubspaceMismatchError reports a merge refused for structural
// reasons: the two sides disagree about which subspaces exist (or the
// donor is not a registry at all, so it has none). It wraps
// core.ErrIncompatibleMerge, and carries both subspace lists so
// callers — the daemon's /v1/push handler, a cluster operator reading
// an anti-entropy failure — can name the mismatched column sets
// instead of guessing from a prose message.
type SubspaceMismatchError struct {
	// Receiver holds the receiving registry's registered column sets,
	// in registration order.
	Receiver []words.ColumnSet
	// Donor holds the donor registry's column sets, in registration
	// order; nil when the donor was a bare (non-registry) summary.
	Donor []words.ColumnSet
	// BareDonor names the donor summary's kind when the donor was not
	// a registry; empty otherwise.
	BareDonor string
}

// Error spells out both sides' subspace lists.
func (e *SubspaceMismatchError) Error() string {
	if e.BareDonor != "" {
		return fmt.Sprintf("%v: registry with subspaces %s only merges whole registries, not a bare %s",
			core.ErrIncompatibleMerge, formatColumnSets(e.Receiver), e.BareDonor)
	}
	return fmt.Sprintf("%v: registry subspaces differ: %s here, %s in donor",
		core.ErrIncompatibleMerge, formatColumnSets(e.Receiver), formatColumnSets(e.Donor))
}

// Unwrap keeps errors.Is(err, core.ErrIncompatibleMerge) working.
func (e *SubspaceMismatchError) Unwrap() error { return core.ErrIncompatibleMerge }

// formatColumnSets renders a subspace list for error messages.
func formatColumnSets(sets []words.ColumnSet) string {
	if len(sets) == 0 {
		return "none"
	}
	out := ""
	for i, c := range sets {
		if i > 0 {
			out += " "
		}
		out += c.String()
	}
	return out
}

// subspaceCols collects a registry's registered column sets in
// registration order, for SubspaceMismatchError.
func (r *Registry) subspaceCols() []words.ColumnSet {
	cols := make([]words.ColumnSet, len(r.entries))
	for i := range r.entries {
		cols[i] = r.entries[i].cols
	}
	return cols
}

// ErrRowsObserved reports a RegisterSubspace call after the registry
// started observing rows; subspace summaries must join before any row
// so that every member digests the identical stream.
var ErrRowsObserved = errors.New("registry: rows already observed; register subspaces before observation")

// entry is one registered subspace: the column set it serves and the
// summary provisioned for it, plus the precomputed route label Plan
// hands out (computed once so planning stays allocation-free).
type entry struct {
	cols  words.ColumnSet
	sum   core.Summary
	route string
}

// Registry holds the catch-all full-dimension summary and any number
// of per-columnset subspace summaries, and plans projection queries
// across them. It implements core.Summary, core.Mergeable, the four
// batched query interfaces, and the wire codec, so it composes with
// everything built for single summaries.
//
// A Registry is not safe for concurrent mutation; like the summaries
// it contains, callers serialize Observe/Merge/RegisterSubspace (the
// sharded engine does this with its worker quiesce).
type Registry struct {
	full    core.Summary
	entries []entry
	index   map[string]int // canonical ColumnSet key → entry position
}

// New wraps the catch-all summary in a registry with no subspaces. A
// subspace-free registry is transparent: it routes every query to
// full, reports full's name, and serializes as full's own wire blob.
// Nesting is refused — a registry cannot be the catch-all of another.
func New(full core.Summary) (*Registry, error) {
	if full == nil {
		return nil, fmt.Errorf("registry: nil catch-all summary")
	}
	if _, ok := full.(*Registry); ok {
		return nil, fmt.Errorf("registry: the catch-all summary cannot itself be a registry")
	}
	return &Registry{full: full, index: map[string]int{}}, nil
}

// colsKey is the set's canonical binary key
// (words.ColumnSet.AppendCanonicalKey) as a stored string, for
// registration time; Plan rebuilds the same key into a stack buffer
// so exact-match probes stay allocation-free.
func colsKey(c words.ColumnSet) string { return string(c.AppendCanonicalKey(nil)) }

// RegisterSubspace adds a summary provisioned for the column set c.
// The summary must share the registry's shape, must not itself be a
// registry, and — like the registry — must not have observed any rows
// yet (ErrRowsObserved otherwise): every member digests the same
// stream from row zero. Registering the same column set twice returns
// ErrDuplicateSubspace. Entries keep registration order, which fixes
// their planner IDs and their position on the wire.
func (r *Registry) RegisterSubspace(c words.ColumnSet, sum core.Summary) error {
	if sum == nil {
		return fmt.Errorf("registry: nil subspace summary for %v", c)
	}
	if _, ok := sum.(*Registry); ok {
		return fmt.Errorf("registry: subspace summary for %v cannot itself be a registry", c)
	}
	if c.Dim() != r.full.Dim() {
		return fmt.Errorf("registry: subspace %v has dimension %d, registry has %d", c, c.Dim(), r.full.Dim())
	}
	if c.Len() == 0 {
		return fmt.Errorf("registry: empty subspace column set")
	}
	if sum.Dim() != r.full.Dim() || sum.Alphabet() != r.full.Alphabet() {
		return fmt.Errorf("registry: subspace summary shape %d/[%d] differs from registry %d/[%d]",
			sum.Dim(), sum.Alphabet(), r.full.Dim(), r.full.Alphabet())
	}
	if r.full.Rows() != 0 || sum.Rows() != 0 {
		return fmt.Errorf("%w (registry has %d rows, subspace summary %d)", ErrRowsObserved, r.full.Rows(), sum.Rows())
	}
	if _, dup := r.index[colsKey(c)]; dup {
		return fmt.Errorf("%w: %v", ErrDuplicateSubspace, c)
	}
	r.add(c, sum)
	return nil
}

// add appends an entry without the pre-observation checks; the wire
// decoder uses it to rebuild registries that legitimately carry rows.
func (r *Registry) add(c words.ColumnSet, sum core.Summary) {
	r.index[colsKey(c)] = len(r.entries)
	r.entries = append(r.entries, entry{cols: c, sum: sum, route: "subspace" + c.String()})
}

// Match classifies how a planned target relates to the query's column
// set.
type Match uint8

// The planner outcomes (see Plan); MatchFull is the zero value so an
// unset Target reads as the catch-all fallback.
const (
	// MatchFull is the catch-all fallback: no registered subspace
	// equals the query's C.
	MatchFull Match = iota
	// MatchExact is a subspace registered for exactly the query's C.
	MatchExact
)

// String names the match class.
func (m Match) String() string {
	switch m {
	case MatchFull:
		return "full"
	case MatchExact:
		return "exact"
	default:
		return fmt.Sprintf("Match(%d)", uint8(m))
	}
}

// RouteFull is the Route label of full-summary targets (both planned
// fallbacks and capability fallbacks after an unsupported answer).
const RouteFull = "full"

// Target is a planning decision: which summary serves a query and how
// it was chosen.
type Target struct {
	// ID identifies the target in a query key: 0 is the full
	// summary, 1+i is the entry registered i-th. IDs are stable for
	// the life of the registry (entries are never removed) and across
	// the wire (entries serialize in registration order).
	ID int
	// Match says how the target was selected.
	Match Match
	// Cols is the serving subspace's registered column set; the zero
	// ColumnSet for the full summary.
	Cols words.ColumnSet
	// Summary is the summary that should answer the query.
	Summary core.Summary
	// Route is a stable human-readable label ("full" or
	// "subspace{0,1}/8") surfaced in query results and the daemon API.
	Route string
}

// Plan routes the column set c to the subspace registered for exactly
// c, else to the full summary. Degenerate sets (empty, or of a foreign
// dimension) route to the full summary, whose validation produces the
// caller-facing error.
func (r *Registry) Plan(c words.ColumnSet) Target {
	if len(r.entries) == 0 || c.Dim() != r.full.Dim() || c.Len() == 0 {
		return r.fullTarget()
	}
	// Stack buffer: the exact-match probe costs no heap allocation for
	// any realistic |C| (the buffer escapes only if append outgrows it).
	var kb [64]byte
	if i, ok := r.index[string(c.AppendCanonicalKey(kb[:0]))]; ok {
		e := &r.entries[i]
		return Target{ID: i + 1, Match: MatchExact, Cols: e.cols, Summary: e.sum, Route: e.route}
	}
	return r.fullTarget()
}

func (r *Registry) fullTarget() Target {
	return Target{ID: 0, Match: MatchFull, Summary: r.full, Route: RouteFull}
}

// Full returns the catch-all full-dimension summary.
func (r *Registry) Full() core.Summary { return r.full }

// NumSubspaces returns the number of registered subspaces.
func (r *Registry) NumSubspaces() int { return len(r.entries) }

// Subspace returns the i-th registered subspace (registration order,
// 0 ≤ i < NumSubspaces): its column set and its summary.
func (r *Registry) Subspace(i int) (words.ColumnSet, core.Summary) {
	return r.entries[i].cols, r.entries[i].sum
}

// Observe feeds one row to every member, as a one-row batch.
func (r *Registry) Observe(w words.Word) {
	r.ObserveBatch(words.RowBatch(w))
}

// ObserveBatch fans the whole batch out to the full summary and every
// subspace summary, keeping all members over the identical stream.
func (r *Registry) ObserveBatch(b *words.Batch) {
	r.full.ObserveBatch(b)
	for i := range r.entries {
		r.entries[i].sum.ObserveBatch(b)
	}
}

// Dim returns d.
func (r *Registry) Dim() int { return r.full.Dim() }

// Alphabet returns Q.
func (r *Registry) Alphabet() int { return r.full.Alphabet() }

// Rows returns the rows observed; members stay in lockstep, so the
// catch-all's count is the registry's.
func (r *Registry) Rows() int64 { return r.full.Rows() }

// SizeBytes totals the catch-all and every subspace summary.
func (r *Registry) SizeBytes() int {
	total := r.full.SizeBytes()
	for i := range r.entries {
		total += r.entries[i].sum.SizeBytes()
	}
	return total
}

// Name identifies the registry; with no subspaces it is transparent
// and reports the catch-all's own name.
func (r *Registry) Name() string {
	if len(r.entries) == 0 {
		return r.full.Name()
	}
	return fmt.Sprintf("registry(%d subspaces over %s)", len(r.entries), r.full.Name())
}

// Merge implements core.Mergeable. Two registries merge member-wise:
// their subspace lists must match (same column sets in the same
// registration order), and then the catch-alls and each entry pair
// merge under their own kinds' rules. A registry with subspaces
// refuses to merge a bare summary — folding it into the catch-all
// alone would break the members-see-the-same-stream invariant — while
// a subspace-free registry merges bare summaries transparently.
//
// Multi-member merges are atomic: every pair is first validated by
// merging the receiver's member into a wire clone of the donor's
// (merge compatibility is symmetric in configuration for every
// summary kind), so a structurally matching registry whose members
// turn out incompatible — say, sketch-backed subspaces built with
// different seeds — is refused before any receiver state is touched.
// A refused merge therefore leaves the receiver unchanged.
func (r *Registry) Merge(other core.Summary) error {
	return r.merge(other, true)
}

// MergeTrusted merges like Merge but skips the wire-clone validation
// pass. It is for callers that already know both sides are
// member-compatible because they built them — the engine merging its
// own factory-built shards into a snapshot — where cloning every
// member's state per merge would tax the snapshot hot path for
// nothing. A failed trusted merge can leave the receiver partially
// merged; donors of unknown provenance must go through Merge.
func (r *Registry) MergeTrusted(other core.Summary) error {
	return r.merge(other, false)
}

func (r *Registry) merge(other core.Summary, validate bool) error {
	o, ok := other.(*Registry)
	if !ok {
		if len(r.entries) > 0 {
			return &SubspaceMismatchError{Receiver: r.subspaceCols(), BareDonor: other.Name()}
		}
		m, ok := r.full.(core.Mergeable)
		if !ok {
			return fmt.Errorf("%w: %s is not mergeable", core.ErrIncompatibleMerge, r.full.Name())
		}
		return m.Merge(other)
	}
	if o == r {
		return fmt.Errorf("%w: registry merged with itself", core.ErrIncompatibleMerge)
	}
	if len(o.entries) != len(r.entries) {
		return &SubspaceMismatchError{Receiver: r.subspaceCols(), Donor: o.subspaceCols()}
	}
	for i := range r.entries {
		if !r.entries[i].cols.Equal(o.entries[i].cols) {
			return &SubspaceMismatchError{Receiver: r.subspaceCols(), Donor: o.subspaceCols()}
		}
	}
	type pair struct {
		name string
		dst  core.Summary // implements Mergeable, checked below
		src  core.Summary
	}
	pairs := make([]pair, 0, 1+len(r.entries))
	if _, ok := r.full.(core.Mergeable); !ok {
		return fmt.Errorf("%w: %s is not mergeable", core.ErrIncompatibleMerge, r.full.Name())
	}
	pairs = append(pairs, pair{"catch-all", r.full, o.full})
	for i := range r.entries {
		if _, ok := r.entries[i].sum.(core.Mergeable); !ok {
			return fmt.Errorf("%w: subspace %v summary is not mergeable", core.ErrIncompatibleMerge, r.entries[i].cols)
		}
		pairs = append(pairs, pair{fmt.Sprintf("subspace %v", r.entries[i].cols), r.entries[i].sum, o.entries[i].sum})
	}
	// Validation pass: no receiver state is mutated until every pair
	// is known to merge. Merging the receiver member into a clone of
	// the donor probes exactly the up-front configuration checks the
	// commit pass will hit. Non-wire members cannot be cloned and are
	// validated only by the commit pass — every core kind is
	// wire-capable, so that best-effort gap exists only for custom
	// summaries.
	if validate {
		for _, p := range pairs {
			clone, ok := wireClone(p.src)
			if !ok {
				continue
			}
			cm, ok := clone.(core.Mergeable)
			if !ok {
				continue
			}
			if err := cm.Merge(p.dst); err != nil {
				return fmt.Errorf("incompatible %s: %w", p.name, err)
			}
		}
	}
	for _, p := range pairs {
		if err := p.dst.(core.Mergeable).Merge(p.src); err != nil {
			return fmt.Errorf("merging %s: %w", p.name, err)
		}
	}
	return nil
}

// Clone returns a copy of r whose members are typed copies of r's
// (core.Net.Clone, core.Registered.Clone), so that feeding either
// registry leaves the other alone. ok is false, and nothing is copied,
// unless every member is of a kind that clones; Exact and Sample do
// not.
func (r *Registry) Clone() (*Registry, bool) {
	copies := []func() core.Summary{cloner(r.full)}
	for _, e := range r.entries {
		copies = append(copies, cloner(e.sum))
	}
	for _, f := range copies {
		if f == nil {
			return nil, false
		}
	}
	c := &Registry{full: copies[0](), entries: make([]entry, len(r.entries)), index: maps.Clone(r.index)}
	for i, e := range r.entries {
		c.entries[i] = entry{cols: e.cols, sum: copies[1+i](), route: e.route}
	}
	return c, true
}

// cloner returns a func that copies sum with its kind's Clone, or nil
// for a kind without one.
func cloner(sum core.Summary) func() core.Summary {
	switch s := sum.(type) {
	case *core.Net:
		return func() core.Summary { return s.Clone() }
	case *core.Registered:
		return func() core.Summary { return s.Clone() }
	}
	return nil
}

// wireClone deep-copies a summary through its wire form, for Merge's
// validation pass; ok is false for summaries outside the wire codec.
func wireClone(s core.Summary) (core.Summary, bool) {
	blob, err := core.MarshalSummary(s)
	if err != nil {
		return nil, false
	}
	dec, err := core.UnmarshalSummary(blob)
	if err != nil {
		return nil, false
	}
	return dec, true
}

// answerVia runs f against the planned target, falling back to the
// full summary when a non-full target cannot answer the class.
func (r *Registry) answerVia(c words.ColumnSet, f func(core.Summary) error) error {
	t := r.Plan(c)
	err := f(t.Summary)
	if t.ID != 0 && errors.Is(err, core.ErrUnsupported) {
		return f(r.full)
	}
	return err
}

// unsupported reports a query class no candidate summary implements.
func (r *Registry) unsupported(class string) error {
	return fmt.Errorf("%w: %s on %s", core.ErrUnsupported, class, r.Name())
}

// F0 answers a projected distinct-count query through the planner:
// the serving summary is the exact-match subspace if one is
// registered, else the catch-all.
func (r *Registry) F0(c words.ColumnSet) (float64, error) {
	var v float64
	err := r.answerVia(c, func(s core.Summary) error {
		q, ok := s.(core.F0Querier)
		if !ok {
			return r.unsupported("f0")
		}
		var err error
		v, err = q.F0(c)
		return err
	})
	return v, err
}

// Fp answers a projected moment query through the planner.
func (r *Registry) Fp(c words.ColumnSet, p float64) (float64, error) {
	var v float64
	err := r.answerVia(c, func(s core.Summary) error {
		q, ok := s.(core.FpQuerier)
		if !ok {
			return r.unsupported("fp")
		}
		var err error
		v, err = q.Fp(c, p)
		return err
	})
	return v, err
}

// Frequency answers a projected point-frequency query through the
// planner.
func (r *Registry) Frequency(c words.ColumnSet, b words.Word) (float64, error) {
	var v float64
	err := r.answerVia(c, func(s core.Summary) error {
		q, ok := s.(core.FrequencyQuerier)
		if !ok {
			return r.unsupported("freq")
		}
		var err error
		v, err = q.Frequency(c, b)
		return err
	})
	return v, err
}

// HeavyHitters answers a projected φ-ℓp heavy-hitter query through
// the planner.
func (r *Registry) HeavyHitters(c words.ColumnSet, p, phi float64) ([]core.HeavyHitter, error) {
	var hits []core.HeavyHitter
	err := r.answerVia(c, func(s core.Summary) error {
		q, ok := s.(core.HeavyHitterQuerier)
		if !ok {
			return r.unsupported("hh")
		}
		var err error
		hits, err = q.HeavyHitters(c, p, phi)
		return err
	})
	return hits, err
}
