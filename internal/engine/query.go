package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/words"
)

// Kind selects the query class of a batched query.
type Kind uint8

// The supported query classes. Lp sampling is deliberately absent: a
// random draw cannot be shared between identical queries of a batch.
const (
	// KindF0 is a projected distinct-count query.
	KindF0 Kind = iota
	// KindFp is a projected frequency-moment query of order P.
	KindFp
	// KindFrequency is a projected point-frequency query for Pattern.
	KindFrequency
	// KindHeavyHitters is a projected φ-ℓp heavy-hitter query.
	KindHeavyHitters
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindF0:
		return "f0"
	case KindFp:
		return "fp"
	case KindFrequency:
		return "freq"
	case KindHeavyHitters:
		return "hh"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Query is one projected-frequency question for QueryBatch.
type Query struct {
	// Kind is the query class.
	Kind Kind
	// Cols is the projection C.
	Cols words.ColumnSet
	// P is the moment order (KindFp) or norm order (KindHeavyHitters).
	P float64
	// Phi is the heavy-hitter threshold (KindHeavyHitters only).
	Phi float64
	// Pattern is the point pattern (KindFrequency only).
	Pattern words.Word
}

// appendKey appends the query's identity to dst and returns the
// extended slice: a compact binary encoding of everything that fixes
// the answer for a given snapshot — the planner's routing target, the
// kind, the projection, and the numeric parameters. QueryBatch
// evaluates queries with equal keys once. Every variable-length field
// is length-prefixed and the floats are fixed-width bit patterns, so
// distinct queries cannot collide (the collision regression test pins
// this down); building the key is allocation-free once dst has
// capacity. The target sits right after the kind byte: the same
// question routed to different summaries is a different key, so
// planner routing cannot alias results across targets.
func (q Query) appendKey(dst []byte, target int) []byte {
	dst = append(dst, byte(q.Kind))
	dst = binary.AppendUvarint(dst, uint64(target))
	dst = q.Cols.AppendCanonicalKey(dst)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.P))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.Phi))
	if q.Pattern == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(q.Pattern))+1)
	for _, x := range q.Pattern {
		dst = binary.LittleEndian.AppendUint16(dst, x)
	}
	return dst
}

// Result is the answer to one batched query.
type Result struct {
	// Value is the scalar answer (F0, Fp, Frequency).
	Value float64
	// Hits is the heavy-hitter list (KindHeavyHitters); callers must
	// not mutate it — identical queries of one batch share it.
	Hits []core.HeavyHitter
	// Err is the per-query failure, core.ErrUnsupported when no
	// candidate summary can answer this class.
	Err error
	// Route says which summary served the query: "full" for the
	// catch-all (whether planned or reached by capability fallback),
	// "subspace{…}" for an exact-match subspace.
	Route string
}

// QueryBatch answers a batch of queries against one consistent merged
// snapshot: the current epoch, rebuilt (one quiesce + merge) whenever
// rows have arrived since the last build and served as-is, without
// posting a barrier, otherwise. The batch then runs —
//
//  1. plan: each query's column set is routed by the snapshot's
//     registry (exact-match subspace → full);
//  2. deduplicate: queries with the same (target, query) key share
//     one evaluation;
//  3. evaluate: the distinct (target, query) pairs are grouped by
//     (target, column set) — the unit of work, since a summary that
//     builds per-C state (core.Exact's memoized vector) builds it once
//     for the whole group. One worker answers a group's queries in
//     batch order; up to Config.QueryWorkers groups run at a time, and
//     a batch with a single group runs on the caller's goroutine. A
//     specialized summary that cannot answer a class falls back to the
//     full summary;
//  4. reassemble: answers land at their original batch positions
//     (len(out) == len(queries), position-matched).
//
// Nothing is kept between batches: a question repeated on the same
// epoch is evaluated again, and is cheap only where the summary
// memoizes per column set.
func (s *Sharded) QueryBatch(queries []Query) []Result {
	out, _ := s.QueryBatchInfo(queries)
	return out
}

// ask is one distinct (target, query) pair of a batch.
type ask struct {
	target registry.Target
	idx    []int // the batch positions asking it
}

// QueryBatchInfo is QueryBatch plus the identity of the epoch that
// served the batch, so callers (the daemon's /v1/query) can surface
// how stale the answers are. A zero EpochInfo accompanies an empty
// batch or an error-filled result set.
func (s *Sharded) QueryBatchInfo(queries []Query) ([]Result, EpochInfo) {
	out := make([]Result, len(queries))
	if len(queries) == 0 {
		return out, EpochInfo{}
	}
	e, err := s.currentEpoch()
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out, EpochInfo{}
	}
	snap := e.reg
	// Deduplicate within the batch: identical queries planned to the
	// same target share one computation.
	var asks []ask
	askAt := make(map[string]int)   // query key → index in asks
	var groups [][]int              // indices into asks, per (target, C)
	groupAt := make(map[string]int) // (target, C) key → index in groups
	var kb, gb []byte
	for i, q := range queries {
		t := snap.Plan(q.Cols)
		kb = q.appendKey(kb[:0], t.ID)
		if a, dup := askAt[string(kb)]; dup {
			asks[a].idx = append(asks[a].idx, i)
			continue
		}
		askAt[string(kb)] = len(asks)
		gb = q.Cols.AppendCanonicalKey(binary.AppendUvarint(gb[:0], uint64(t.ID)))
		g, ok := groupAt[string(gb)]
		if !ok {
			g = len(groups)
			groupAt[string(gb)] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], len(asks))
		asks = append(asks, ask{target: t, idx: []int{i}})
	}
	evaluate := func(group []int) {
		for _, a := range group {
			r := answerPlanned(snap, asks[a].target, queries[asks[a].idx[0]])
			for _, i := range asks[a].idx {
				out[i] = r
			}
		}
	}
	if workers := min(s.cfg.QueryWorkers, len(groups)); workers <= 1 {
		for _, group := range groups {
			evaluate(group)
		}
	} else {
		var next atomic.Int64 // the next group to claim
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for g := next.Add(1) - 1; g < int64(len(groups)); g = next.Add(1) - 1 {
					evaluate(groups[g])
				}
			}()
		}
		wg.Wait()
	}
	return out, s.epochInfo(e)
}

// answerPlanned resolves one query against its planned target,
// falling back to the catch-all when a specialized subspace summary
// cannot answer the query's class at all.
func answerPlanned(snap *registry.Registry, t registry.Target, q Query) Result {
	r := answer(t.Summary, q)
	r.Route = t.Route
	if t.ID != 0 && errors.Is(r.Err, core.ErrUnsupported) {
		r = answer(snap.Full(), q)
		r.Route = registry.RouteFull
	}
	return r
}

// answer resolves one query against an immutable snapshot summary.
func answer(snap core.Summary, q Query) Result {
	switch q.Kind {
	case KindF0:
		if qr, ok := snap.(core.F0Querier); ok {
			v, err := qr.F0(q.Cols)
			return Result{Value: v, Err: err}
		}
	case KindFp:
		if qr, ok := snap.(core.FpQuerier); ok {
			v, err := qr.Fp(q.Cols, q.P)
			return Result{Value: v, Err: err}
		}
	case KindFrequency:
		if qr, ok := snap.(core.FrequencyQuerier); ok {
			v, err := qr.Frequency(q.Cols, q.Pattern)
			return Result{Value: v, Err: err}
		}
	case KindHeavyHitters:
		if qr, ok := snap.(core.HeavyHitterQuerier); ok {
			hits, err := qr.HeavyHitters(q.Cols, q.P, q.Phi)
			return Result{Hits: hits, Err: err}
		}
	default:
		return Result{Err: fmt.Errorf("engine: unknown query kind %d", q.Kind)}
	}
	return Result{Err: fmt.Errorf("%w: %s on %s", core.ErrUnsupported, q.Kind, snap.Name())}
}

// F0 answers a single projected distinct-count query through the
// merged snapshot (core.F0Querier).
func (s *Sharded) F0(c words.ColumnSet) (float64, error) {
	r := s.QueryBatch([]Query{{Kind: KindF0, Cols: c}})[0]
	return r.Value, r.Err
}

// Fp answers a single projected moment query (core.FpQuerier).
func (s *Sharded) Fp(c words.ColumnSet, p float64) (float64, error) {
	r := s.QueryBatch([]Query{{Kind: KindFp, Cols: c, P: p}})[0]
	return r.Value, r.Err
}

// Frequency answers a single projected point-frequency query
// (core.FrequencyQuerier).
func (s *Sharded) Frequency(c words.ColumnSet, b words.Word) (float64, error) {
	r := s.QueryBatch([]Query{{Kind: KindFrequency, Cols: c, Pattern: b}})[0]
	return r.Value, r.Err
}

// HeavyHitters answers a single projected heavy-hitter query
// (core.HeavyHitterQuerier). The returned slice is caller-owned, as
// with the other implementations of the interface: a one-query batch
// shares its Result.Hits with nobody.
func (s *Sharded) HeavyHitters(c words.ColumnSet, p, phi float64) ([]core.HeavyHitter, error) {
	r := s.QueryBatch([]Query{{Kind: KindHeavyHitters, Cols: c, P: p, Phi: phi}})[0]
	return r.Hits, r.Err
}
