package engine

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/freq"
	"repro/internal/registry"
	"repro/internal/words"
)

// TestCacheKeyDistinguishesQueries pins the identity QueryBatch
// deduplicates on. Every pair of distinct (target, query) identities
// must produce distinct keys, including the digit-boundary and
// field-boundary shapes a textual key could alias, and the same
// identity must reproduce the same key. Then the same through a batch:
// queries that differ in one field each get their own answer, and
// identical ones share one evaluation.
func TestCacheKeyDistinguishesQueries(t *testing.T) {
	const d = 30
	type keyed struct {
		name   string
		q      Query
		target int
	}
	cases := []keyed{
		{"f0 {1,23}", Query{Kind: KindF0, Cols: words.MustColumnSet(d, 1, 23)}, 0},
		{"f0 {12,3}", Query{Kind: KindF0, Cols: words.MustColumnSet(d, 12, 3)}, 0},
		{"f0 {1,2,3}", Query{Kind: KindF0, Cols: words.MustColumnSet(d, 1, 2, 3)}, 0},
		{"f0 {1,2,3} other dim", Query{Kind: KindF0, Cols: words.MustColumnSet(d+1, 1, 2, 3)}, 0},
		{"fp p=1 phi=12", Query{Kind: KindFp, Cols: words.MustColumnSet(d, 0), P: 1, Phi: 12}, 0},
		{"fp p=11 phi=2", Query{Kind: KindFp, Cols: words.MustColumnSet(d, 0), P: 11, Phi: 2}, 0},
		{"fp p=1.5", Query{Kind: KindFp, Cols: words.MustColumnSet(d, 0), P: 1.5}, 0},
		{"hh same params as fp", Query{Kind: KindHeavyHitters, Cols: words.MustColumnSet(d, 0), P: 1.5}, 0},
		{"freq nil pattern", Query{Kind: KindFrequency, Cols: words.MustColumnSet(d, 4)}, 0},
		{"freq empty pattern", Query{Kind: KindFrequency, Cols: words.MustColumnSet(d, 4), Pattern: words.Word{}}, 0},
		{"freq pattern 1,2", Query{Kind: KindFrequency, Cols: words.MustColumnSet(d, 4, 5), Pattern: words.Word{1, 2}}, 0},
		{"freq pattern 258", Query{Kind: KindFrequency, Cols: words.MustColumnSet(d, 4, 5), Pattern: words.Word{258, 0}}, 0},
		// The same question on different planner targets must not alias.
		// One batch cannot ask this (a column set plans to one target), so
		// the key is where it is checked.
		{"f0 {1,23} via target 1", Query{Kind: KindF0, Cols: words.MustColumnSet(d, 1, 23)}, 1},
		{"f0 {1,23} via target 2", Query{Kind: KindF0, Cols: words.MustColumnSet(d, 1, 23)}, 2},
	}
	keys := make(map[string]string, len(cases))
	for _, tc := range cases {
		key := string(tc.q.appendKey(nil, tc.target))
		if prev, dup := keys[key]; dup {
			t.Errorf("key collision between %q and %q", prev, tc.name)
		}
		keys[key] = tc.name
		if again := string(tc.q.appendKey(nil, tc.target)); again != key {
			t.Errorf("%s: key not deterministic", tc.name)
		}
	}
	// Key building is allocation-free once the destination has capacity.
	q := Query{Kind: KindHeavyHitters, Cols: words.MustColumnSet(d, 2, 7, 19), P: 2, Phi: 0.1, Pattern: words.Word{1, 2, 3}}
	buf := make([]byte, 0, 128)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = q.appendKey(buf[:0], 3)
	}); allocs != 0 {
		t.Errorf("appendKey allocates %v times per call", allocs)
	}

	tb := testTable(2000, 41)
	eng, err := NewSharded(exactFactory(10, 2), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	feedEngine(t, eng, tb)
	ref, err := core.NewExact(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref.ObserveBatch(tb.Batch())
	planted, uniform := words.MustColumnSet(10, 0, 1, 2), words.MustColumnSet(10, 6, 7, 8)
	distinct := []Query{
		{Kind: KindF0, Cols: planted, P: 2},
		{Kind: KindFp, Cols: planted, P: 2},
		{Kind: KindFp, Cols: uniform, P: 2},
		{Kind: KindFp, Cols: planted, P: 1},
		{Kind: KindHeavyHitters, Cols: planted, P: 1, Phi: 0.25},
		{Kind: KindHeavyHitters, Cols: planted, P: 1, Phi: 0.01},
		{Kind: KindFrequency, Cols: planted, Pattern: words.Word{1, 1, 1}},
		{Kind: KindFrequency, Cols: planted, Pattern: words.Word{0, 0, 0}},
	}
	oneFieldApart := []struct {
		field string
		a, b  int
	}{{"kind", 0, 1}, {"C", 1, 2}, {"P", 1, 3}, {"phi", 4, 5}, {"pattern", 6, 7}}
	n := len(distinct)
	got, info := eng.QueryBatchInfo(slices.Concat(distinct, distinct))
	same := func(a, b Result) bool {
		return a.Err == nil && b.Err == nil && a.Value == b.Value && reflect.DeepEqual(a.Hits, b.Hits)
	}
	for i, q := range distinct {
		if want := answer(ref, q); !same(got[i], want) {
			t.Errorf("query %d (%s %v): %+v, want %+v", i, q.Kind, q.Cols, got[i], want)
		}
		if !same(got[i], got[n+i]) {
			t.Errorf("query %d and its repeat disagree: %+v vs %+v", i, got[i], got[n+i])
		}
	}
	for _, p := range oneFieldApart {
		if same(got[p.a], got[p.b]) {
			t.Errorf("queries %d and %d differ in %s and share the answer %+v", p.a, p.b, p.field, got[p.a])
		}
	}
	// One evaluation reads the vector once: two passes (two column
	// sets), and with the hits exactly the distinct queries.
	if info.Memo.Builds != 2 || info.Memo.Builds+info.Memo.Hits != int64(n) {
		t.Errorf("memo %+v after %d distinct queries asked twice, want 2 builds and %d reads", info.Memo, n, n)
	}
	if &got[4].Hits[0] != &got[n+4].Hits[0] {
		t.Error("identical heavy-hitter queries of one batch were evaluated separately")
	}
}

// registeredFactory builds the per-shard core.Registered for c, the
// one subspace kind the daemon provisions.
func registeredFactory(c words.ColumnSet) Factory {
	return func(int) (core.Summary, error) {
		return core.NewRegistered(10, 2, c, core.RegisteredConfig{Seed: 3})
	}
}

// registeredSub registers a core.Registered subspace for cols.
func registeredSub(t *testing.T, eng *Sharded, cols ...int) words.ColumnSet {
	t.Helper()
	c := words.MustColumnSet(10, cols...)
	if err := eng.RegisterSubspace(c, registeredFactory(c)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPlannedAnswersEquivalentToFullSummary is the planner
// correctness property test. With registered subspaces on {0,1,2} and
// {4,5,6,7}, every query on any other column set — strict subsets and
// supersets of the registered sets included — is bit-identical to a
// subspace-free engine's answer and reports "full". F0 on a
// registered set is bit-equal to a directly fed core.Registered, and
// every other kind on a registered set falls back to the catch-all.
func TestPlannedAnswersEquivalentToFullSummary(t *testing.T) {
	netCfg := core.NetConfig{Alpha: 0.3, Epsilon: 0.25, Moments: []float64{2}, StableReps: 20, Seed: 7}
	for _, tc := range []struct {
		name    string
		factory Factory
	}{
		{"exact", exactFactory(10, 2)},
		{"net", netFactory(10, 2, netCfg)},
		{"sample", func(shard int) (core.Summary, error) {
			return core.NewSample(10, 2, 500, 100+uint64(shard))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := testTable(4000, 17)
			plain, err := NewSharded(tc.factory, Config{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			routed, err := NewSharded(tc.factory, Config{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer routed.Close()
			a := registeredSub(t, routed, 0, 1, 2)
			b := registeredSub(t, routed, 4, 5, 6, 7)
			feedEngine(t, plain, tb)
			feedEngine(t, routed, tb)

			var queries []Query
			for _, c := range []words.ColumnSet{
				a, b,
				words.MustColumnSet(10, 0, 1),          // strict subset of a
				words.MustColumnSet(10, 5, 7),          // strict subset of b
				words.MustColumnSet(10, 0, 1, 2, 3),    // strict superset of a
				words.MustColumnSet(10, 4, 5, 6, 7, 8), // strict superset of b
				words.MustColumnSet(10, 8, 9),
				words.FullColumnSet(10),
			} {
				queries = append(queries,
					Query{Kind: KindF0, Cols: c},
					Query{Kind: KindFp, Cols: c, P: 2},
					Query{Kind: KindFrequency, Cols: c, Pattern: slices.Repeat(words.Word{1}, c.Len())},
					Query{Kind: KindHeavyHitters, Cols: c, P: 1, Phi: 0.2})
			}
			want := plain.QueryBatch(queries)
			got := routed.QueryBatch(queries)
			for i, q := range queries {
				if q.Kind == KindF0 && (q.Cols.Equal(a) || q.Cols.Equal(b)) {
					continue // served by its subspace: checked below
				}
				if got[i].Route != "full" || want[i].Route != "full" {
					t.Errorf("query %d (%s %v) routed via %q / %q, want full", i, q.Kind, q.Cols, got[i].Route, want[i].Route)
				}
				if (want[i].Err == nil) != (got[i].Err == nil) {
					t.Fatalf("query %d (%s %v): errors diverge: %v vs %v", i, q.Kind, q.Cols, want[i].Err, got[i].Err)
				}
				if want[i].Err != nil {
					if !errors.Is(got[i].Err, core.ErrUnsupported) || !errors.Is(want[i].Err, core.ErrUnsupported) {
						t.Fatalf("query %d: unexpected errors %v vs %v", i, want[i].Err, got[i].Err)
					}
					continue
				}
				if got[i].Value != want[i].Value || !reflect.DeepEqual(got[i].Hits, want[i].Hits) {
					t.Errorf("query %d (%s %v): routed %v %v != full %v %v", i, q.Kind, q.Cols,
						got[i].Value, got[i].Hits, want[i].Value, want[i].Hits)
				}
			}
			for _, c := range []words.ColumnSet{a, b} {
				ref, err := registeredFactory(c)(0)
				if err != nil {
					t.Fatal(err)
				}
				ref.ObserveBatch(tb.Batch())
				wantF0, err := ref.(core.F0Querier).F0(c)
				if err != nil {
					t.Fatal(err)
				}
				r := routed.QueryBatch([]Query{{Kind: KindF0, Cols: c}})[0]
				if r.Err != nil || r.Value != wantF0 || r.Route != "subspace"+c.String() {
					t.Errorf("F0%v: %v (%v) via %q, want %v via the subspace", c, r.Value, r.Err, r.Route, wantF0)
				}
			}
		})
	}
}

// TestPlannerCapabilityFallback: a sketch-backed subspace serves the
// classes it supports within its error bounds and hands everything
// else back to the catch-all.
func TestPlannerCapabilityFallback(t *testing.T) {
	tb := testTable(3000, 21)
	eng, err := NewSharded(exactFactory(10, 2), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	hot := words.MustColumnSet(10, 0, 1, 2)
	err = eng.RegisterSubspace(hot, func(shard int) (core.Summary, error) {
		return core.NewRegistered(10, 2, hot, core.RegisteredConfig{Seed: 3})
	})
	if err != nil {
		t.Fatal(err)
	}
	feedEngine(t, eng, tb)
	res := eng.QueryBatch([]Query{
		{Kind: KindF0, Cols: hot},
		{Kind: KindFrequency, Cols: hot, Pattern: words.Word{1, 1, 1}},
	})
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatal(res[0].Err, res[1].Err)
	}
	if res[0].Route != "subspace"+hot.String() {
		t.Fatalf("F0 routed via %q", res[0].Route)
	}
	exact, err := eng.Flush()
	if err != nil {
		t.Fatal(err)
	}
	truth, err := exact.(*registry.Registry).Full().(core.F0Querier).F0(hot)
	if err != nil {
		t.Fatal(err)
	}
	if truth == 0 || res[0].Value < 0.7*truth || res[0].Value > 1.3*truth {
		t.Fatalf("sketched F0 %v outside bounds of exact %v", res[0].Value, truth)
	}
	// The registered sketch cannot answer point frequencies: the
	// planner falls back to the catch-all transparently.
	if res[1].Route != "full" {
		t.Fatalf("frequency fell back via %q, want full", res[1].Route)
	}
	wantFreq, err := exact.(core.FrequencyQuerier).Frequency(hot, words.Word{1, 1, 1})
	if err != nil || res[1].Value != wantFreq {
		t.Fatalf("fallback frequency %v != %v (%v)", res[1].Value, wantFreq, err)
	}
}

func TestRegisterSubspaceEngineRules(t *testing.T) {
	// The factory's summary is the catch-all: subspaces join only
	// through RegisterSubspace, so a factory-built registry is refused.
	if _, err := NewSharded(func(int) (core.Summary, error) {
		base, err := core.NewExact(10, 2)
		if err != nil {
			return nil, err
		}
		return registry.New(base)
	}, Config{Shards: 2}); err == nil {
		t.Fatal("NewSharded accepted a factory that returns a registry")
	}
	eng, err := NewSharded(exactFactory(10, 2), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c := words.MustColumnSet(10, 0, 1)
	if err := eng.RegisterSubspace(c, exactFactory(10, 2)); err != nil {
		t.Fatal(err)
	}
	// Duplicate registration fails typed, and leaves the first intact.
	if err := eng.RegisterSubspace(c, exactFactory(10, 2)); !errors.Is(err, registry.ErrDuplicateSubspace) {
		t.Fatalf("duplicate subspace: %v", err)
	}
	// Non-mergeable subspace summaries are refused.
	if err := eng.RegisterSubspace(words.MustColumnSet(10, 2), func(int) (core.Summary, error) {
		return unmergeable{}, nil
	}); err == nil {
		t.Fatal("unmergeable subspace summary must be rejected")
	}
	// Registration after ingestion is refused.
	eng.Observe(make(words.Word, 10))
	if err := eng.RegisterSubspace(words.MustColumnSet(10, 3), exactFactory(10, 2)); !errors.Is(err, ErrRowsAccepted) {
		t.Fatalf("post-ingest registration: %v", err)
	}
	// An empty column set routes to the catch-all, whose validation
	// produces the caller-facing error — no panic anywhere on the way.
	res := eng.QueryBatch([]Query{{Kind: KindF0, Cols: words.ColumnSet{}}})
	if res[0].Err == nil || res[0].Route != "full" {
		t.Fatalf("empty column set: %v via %q", res[0].Err, res[0].Route)
	}
	subs := eng.Subspaces()
	// The observed row has drained by the time Subspaces quiesces, so
	// the subspace's exact summary reports non-zero size.
	if len(subs) != 1 || !subs[0].Cols.Equal(c) || subs[0].SizeBytes == 0 {
		t.Fatalf("subspace listing %+v", subs)
	}
	if subs[0].Name != "exact" {
		t.Fatalf("subspace name %q", subs[0].Name)
	}
}

// TestRegisterSubspaceRefusedAfterZeroRowAbsorb: the pre-ingestion
// gate must not trust the row clock alone — a source blob can carry
// sketch state while claiming zero rows, and a subspace registered
// afterwards would silently lack that state.
func TestRegisterSubspaceRefusedAfterZeroRowAbsorb(t *testing.T) {
	cfg := core.NetConfig{Alpha: 0.3, Epsilon: 0.3, Seed: 5}
	eng, err := NewSharded(netFactory(10, 2, cfg), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	donor, err := core.NewNet(10, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	donor.Observe(make(words.Word, 10))
	blob, err := core.MarshalSummary(donor)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(blob[24:], 0) // lie: zero rows
	dec, err := core.UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AbsorbSource("donor", dec); err != nil {
		t.Fatal(err)
	}
	if eng.Rows() != 0 {
		t.Fatalf("crafted donor advanced the row clock to %d", eng.Rows())
	}
	err = eng.RegisterSubspace(words.MustColumnSet(10, 0, 1), netFactory(10, 2, cfg))
	if !errors.Is(err, ErrRowsAccepted) {
		t.Fatalf("registration after a zero-row absorb: %v", err)
	}
}

// TestQueryBatchOrderingUnderParallelPool issues a large mixed batch
// (many distinct routed targets, duplicates, concurrent repeats) and
// checks every answer lands at its own position; under -race this also
// exercises the bounded evaluation pool.
func TestQueryBatchOrderingUnderParallelPool(t *testing.T) {
	tb := testTable(3000, 29)
	eng, err := NewSharded(exactFactory(10, 2), Config{Shards: 3, QueryWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, cols := range [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7}} {
		registeredSub(t, eng, cols...)
	}
	feedEngine(t, eng, tb)

	var queries []Query
	for i := 0; i < 60; i++ {
		c := words.MustColumnSet(10, i%9, i%9+1)
		queries = append(queries, Query{Kind: KindF0, Cols: c})
		queries = append(queries, Query{Kind: KindFp, Cols: c, P: 2})
	}
	// Per-query reference answers, computed one at a time.
	want := make([]Result, len(queries))
	for i, q := range queries {
		want[i] = eng.QueryBatch([]Query{q})[0]
		if want[i].Err != nil {
			t.Fatal(want[i].Err)
		}
	}
	// Whole batch, repeatedly and concurrently: positions must match.
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := eng.QueryBatch(queries)
			for i := range got {
				if got[i].Err != nil {
					t.Errorf("query %d: %v", i, got[i].Err)
					return
				}
				if got[i].Value != want[i].Value {
					t.Errorf("query %d answered %v at the wrong position (want %v)", i, got[i].Value, want[i].Value)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSubspaceEngineWireRoundTrip: an engine with subspaces exports a
// whole-registry blob that another engine with the same registrations
// absorbs as a source; bare summaries are refused once subspaces exist.
func TestSubspaceEngineWireRoundTrip(t *testing.T) {
	netCfg := core.NetConfig{Alpha: 0.3, Epsilon: 0.25, Seed: 5}
	build := func() *Sharded {
		eng, err := NewSharded(netFactory(10, 2, netCfg), Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		registeredSub(t, eng, 0, 1, 2)
		return eng
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	feedEngine(t, a, testTable(500, 31))
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	reg, ok := dec.(*registry.Registry)
	if !ok {
		t.Fatalf("subspaced engine exported %T, want a registry blob", dec)
	}
	if reg.NumSubspaces() != 1 || reg.Rows() != 500 {
		t.Fatalf("exported registry: %d subspaces, %d rows", reg.NumSubspaces(), reg.Rows())
	}
	if err := b.AbsorbSource("a", dec); err != nil {
		t.Fatal(err)
	}
	c := words.MustColumnSet(10, 0, 1)
	wantF0, err := a.F0(c)
	if err != nil {
		t.Fatal(err)
	}
	gotF0, err := b.F0(c)
	if err != nil {
		t.Fatal(err)
	}
	if gotF0 != wantF0 {
		t.Fatalf("absorbed engine F0 %v != source %v", gotF0, wantF0)
	}
	// A bare (non-registry) donor no longer merges: the subspace
	// summaries would fall behind the stream.
	donor, err := core.NewNet(10, 2, netCfg)
	if err != nil {
		t.Fatal(err)
	}
	donor.Observe(make(words.Word, 10))
	if err := b.AbsorbSource("bare", donor); !errors.Is(err, core.ErrIncompatibleMerge) {
		t.Fatalf("bare absorb into subspaced engine: %v", err)
	}
}

// TestSubspaceCacheDoesNotAliasAcrossTargets: in-batch deduplication
// is per (target, query), and the target is the summary that answers.
// One batch asks about a registered column set (a Registered summary
// answers F0 and nothing else, so the other kinds fall back to the
// catch-all) and about an unregistered one; each answer must come back
// from its own summary, and each repeat must share it.
func TestSubspaceCacheDoesNotAliasAcrossTargets(t *testing.T) {
	tb := testTable(2000, 37)
	eng, err := NewSharded(exactFactory(10, 2), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	hot, cold := words.MustColumnSet(10, 0, 1, 2), words.MustColumnSet(10, 3, 4, 5)
	err = eng.RegisterSubspace(hot, func(shard int) (core.Summary, error) {
		return core.NewRegistered(10, 2, hot, core.RegisteredConfig{Seed: 11})
	})
	if err != nil {
		t.Fatal(err)
	}
	feedEngine(t, eng, tb)
	distinct := []Query{
		{Kind: KindF0, Cols: hot},
		{Kind: KindFp, Cols: hot, P: 2},
		{Kind: KindF0, Cols: cold},
	}
	routes := []string{"subspace" + hot.String(), registry.RouteFull, registry.RouteFull}
	n := len(distinct)
	got, info := eng.QueryBatchInfo(slices.Concat(distinct, distinct))
	for i, q := range distinct {
		v := freq.FromTable(tb, q.Cols)
		want := float64(v.Support()) // 8 patterns: the KMV is exact
		if q.Kind == KindFp {
			want = v.F(q.P)
		}
		for _, r := range []Result{got[i], got[n+i]} {
			if r.Err != nil || r.Value != want || r.Route != routes[i] {
				t.Errorf("query %d (%s %v): %+v, want %v via %q", i, q.Kind, q.Cols, r, want, routes[i])
			}
		}
	}
	// The catch-all evaluated F2 on hot and F0 on cold, once each: F0 on
	// hot never reached it and no repeat was evaluated.
	if info.Memo.Builds != 2 || info.Memo.Hits != 0 {
		t.Errorf("catch-all memo %+v, want 2 builds and no hits", info.Memo)
	}
}
