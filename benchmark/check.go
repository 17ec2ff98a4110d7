package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/freq"
	"repro/internal/words"
)

// The flags projfreqd falls back to when a workload does not set them;
// the in-process references must be built with the same values.
const (
	defaultEps   = 0.05
	defaultDelta = 0.01
	defaultAlpha = 0.3
	defaultSeed  = 1
)

// reference is the truth about the rows sent so far. Every row is a
// draw from the catalog, so a count per catalog pattern is the whole
// stream; projecting the catalog through C and adding those counts
// into the repository's own exact frequency vector gives the answers
// core.Exact would give over the same rows (the self-test holds the
// two against each other), at a cost that does not grow with n.
type reference struct {
	in      *inputs
	counts  []int64
	batches int
}

func newReference(in *inputs) *reference {
	return &reference{in: in, counts: make([]int64, len(in.catalog))}
}

// advance extends the reference to the first n bodies the writer sent.
func (ref *reference) advance(n int) {
	for ; ref.batches < n; ref.batches++ {
		for _, c := range ref.in.draws[ref.batches%len(ref.in.draws)] {
			ref.counts[c]++
		}
	}
}

func (ref *reference) rows() int64 { return int64(ref.batches) * batchRows }

// vector is the exact projected frequency vector f(A, C).
func (ref *reference) vector(c words.ColumnSet) *freq.Vector {
	v := freq.NewVector()
	var key []byte
	for i, n := range ref.counts {
		if n > 0 {
			key = words.AppendKey(key[:0], ref.in.catalog[i], c)
			v.Add(string(key), n)
		}
	}
	return v
}

// verify checks every kept answer against the workload's reference
// and counts each wrong one as a failed operation. It runs after the
// timed phases.
func (r *runner) verify() {
	switch r.w.summary {
	case "exact":
		r.verifyExact()
	case "net":
		r.verifyNet()
	case "sample":
		r.verifySample()
	}
}

func (r *runner) columnSet(q querySpec) words.ColumnSet {
	return words.MustColumnSet(r.in.d, q.Cols...) // the generator only draws valid sets
}

// verifyExact demands bit-equal answers: every count is an integer far
// below 2^53, so there is no rounding to forgive.
func (r *runner) verifyExact() {
	ref := newReference(r.in)
	ref.advance(r.sent)
	for i, a := range r.answers {
		q, got := a.req.queries[0], a.resp.Results[0]
		v := ref.vector(r.columnSet(q))
		var err error
		switch q.Kind {
		case "f0":
			err = sameValue(got.Value, float64(v.Support()))
		case "fp":
			err = sameValue(got.Value, v.F(q.P))
		case "freq":
			err = sameValue(got.Value, float64(v.CountWord(q.Pattern)))
		case "hh":
			want := v.HeavyHitters(q.P, q.Phi)
			if len(got.Hits) != len(want) {
				err = fmt.Errorf("%d hits, want %d", len(got.Hits), len(want))
				break
			}
			for j, h := range want {
				if !h.Word.Equal(got.Hits[j].Pattern) || got.Hits[j].Estimate != float64(h.Count) {
					err = fmt.Errorf("hit %d is %v, want %v×%d", j, got.Hits[j], h.Word, h.Count)
					break
				}
			}
		}
		if got.Error != "" {
			err = fmt.Errorf("daemon error %q", got.Error)
		}
		if err != nil {
			r.fail("answer %d (%s %v): %v", i, q.Kind, q.Cols, err)
		}
	}
}

func sameValue(got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	return nil
}

// verifyNet feeds the same rows to in-process net summaries built the
// way the daemon builds its shards and demands bit-equal answers: the
// repository's sharded ≡ direct contract. Bit-equal means the same
// floating-point sums in the same order, so the reference is fed as the
// daemon's shards are: one summary per shard, pool bodies dealt round
// robin (the engine routes 256-row chunks that way), merged at the end.
// At ~90 µs a row this takes as long as the phases it checks.
func (r *runner) verifyNet() {
	parts := r.w.shards
	sums := make([]core.Summary, parts)
	var wg sync.WaitGroup
	for p := range sums {
		sum, err := engine.StandardSummary("net", r.in.d, alphabet, defaultEps, defaultDelta, defaultAlpha, defaultSeed, 0)
		if err != nil {
			r.fail("building the net reference: %v", err)
			return
		}
		sums[p] = sum
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := p; b < r.sent; b += parts {
				core.ObserveAll(sums[p], r.in.batch(b, 1))
			}
		}(p)
	}
	wg.Wait()
	for _, other := range sums[1:] {
		if err := sums[0].(core.Mergeable).Merge(other); err != nil {
			r.fail("merging the net reference: %v", err)
			return
		}
	}
	ref := sums[0]
	for i, a := range r.answers {
		q, got := a.req.queries[0], a.resp.Results[0]
		var want float64
		var err error
		switch q.Kind {
		case "f0":
			want, err = ref.(core.F0Querier).F0(r.columnSet(q))
		case "fp":
			want, err = ref.(core.FpQuerier).Fp(r.columnSet(q), q.P)
		}
		if err == nil && got.Error != "" {
			err = fmt.Errorf("daemon error %q", got.Error)
		}
		if err == nil {
			err = sameValue(got.Value, want)
		}
		if err != nil {
			r.fail("answer %d (%s %v): %v", i, q.Kind, q.Cols, err)
		}
	}
}

// verifySample holds the sample summary to its guarantee: an estimate
// may miss the truth by more than ε·n on at most a δ share of the
// queries. Each answer is judged at the row count of the epoch that
// served it, which for the dashboard reader is a prefix of the stream.
func (r *runner) verifySample() {
	ref := newReference(r.in)
	var bad []string
	total := 0
	for i, a := range r.answers {
		n := a.resp.Epoch.MergedRows
		if n%batchRows != 0 || n < ref.rows() || n > int64(r.sent)*batchRows {
			r.fail("answer %d was served at %d rows, which is no prefix the writer acked in order", i, n)
			continue
		}
		ref.advance(int(n / batchRows))
		slack := r.w.eps * float64(n)
		v := ref.vector(r.columnSet(a.req.queries[0]))
		for j, q := range a.req.queries {
			got := a.resp.Results[j]
			total++
			if got.Error != "" {
				r.fail("answer %d.%d: daemon error %q", i, j, got.Error)
				continue
			}
			switch q.Kind {
			case "freq":
				if truth := float64(v.CountWord(q.Pattern)); math.Abs(got.Value-truth) > slack {
					bad = append(bad, fmt.Sprintf("answer %d.%d: freq %v, truth %v, n %d", i, j, got.Value, truth, n))
				}
			case "hh":
				if msg := badHitters(v, got.Hits, q.Phi, slack, float64(n)); msg != "" {
					bad = append(bad, fmt.Sprintf("answer %d.%d: %s", i, j, msg))
				}
			}
		}
	}
	if total > 0 && float64(len(bad)) > r.w.delta*float64(total) {
		for _, msg := range bad {
			r.fail("%s", msg)
		}
	}
}

// badHitters judges a φ-ℓ1 heavy-hitter answer: every reported
// estimate within slack of the truth, and no pattern heavier than
// (φ·n + slack) left out.
func badHitters(v *freq.Vector, hits []hitJSON, phi, slack, n float64) string {
	reported := make(map[string]bool, len(hits))
	for _, h := range hits {
		truth := float64(v.CountWord(h.Pattern))
		if math.Abs(h.Estimate-truth) > slack {
			return fmt.Sprintf("hit %v estimated %v, truth %v", h.Pattern, h.Estimate, truth)
		}
		reported[words.Word(h.Pattern).String()] = true
	}
	for _, e := range v.HeavyHitters(1, phi) {
		if float64(e.Count) >= phi*n+slack && !reported[e.Word.String()] {
			return fmt.Sprintf("missed %v with %d of %v rows", e.Word, e.Count, n)
		}
	}
	return ""
}
