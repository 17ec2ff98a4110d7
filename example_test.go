package projfreq_test

import (
	"errors"
	"fmt"

	projfreq "repro"
)

// Example demonstrates the paper's computational model: summaries are
// built while streaming, and the projection query arrives only after
// the data has gone by.
func Example() {
	const d, q = 6, 3
	sum, err := projfreq.NewSampleSummarySize(d, q, 400, 1)
	if err != nil {
		panic(err)
	}

	// Stream: the pattern (2,1) on columns {0,1} appears in 30% of rows.
	r := projfreq.NewRand(7)
	for i := 0; i < 10000; i++ {
		row := make(projfreq.Word, d)
		if r.Float64() < 0.3 {
			row[0], row[1] = 2, 1
		} else {
			row[0], row[1] = uint16(r.Intn(q)), uint16(r.Intn(q))
		}
		for j := 2; j < d; j++ {
			row[j] = uint16(r.Intn(q))
		}
		sum.Observe(row)
	}

	// Query chosen after observation.
	c, _ := projfreq.NewColumnSet(d, 0, 1)
	est, _ := sum.Frequency(c, projfreq.Word{2, 1})
	fmt.Printf("estimated share of (2,1): %.0f%%\n", 100*est/float64(sum.Rows()))
	// Output:
	// estimated share of (2,1): 32%
}

// ExampleNewNetSummary shows Algorithm 1 (Theorem 6.5): projected F0
// for arbitrary post-hoc queries, within a 2^{O(αd)} factor.
func ExampleNewNetSummary() {
	const d = 8
	net, _ := projfreq.NewNetSummary(d, 2, projfreq.NetConfig{
		Alpha: 0.25, Epsilon: 0.2, Seed: 3,
	})
	// Rows repeat over a catalog of 4 patterns on the first 3 columns.
	r := projfreq.NewRand(5)
	for i := 0; i < 5000; i++ {
		row := make(projfreq.Word, d)
		pat := r.Intn(4)
		row[0], row[1], row[2] = uint16(pat&1), uint16(pat>>1), 1
		for j := 3; j < d; j++ {
			row[j] = uint16(r.Intn(2))
		}
		net.Observe(row)
	}
	c, _ := projfreq.NewColumnSet(d, 0, 1) // size 2 is a net member: exact sketch answer
	f0, _ := net.F0(c)
	fmt.Printf("distinct patterns on {0,1}: %.0f\n", f0)
	// Output:
	// distinct patterns on {0,1}: 4
}

// Example_registry shows the subspace registry and query planner: a
// cheap dedicated sketch serves a hot projection registered before
// the data arrives, while the catch-all summary serves the long tail
// of post-hoc queries — the two pricing regimes the paper contrasts,
// composed behind one front door.
func Example_registry() {
	const d, q = 6, 3
	full, _ := projfreq.NewExactSummary(d, q)
	reg, _ := projfreq.NewRegistry(full)

	// The product team knows {0,1} is hot, so it gets a dedicated
	// (1±ε) F0 sketch — registered before observation, like every
	// subspace.
	hot, _ := projfreq.NewColumnSet(d, 0, 1)
	sketch, _ := projfreq.NewRegisteredSummary(d, q, hot, projfreq.RegisteredConfig{Seed: 1})
	if err := reg.RegisterSubspace(hot, sketch); err != nil {
		panic(err)
	}

	// Stream rows into the registry: every member sees every row.
	r := projfreq.NewRand(7)
	row := make(projfreq.Word, d)
	for i := 0; i < 5000; i++ {
		for j := range row {
			row[j] = uint16(r.Intn(q))
		}
		reg.Observe(row)
	}

	// Queries route automatically: the hot set to its sketch, any
	// other projection (chosen after the data went by) to the
	// catch-all.
	hotF0, _ := reg.F0(hot)
	cold, _ := projfreq.NewColumnSet(d, 2, 3)
	coldF0, _ := reg.F0(cold)
	fmt.Printf("plan(hot) = %s, plan(cold) = %s\n", reg.Plan(hot).Match, reg.Plan(cold).Match)
	fmt.Printf("F0(hot) = %.0f (sketched), F0(cold) = %.0f (exact)\n", hotF0, coldF0)
	// Output:
	// plan(hot) = exact, plan(cold) = full
	// F0(hot) = 9 (sketched), F0(cold) = 9 (exact)
}

// Example_serialization shows the wire format behind cmd/projfreqd:
// summaries serialize to self-describing binary blobs that another
// process can decode, merge, and query — the answers match a single
// summary over the concatenated stream.
func Example_serialization() {
	const d, q = 4, 2
	writerA, _ := projfreq.NewExactSummary(d, q)
	writerB, _ := projfreq.NewExactSummary(d, q)
	// Two writer processes observe disjoint shards of the stream.
	writerA.Observe(projfreq.Word{1, 0, 1, 0})
	writerA.Observe(projfreq.Word{1, 0, 0, 0})
	writerB.Observe(projfreq.Word{1, 0, 1, 1})
	writerB.Observe(projfreq.Word{0, 1, 1, 1})
	blobA, _ := projfreq.MarshalSummary(writerA)
	blobB, _ := projfreq.MarshalSummary(writerB)

	// The reader sees only the blobs: decode, merge, query.
	reader, _ := projfreq.UnmarshalSummary(blobA)
	fromB, _ := projfreq.UnmarshalSummary(blobB)
	if err := reader.(projfreq.Mergeable).Merge(fromB); err != nil {
		panic(err)
	}
	c, _ := projfreq.NewColumnSet(d, 0, 1)
	f, _ := reader.(projfreq.FrequencyQuerier).Frequency(c, projfreq.Word{1, 0})
	fmt.Printf("rows=%d f((1 0) on {0,1})=%.0f\n", reader.Rows(), f)

	// Corrupt blobs fail typed, never panic.
	_, err := projfreq.UnmarshalSummary(blobA[:10])
	fmt.Println("truncated blob rejected:", errors.Is(err, projfreq.ErrBadEncoding))
	// Output:
	// rows=4 f((1 0) on {0,1})=3
	// truncated blob rejected: true
}
