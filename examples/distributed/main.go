// Command distributed walks through the cross-process deployment
// model of the wire format (ARCHITECTURE.md): two independent writer
// processes each observe a disjoint shard of the stream, serialize
// their summaries, and a reader process merges the decoded blobs and
// answers queries as if it had seen the whole stream.
//
// Here all three "processes" run in one binary for reproducibility —
// the only thing that crosses between them is the []byte wire blobs,
// exactly what would travel over the network to a projfreqd daemon
// (whose /v1/push?source= endpoint keeps each writer's latest blob and
// does the reader's half on every read).
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	projfreq "repro"
)

const (
	d    = 8
	q    = 3
	seed = 42 // shared by every writer: Net merges require equal seeds
)

// newWriterSummary builds the summary each writer maintains. Every
// writer must use the same shape and configuration, or the reader's
// merge will be refused with ErrIncompatibleMerge.
func newWriterSummary() (projfreq.Summary, error) {
	// Alpha 0.25 keeps size-2 subsets inside the net, so the demo
	// query below is answered from its own sketch, undistorted.
	return projfreq.NewNetSummary(d, q, projfreq.NetConfig{
		Alpha: 0.25, Epsilon: 0.1, Seed: seed,
	})
}

// writer simulates one writer process: it observes its shard of the
// stream and returns the summary's wire form — the writer's entire
// output, small enough to POST to a daemon or drop on a queue.
func writer(id int, rows []projfreq.Word) ([]byte, error) {
	sum, err := newWriterSummary()
	if err != nil {
		return nil, err
	}
	for _, w := range rows {
		sum.Observe(w)
	}
	blob, err := projfreq.MarshalSummary(sum)
	if err != nil {
		return nil, err
	}
	fmt.Printf("writer %d: observed %d rows, summary travels as %d bytes\n",
		id, sum.Rows(), len(blob))
	return blob, nil
}

// reader simulates the serving process: it decodes each pushed blob
// and merges it into its own summary, then answers queries over the
// union of every writer's stream.
func reader(blobs ...[]byte) (projfreq.Summary, error) {
	acc, err := newWriterSummary()
	if err != nil {
		return nil, err
	}
	for i, blob := range blobs {
		dec, err := projfreq.UnmarshalSummary(blob)
		if err != nil {
			return nil, fmt.Errorf("decoding writer %d: %w", i, err)
		}
		if err := acc.(projfreq.Mergeable).Merge(dec); err != nil {
			return nil, fmt.Errorf("merging writer %d: %w", i, err)
		}
	}
	return acc, nil
}

func main() {
	// The full stream: rows cycle over a catalog of 6 patterns on the
	// first three columns, with noise elsewhere.
	r := projfreq.NewRand(7)
	var stream []projfreq.Word
	for i := 0; i < 10000; i++ {
		row := make(projfreq.Word, d)
		pat := r.Intn(6)
		row[0], row[1], row[2] = uint16(pat%q), uint16((pat/q)%q), 1
		for j := 3; j < d; j++ {
			row[j] = uint16(r.Intn(q))
		}
		stream = append(stream, row)
	}

	// Writers 1 and 2 each see half the stream, in different
	// processes; neither ever holds the other's rows.
	blob1, err := writer(1, stream[:len(stream)/2])
	if err != nil {
		log.Fatal(err)
	}
	blob2, err := writer(2, stream[len(stream)/2:])
	if err != nil {
		log.Fatal(err)
	}

	// The reader reconstructs and merges — its answers are exactly
	// those of a single summary over the concatenated stream, because
	// Net merges are exact for same-seed writers.
	merged, err := reader(blob1, blob2)
	if err != nil {
		log.Fatal(err)
	}
	single, err := newWriterSummary()
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range stream {
		single.Observe(w)
	}

	c, err := projfreq.NewColumnSet(d, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	mergedF0, err := merged.(projfreq.F0Querier).F0(c)
	if err != nil {
		log.Fatal(err)
	}
	singleF0, err := single.(projfreq.F0Querier).F0(c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reader: merged %d rows from 2 writers\n", merged.Rows())
	fmt.Printf("distinct patterns on {0,1}: merged=%.0f single-pass=%.0f (match: %v)\n",
		mergedF0, singleF0, mergedF0 == singleF0)

	// Decoding garbage fails typed, never panics.
	if _, err := projfreq.UnmarshalSummary(blob1[:20]); err != nil {
		fmt.Printf("truncated blob refused: %v\n", err)
	}
}
