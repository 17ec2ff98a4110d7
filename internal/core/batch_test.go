package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/rng"
	"repro/internal/words"
	"repro/internal/workload"
)

// batchTestRows generates n deterministic skewed rows over [q]^d.
func batchTestRows(d, q, n int, seed uint64) []words.Word {
	src := rng.New(seed)
	rows := make([]words.Word, n)
	for i := range rows {
		w := make(words.Word, d)
		if src.Float64() < 0.4 {
			// Heavy pattern on a prefix, noise on the tail.
			for j := d / 2; j < d; j++ {
				w[j] = uint16(src.Intn(q))
			}
		} else {
			for j := range w {
				w[j] = uint16(src.Intn(q))
			}
		}
		rows[i] = w
	}
	return rows
}

// goldenBatchDigests pins the SHA-256 of MarshalSummary after
// batchTestRows(8, 4, 600, 1) went through each batchSummaryKinds
// summary. The table was generated at commit 50dbadb through the
// per-row Observe bodies that commit still had, so matching it proves
// the batch path leaves byte-identical state to the deleted row path.
// "sample-wr" was regenerated once, when with-replacement slots moved
// to skip-ahead draws (sampler wire mode 2): the new draw stream has no
// separate row body, so its digest pins the per-row Observe result,
// which the test also holds the batched feed to. "registered" was
// regenerated once, when a Registered came to hold one column set and
// no KHLL: its digest is that of the earlier three-set blob rewritten
// to the new layout around the {0,1} set's unchanged KMV block.
// "exact" was regenerated once, when the rows came to be stored and
// shipped packed: its digest is that of the earlier u16 blob decoded
// and re-encoded, which decodes to the same rows. "sample-wr" was
// regenerated a second time, when the slots came to be kept and
// shipped as one slab of packed rows (sampler wire mode 3): its digest
// is that of the mode-2 blob decoded and re-encoded, 913 bytes where
// the mode-2 blob took 1,777.
var goldenBatchDigests = map[string]string{
	"exact":      "19ae4996ac5d97a68eb746036997f89085ffb6d178822cfddd2d31cc56bfb8f2",
	"sample-wr":  "22084c040801da67fb17cade0a06ee1f4d7aea17674bc1f1e60d4776ded74390",
	"net":        "73183fe0c952af3eeb0c9903763a7c3dc40eaceb66ad093930008641e3e16d31",
	"registered": "4559c3bc9c15e7b903403cd88c01d7b97c996986e06d21de46a277e043d0fccb",
}

// batchSummaryKinds builds one fresh instance of every summary kind.
// Each factory must return an identically configured summary on every
// call so the two instances a test compares are twins.
func batchSummaryKinds(t *testing.T, d, q int) map[string]func() Summary {
	t.Helper()
	return map[string]func() Summary{
		"exact": func() Summary {
			s, err := NewExact(d, q)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"sample-wr": func() Summary {
			s, err := NewSample(d, q, 48, 7)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"net": func() Summary {
			s, err := NewNet(d, q, NetConfig{Alpha: 0.3, Epsilon: 0.25, Moments: []float64{2}, StableReps: 12, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"registered": func() Summary {
			s, err := NewRegistered(d, q, words.MustColumnSet(d, 0, 1), RegisteredConfig{Epsilon: 0.1, Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

// TestObserveBatchEquivalentToRows is the ingest contract for every
// summary kind: state depends on the row sequence, not on how it is
// split into batches. Feeding rows in uneven batches — including
// empty and single-row ones, interleaved with plain Observe calls —
// must leave the summary bit-for-bit identical to feeding them one at
// a time, pinned by wire-format byte equality (the blob carries rows,
// sketch state, and sampler RNG state), and both must hit the digest
// recorded from the per-row bodies this repo used to carry.
func TestObserveBatchEquivalentToRows(t *testing.T) {
	const d, q, n = 8, 4, 600
	rows := batchTestRows(d, q, n, 1)
	// Uneven batch splits exercising empty, single-row, and large
	// batches; -1 marks a row fed through plain Observe in between.
	splits := []int{3, 0, 1, -1, 97, 64, -1, -1, 200}
	for name, fresh := range batchSummaryKinds(t, d, q) {
		t.Run(name, func(t *testing.T) {
			rowWise := fresh()
			for _, w := range rows {
				rowWise.Observe(w)
			}
			batched := fresh()
			i := 0
			for _, size := range splits {
				if i >= n {
					break
				}
				if size < 0 {
					batched.Observe(rows[i])
					i++
					continue
				}
				if i+size > n {
					size = n - i
				}
				b := words.NewBatch(d, size)
				for _, w := range rows[i : i+size] {
					b.Append(w)
				}
				ObserveAll(batched, b)
				// Reuse-after-ingest: the summary must have copied
				// anything it kept.
				for r := 0; r < b.Len(); r++ {
					for j := range b.Row(r) {
						b.Row(r)[j] = uint16(q - 1)
					}
				}
				i += size
			}
			// Remainder in one final batch.
			b := words.NewBatch(d, n-i)
			for _, w := range rows[i:] {
				b.Append(w)
			}
			ObserveAll(batched, b)

			if batched.Rows() != rowWise.Rows() {
				t.Fatalf("rows %d != %d", batched.Rows(), rowWise.Rows())
			}
			want, err := MarshalSummary(rowWise)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MarshalSummary(batched)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("batch-path wire form differs from row-path (%d vs %d bytes)", len(got), len(want))
			}
			sum := sha256.Sum256(want)
			if digest := hex.EncodeToString(sum[:]); digest != goldenBatchDigests[name] {
				t.Fatalf("wire form digest %s, golden %s", digest, goldenBatchDigests[name])
			}
		})
	}
}

// TestObserveBatchEmptyIsNoOp pins the empty-batch contract.
func TestObserveBatchEmptyIsNoOp(t *testing.T) {
	const d, q = 8, 4
	for name, fresh := range batchSummaryKinds(t, d, q) {
		s := fresh()
		before, err := MarshalSummary(s)
		if err != nil {
			t.Fatal(err)
		}
		ObserveAll(s, words.NewBatch(d, 0))
		after, err := MarshalSummary(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: empty batch mutated the summary", name)
		}
	}
}

// TestObserveBatchDimensionMismatchPanics: the batch path enforces
// shape like Observe does.
func TestObserveBatchDimensionMismatchPanics(t *testing.T) {
	const d, q = 8, 4
	for name, fresh := range batchSummaryKinds(t, d, q) {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: wrong-dimension batch must panic", name)
				}
			}()
			b := words.NewBatch(d+1, 1)
			b.Append(make(words.Word, d+1))
			ObserveAll(fresh(), b)
		}()
	}
}

// netIngestBatches returns count 256-row batches of the load the
// net-ingest benchmark workload sends: draws from a catalog of 4096
// random patterns over [q]^d with Zipf(1.1) frequencies.
func netIngestBatches(d, q, count int, seed uint64) []*words.Batch {
	rows := words.Collect(workload.ZipfPatterns(d, q, count*256, 4096, 1.1, seed), -1).Batch()
	out := make([]*words.Batch, count)
	for i := range out {
		out[i] = rows.Slice(i*256, (i+1)*256)
	}
	return out
}

// TestNetObserveBatchDoesNotAllocate pins the α-net ingest path at the
// net-ingest workload's shape (the daemons' StandardSummary("net") at
// d = 8, q = 4, ε = 0.05, α = 0.3: 18 members, each with a KMV and a
// 60-rep p-stable sketch): once the arenas and the moment's variate
// table are warm, a 256-row batch allocates nothing.
func TestNetObserveBatchDoesNotAllocate(t *testing.T) {
	const d, q = 8, 4
	s, err := NewNet(d, q, NetConfig{Alpha: 0.3, Epsilon: 0.05, Moments: []float64{2}, StableReps: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	batches := netIngestBatches(d, q, 4, 1)
	for _, b := range batches {
		s.ObserveBatch(b)
	}
	i := 0
	allocs := testing.AllocsPerRun(8, func() {
		s.ObserveBatch(batches[i%len(batches)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("ObserveBatch of one 256-row batch allocates %v times, want 0", allocs)
	}
}

// TestNetObserveBatchAtBudgetDoesNotAllocate: once the moment's variate
// table is at its budget (and the F0 sketches are full), batches of
// rows it has not seen, whose lookups miss and evict, allocate nothing
// either.
func TestNetObserveBatchAtBudgetDoesNotAllocate(t *testing.T) {
	const d, q, rows = 8, 4, 256
	s, err := NewNet(d, q, NetConfig{Alpha: 0.3, Epsilon: 0.05, Moments: []float64{2}, StableReps: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	all := words.Collect(workload.Uniform(d, q, 64*rows, 5), -1).Batch()
	next := 0
	feed := func() {
		s.ObserveBatch(all.Slice(next*rows, (next+1)*rows))
		next++
	}
	for st := s.VariateTableStats(); st.Rows < st.MaxRows; st = s.VariateTableStats() {
		if next == all.Len()/rows/2 {
			t.Fatalf("the table is not at its budget after %d uniform batches: %+v", next, st)
		}
		feed()
	}
	// A few more batches, until the KMV sketches hold their k minima.
	for range 8 {
		feed()
	}
	before := s.VariateTableStats()
	if allocs := testing.AllocsPerRun(8, feed); allocs != 0 {
		t.Fatalf("ObserveBatch of one 256-row batch at the table's budget allocates %v times, want 0", allocs)
	}
	// AllocsPerRun feeds one warm-up batch, then the eight it measures.
	if after := s.VariateTableStats(); after.Misses-before.Misses < 9*rows {
		t.Fatalf("the measured batches missed the table only %d times", after.Misses-before.Misses)
	}
}

// TestObserveOneRowDoesNotAllocate: the one-row batch Observe wraps a
// row in lives on the stack, so a summary that retains no rows ingests
// row by row without allocating once its arenas are warm.
func TestObserveOneRowDoesNotAllocate(t *testing.T) {
	const d, q = 8, 4
	s := batchSummaryKinds(t, d, q)["registered"]()
	row := batchTestRows(d, q, 1, 3)[0]
	s.Observe(row)
	if allocs := testing.AllocsPerRun(100, func() { s.Observe(row) }); allocs != 0 {
		t.Fatalf("Observe allocates %v times per row", allocs)
	}
}

// TestNetServingShapeGolden pins the α-net's wire form at the serving
// shape — the daemons' StandardSummary("net", 8, 4, 0.05, 0.01, 0.3,
// 1, 0), 18 members each with a 60-rep p-stable sketch — after the
// end-to-end benchmark's load (64 Zipf(1.1) batches of 256 rows over a
// 4096-pattern catalog), and at d = 12 (158 members), whose distinct
// (member, pattern) keys outgrow the stable sketches' shared variate
// table, so the table evicts. Both digests were generated at commit
// e64f811, before the table existed, when AddBatch derived every
// distinct item's variates once per 512-item chunk: matching them
// proves the table changes when a variate is derived, never its value.
func TestNetServingShapeGolden(t *testing.T) {
	for _, c := range []struct {
		d, batches int
		digest     string
	}{
		{8, 64, "777cfd7a326229b1f4d3cc82ff9efdf4abd336ad6b8f252666fe8a0dae5897bf"},
		{12, 8, "a0fd231e7a0e4b6dffd63e506772784bb0e0febcbb7b752b8eb6e2557e11d1f2"},
	} {
		s, err := NewNet(c.d, 4, NetConfig{Alpha: 0.3, Epsilon: 0.05, Moments: []float64{2}, StableReps: 60, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range workload.ZipfCatalogBatches(c.d, 4, c.batches, 256, 4096, 1.1, 1) {
			s.ObserveBatch(b)
		}
		blob, err := MarshalSummary(s)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if digest := hex.EncodeToString(sum[:]); digest != c.digest {
			t.Fatalf("d=%d: wire form digest %s, golden %s", c.d, digest, c.digest)
		}
	}
}

// TestNetMomentOrderGolden pins a net configured with an unsorted
// moment list that repeats an order, Moments {2, 0.5, 2}: the moments'
// seeds are drawn from the master source in configuration order,
// skipping the duplicate, while the wire lays the moments out
// ascending, each with its own variate table. The digest was taken
// while every problem still kept its own member list.
func TestNetMomentOrderGolden(t *testing.T) {
	const d, q = 8, 4
	s, err := NewNet(d, q, NetConfig{Alpha: 0.3, Epsilon: 0.25, Moments: []float64{2, 0.5, 2}, StableReps: 12, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b := words.NewBatch(d, 600)
	for _, w := range batchTestRows(d, q, 600, 1) {
		b.Append(w)
	}
	s.ObserveBatch(b)
	blob, err := MarshalSummary(s)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	const golden = "3c0fdee0049762462fdbb0d6697da8c04842ba3c1ab278cf91d0e0d618d9cf61"
	if digest := hex.EncodeToString(sum[:]); digest != golden {
		t.Fatalf("wire form digest %s, golden %s", digest, golden)
	}
}
