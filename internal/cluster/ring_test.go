package cluster

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/hashing"
	"repro/internal/rng"
	"repro/internal/words"
)

func testRing(t *testing.T, nodes ...string) *Ring {
	t.Helper()
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRingDeterministic pins the property the cluster test harness
// leans on: the ring is a pure function of the node set, independent
// of list order and duplicates.
func TestRingDeterministic(t *testing.T) {
	a := testRing(t, "http://n1", "http://n2", "http://n3")
	b := testRing(t, "http://n3", "http://n1", "http://n2", "http://n1")
	for i := 0; i < 1000; i++ {
		row := []uint16{uint16(i % 7), uint16(i % 5), uint16(i % 3)}
		if a.OwnerOfRow(row) != b.OwnerOfRow(row) {
			t.Fatalf("row %d: owners differ across equivalent rings", i)
		}
	}
}

// TestRingCoversAllNodesRoughlyEvenly checks every node owns a
// non-trivial share of a uniform key stream — the vnode count is
// doing its smoothing job.
func TestRingCoversAllNodesRoughlyEvenly(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c", "http://d"}
	r := testRing(t, nodes...)
	counts := make(map[string]int)
	const total = 8000
	for i := 0; i < total; i++ {
		row := []uint16{uint16(i), uint16(i >> 8), uint16(i * 31)}
		counts[r.OwnerOfRow(row)]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / total
		if share < 0.10 || share > 0.45 {
			t.Fatalf("node %s owns %.1f%% of keys: %v", n, 100*share, counts)
		}
	}
}

// TestRingStability checks the consistent-hashing contract: removing
// one node only remaps the keys that node owned.
func TestRingStability(t *testing.T) {
	full := testRing(t, "http://a", "http://b", "http://c")
	reduced := testRing(t, "http://a", "http://b")
	moved := 0
	const total = 4000
	for i := 0; i < total; i++ {
		row := []uint16{uint16(i), uint16(i / 3), uint16(i % 11)}
		before := full.OwnerOfRow(row)
		after := reduced.OwnerOfRow(row)
		if before != "http://c" && before != after {
			t.Fatalf("row %d moved from surviving node %s to %s", i, before, after)
		}
		if before == "http://c" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("removed node owned no keys — test proves nothing")
	}
}

// TestPartitionBatch checks the split is exhaustive, disjoint, and
// order-preserving per node.
func TestPartitionBatch(t *testing.T) {
	const d = 4
	r := testRing(t, "http://a", "http://b", "http://c")
	b := words.NewBatch(d, 0)
	for i := 0; i < 200; i++ {
		w := words.Word{uint16(i % 5), uint16(i % 3), uint16(i % 7), uint16(i % 2)}
		b.Append(w)
	}
	parts := r.PartitionBatch(b)
	total := 0
	for node, part := range parts {
		total += part.Len()
		if part.Dim() != d {
			t.Fatalf("node %s part has dim %d", node, part.Dim())
		}
		for i := 0; i < part.Len(); i++ {
			if got := r.OwnerOfRow(part.Row(i)); got != node {
				t.Fatalf("row in %s's partition owned by %s", node, got)
			}
		}
	}
	if total != b.Len() {
		t.Fatalf("partitions hold %d rows, batch has %d", total, b.Len())
	}
	// Order within a node's partition is the input order restricted to
	// that node — check via the full recomputation.
	want := make(map[string][]words.Word)
	for i := 0; i < b.Len(); i++ {
		row := b.Row(i)
		node := r.OwnerOfRow(row)
		want[node] = append(want[node], append(words.Word(nil), row...))
	}
	for node, rows := range want {
		part := parts[node]
		if part.Len() != len(rows) {
			t.Fatalf("node %s: %d rows, want %d", node, part.Len(), len(rows))
		}
		for i, w := range rows {
			got := part.Row(i)
			for j := range w {
				if got[j] != w[j] {
					t.Fatalf("node %s row %d: %v != %v", node, i, got, w)
				}
			}
		}
	}
}

// TestNewRingRejectsEmpty covers the constructor's refusals.
func TestNewRingRejectsEmpty(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := NewRing([]string{"http://a", " "}); err == nil {
		t.Fatal("blank node name accepted")
	}
}

// TestRowKeyContentAddressed checks equal rows hash equally and
// distinct rows (almost always) do not — the property that
// concentrates duplicates on one owner.
func TestRowKeyContentAddressed(t *testing.T) {
	a := []uint16{1, 2, 3}
	b := []uint16{1, 2, 3}
	if RowKey(a) != RowKey(b) {
		t.Fatal("equal rows hash differently")
	}
	seen := make(map[uint64]string)
	for i := 0; i < 500; i++ {
		row := []uint16{uint16(i), uint16(i * 7), uint16(i * 13)}
		k := RowKey(row)
		if prev, ok := seen[k]; ok {
			t.Fatalf("collision between %s and %v", prev, row)
		}
		seen[k] = fmt.Sprint(row)
	}
}

// refRowKey is the per-symbol reference for RowKey: the row's symbols
// as little-endian byte pairs, fingerprinted.
func refRowKey(row []uint16) uint64 {
	buf := make([]byte, 0, 2*len(row))
	for _, sym := range row {
		buf = append(buf, byte(sym), byte(sym>>8))
	}
	return hashing.Fingerprint64(buf)
}

// refOwner is the reference for Owner: the first ring point at or
// after h, found with sort.Search.
func refOwner(r *Ring, h uint64) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	return r.nodes[r.points[i%len(r.points)].node]
}

// TestPartitionBatchMatchesOwnerOfRow pins the one-pass partition to
// per-row routing: over random batches and rings of 1–5 nodes, every
// row lands in its OwnerOfRow part, in input order, and RowKey and
// Owner agree with their per-symbol and sort.Search references.
func TestPartitionBatchMatchesOwnerOfRow(t *testing.T) {
	src := rng.New(41)
	for _, d := range []int{1, 3, 4, 16} {
		for size := 1; size <= 5; size++ {
			var nodes []string
			for i := range size {
				nodes = append(nodes, fmt.Sprintf("http://n%d-%d", i, src.Intn(1000)))
			}
			r := testRing(t, nodes...)
			for trial := range 4 {
				n := src.Intn(300)
				b := words.NewBatch(d, n)
				for range n {
					row := b.AppendRow()
					for j := range row {
						if trial%2 == 0 {
							row[j] = uint16(src.Intn(4))
						} else {
							row[j] = uint16(src.Intn(1 << 16))
						}
					}
				}
				want := map[string][]uint16{}
				for i := range n {
					row := b.Row(i)
					if k := RowKey(row); k != refRowKey(row) {
						t.Fatalf("RowKey(%v) = %x, reference %x", row, k, refRowKey(row))
					}
					owner := r.OwnerOfRow(row)
					if ref := refOwner(r, refRowKey(row)); owner != ref {
						t.Fatalf("OwnerOfRow(%v) = %s, reference %s", row, owner, ref)
					}
					want[owner] = append(want[owner], row...)
				}
				parts := r.PartitionBatch(b)
				if len(parts) != len(want) {
					t.Fatalf("d=%d, %d nodes: %d parts, want %d", d, size, len(parts), len(want))
				}
				for node, rows := range want {
					part := parts[node]
					if part == nil || part.Dim() != d || !slices.Equal(part.Symbols(), rows) {
						t.Fatalf("d=%d, %d nodes: part of %s differs from its OwnerOfRow rows in input order", d, size, node)
					}
				}
			}
		}
	}
}

// TestRowKeyDoesNotAllocate: RowKey encodes into a stack buffer.
func TestRowKeyDoesNotAllocate(t *testing.T) {
	row := []uint16{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}
	if allocs := testing.AllocsPerRun(100, func() { RowKey(row) }); allocs != 0 {
		t.Fatalf("RowKey allocated %v times per call", allocs)
	}
}

// BenchmarkPartitionBatch partitions 256-row, d = 16 batches over [4]
// across two nodes, the router's shape in the cluster-router workload.
func BenchmarkPartitionBatch(b *testing.B) {
	const n, d = 256, 16
	r, err := NewRing([]string{"http://127.0.0.1:7001", "http://127.0.0.1:7002"})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(5)
	batch := words.NewBatch(d, n)
	for range n {
		row := batch.AppendRow()
		for j := range row {
			row[j] = uint16(src.Intn(4))
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		r.PartitionBatch(batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
}
