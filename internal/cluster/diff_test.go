package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/hashing"
	"repro/internal/words"
)

// TestRingEpochs pins the membership-versioning surface: NewRing
// starts at epoch 0, NewRingEpoch stores what it is given, the epoch
// never affects routing, and Has answers membership.
func TestRingEpochs(t *testing.T) {
	a := testRing(t, "http://n1", "http://n2")
	if a.Epoch() != 0 {
		t.Fatalf("NewRing epoch = %d, want 0", a.Epoch())
	}
	b, err := NewRingEpoch([]string{"http://n1", "http://n2"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch() != 7 {
		t.Fatalf("epoch = %d, want 7", b.Epoch())
	}
	for i := 0; i < 500; i++ {
		row := []uint16{uint16(i), uint16(i * 3)}
		if a.Owner(RowKey(row)) != b.Owner(RowKey(row)) {
			t.Fatalf("row %d: epoch changed routing", i)
		}
	}
	if !a.Has("http://n1") || a.Has("http://n3") || a.Has("") {
		t.Fatal("Has misreports membership")
	}
}

// TestDiffUnchanged: identical memberships produce an empty diff even
// across an epoch bump.
func TestDiffUnchanged(t *testing.T) {
	a := testRing(t, "http://a", "http://b")
	b, err := NewRingEpoch([]string{"http://b", "http://a"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := a.Diff(b)
	if d.Changed() || len(d.Moved) != 0 || d.Successors != nil {
		t.Fatalf("diff of equal memberships: %+v", d)
	}
	if d.FromEpoch != 0 || d.ToEpoch != 3 {
		t.Fatalf("epochs not carried: %+v", d)
	}
}

// TestDiffRemovalMatchesEmpiricalMovement checks the arc walk against
// brute force: the Moved shares must match the empirically observed
// key movement, every moved key must come from the removed node, and
// the successor must be the flow with the largest share.
func TestDiffRemovalMatchesEmpiricalMovement(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c", "http://d"}
	old := testRing(t, nodes...)
	next, err := NewRingEpoch(nodes[:3], 1)
	if err != nil {
		t.Fatal(err)
	}
	d := old.Diff(next)
	if len(d.Removed) != 1 || d.Removed[0] != "http://d" || len(d.Added) != 0 {
		t.Fatalf("membership delta: %+v", d)
	}

	// Brute force over a uniform key sample.
	const total = 40000
	emp := make(map[[2]string]int)
	for i := 0; i < total; i++ {
		row := []uint16{uint16(i), uint16(i >> 8), uint16(i * 131)}
		from, to := old.Owner(RowKey(row)), next.Owner(RowKey(row))
		if from != to {
			if from != "http://d" {
				t.Fatalf("key moved from surviving node %s", from)
			}
			emp[[2]string{from, to}]++
		}
	}

	var analyticTotal float64
	for _, m := range d.Moved {
		if m.From != "http://d" {
			t.Fatalf("Moved flow from surviving node: %+v", m)
		}
		got := float64(emp[[2]string{m.From, m.To}]) / total
		if diff := got - m.Share; diff > 0.02 || diff < -0.02 {
			t.Fatalf("flow %s -> %s: analytic share %.4f, empirical %.4f", m.From, m.To, m.Share, got)
		}
		analyticTotal += m.Share
	}
	// The consistent-hash promise: roughly 1/N of the ring moves.
	if analyticTotal < 0.10 || analyticTotal > 0.45 {
		t.Fatalf("removal of 1 of 4 nodes moved %.1f%% of the ring", 100*analyticTotal)
	}

	// The successor is the largest flow out of the removed node.
	succ, ok := d.Successors["http://d"]
	if !ok {
		t.Fatalf("no successor for removed node: %+v", d.Successors)
	}
	bestShare := 0.0
	for _, m := range d.Moved {
		if m.Share > bestShare {
			bestShare = m.Share
		}
	}
	for _, m := range d.Moved {
		if m.To == succ && m.Share != bestShare {
			t.Fatalf("successor %s has share %.4f, best is %.4f", succ, m.Share, bestShare)
		}
	}
}

// TestDiffAdditionOnlyMovesToNewNode: growing the membership moves
// keys only onto the added node, never between survivors.
func TestDiffAdditionOnlyMovesToNewNode(t *testing.T) {
	old := testRing(t, "http://a", "http://b")
	next, err := NewRingEpoch([]string{"http://a", "http://b", "http://c"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := old.Diff(next)
	if len(d.Added) != 1 || d.Added[0] != "http://c" || len(d.Removed) != 0 || d.Successors != nil {
		t.Fatalf("membership delta: %+v", d)
	}
	for _, m := range d.Moved {
		if m.To != "http://c" {
			t.Fatalf("flow between survivors on pure addition: %+v", m)
		}
	}
	for i := 0; i < 4000; i++ {
		row := []uint16{uint16(i * 7), uint16(i)}
		from, to := old.Owner(RowKey(row)), next.Owner(RowKey(row))
		if from != to && to != "http://c" {
			t.Fatalf("key moved between survivors: %s -> %s", from, to)
		}
	}
}

// TestDiffReplacingOnlyNode: a single-node ring handing everything to
// a different single node is the degenerate total hand-off — the
// whole ring moves and the successor is the new node.
func TestDiffReplacingOnlyNode(t *testing.T) {
	old := testRing(t, "http://only")
	next, err := NewRingEpoch([]string{"http://new"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := old.Diff(next)
	if d.Successors["http://only"] != "http://new" {
		t.Fatalf("successors: %+v", d.Successors)
	}
	var total float64
	for _, m := range d.Moved {
		if m.From != "http://only" || m.To != "http://new" {
			t.Fatalf("unexpected flow: %+v", m)
		}
		total += m.Share
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("total moved share %.4f, want 1", total)
	}
}

// TestDiffSuccessorFallbackWhenShadowed: a removed node whose every
// vnode is shadowed (tied hashes lost to a lower node index) owns no
// elementary arc; the successor must still be chosen, and
// deterministically. Colliding points cannot be provoked through
// Fingerprint64, so the rings are built by hand.
func TestDiffSuccessorFallbackWhenShadowed(t *testing.T) {
	old := &Ring{
		nodes:  []string{"a", "b"},
		points: []ringPoint{{100, 0}, {100, 1}, {1 << 40, 0}, {1 << 40, 1}},
	}
	// Tie-break: the lower node index wins, so b owns nothing.
	if old.Owner(100) != "a" || old.Owner(50) != "a" || old.Owner(1<<50) != "a" {
		t.Fatal("shadowed ring construction wrong: b owns keys")
	}
	next := &Ring{nodes: []string{"a"}, points: []ringPoint{{100, 0}, {1 << 40, 0}}, epoch: 1}
	d := old.Diff(next)
	if len(d.Removed) != 1 || d.Removed[0] != "b" {
		t.Fatalf("removed: %+v", d)
	}
	want := next.Owner(hashing.Fingerprint64([]byte("b")))
	if got := d.Successors["b"]; got != want {
		t.Fatalf("fallback successor %q, want %q", got, want)
	}
	// Deterministic: recomputing gives the same answer.
	if again := old.Diff(next).Successors["b"]; again != d.Successors["b"] {
		t.Fatal("fallback successor not deterministic")
	}
}

// TestSingleNodeRing: the N=1 edge case — everything routes to the
// one node, the partition is a single part, and a no-op diff is empty.
func TestSingleNodeRing(t *testing.T) {
	r := testRing(t, "http://solo")
	b := words.NewBatch(3, 0)
	for i := 0; i < 50; i++ {
		b.Append(words.Word{uint16(i), 1, 2})
		if r.Owner(RowKey([]uint16{uint16(i), 1, 2})) != "http://solo" {
			t.Fatal("single node does not own every key")
		}
	}
	parts := r.PartitionBatch(b)
	if len(parts) != 1 || parts["http://solo"].Len() != 50 {
		t.Fatalf("partition: %d parts", len(parts))
	}
	same, err := NewRingEpoch([]string{"http://solo"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Diff(same); d.Changed() || len(d.Moved) != 0 {
		t.Fatalf("single-node no-op diff: %+v", d)
	}
}

// TestRingDeduplicatesURLs: duplicate and whitespace-padded node names
// collapse to one member and route like the clean singleton.
func TestRingDeduplicatesURLs(t *testing.T) {
	dirty := testRing(t, "http://a", " http://a", "http://a ", "http://b")
	if dirty.Len() != 2 {
		t.Fatalf("dirty ring has %d nodes: %v", dirty.Len(), dirty.Nodes())
	}
	clean := testRing(t, "http://a", "http://b")
	for i := 0; i < 1000; i++ {
		row := []uint16{uint16(i * 3), uint16(i)}
		if dirty.Owner(RowKey(row)) != clean.Owner(RowKey(row)) {
			t.Fatalf("row %d: deduplicated ring routes differently", i)
		}
	}
}

// TestPartitionBatchIsPartitionProperty: under random memberships and
// random batches, PartitionBatch is a true partition — every row lands
// in exactly one part, parts only hold rows the ring assigns them, and
// the multiset union equals the input.
func TestPartitionBatchIsPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	pool := []string{"http://a", "http://b", "http://c", "http://d", "http://e", "http://f"}
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(len(pool))
		perm := rng.Perm(len(pool))[:n]
		nodes := make([]string, n)
		for i, p := range perm {
			nodes[i] = pool[p]
		}
		r := testRing(t, nodes...)

		d := 1 + rng.Intn(5)
		b := words.NewBatch(d, 0)
		rows := 1 + rng.Intn(200)
		for i := 0; i < rows; i++ {
			w := make(words.Word, d)
			for j := range w {
				// A small alphabet forces duplicate rows into the batch, so
				// the multiset comparison is doing real work.
				w[j] = uint16(rng.Intn(4))
			}
			b.Append(w)
		}

		want := make(map[uint64]int)
		for i := 0; i < b.Len(); i++ {
			want[RowKey(b.Row(i))]++
		}
		got := make(map[uint64]int)
		total := 0
		for node, part := range r.PartitionBatch(b) {
			total += part.Len()
			for i := 0; i < part.Len(); i++ {
				row := part.Row(i)
				if owner := r.Owner(RowKey(row)); owner != node {
					t.Fatalf("trial %d: row in %s's part owned by %s", trial, node, owner)
				}
				got[RowKey(row)]++
			}
		}
		if total != b.Len() {
			t.Fatalf("trial %d: parts hold %d rows, batch has %d", trial, total, b.Len())
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("trial %d: key %x appears %d times in parts, %d in batch", trial, k, got[k], n)
			}
		}
	}
}
