// Package cluster holds the pieces of the two-tier projfreqd
// topology: a consistent-hash ring that partitions the row stream
// across ingest nodes (used by projfreq-router), and a Puller that
// runs ETag-driven anti-entropy from ingest nodes into an aggregator
// (used by projfreqd's -pull-from mode).
//
// The paper's mergeability theorem is what makes the topology sound:
// each ingest node summarizes a disjoint slice of the stream, and an
// aggregator that merges the per-node summaries answers projected
// frequency queries exactly as if one process had seen every row. The
// ring only has to keep the slices disjoint — any row-to-node map
// works — so it optimizes for the operational property instead:
// adding or removing one node remaps only ~1/N of the key space.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/hashing"
	"repro/internal/words"
)

// vnodesPerNode is the number of ring positions each node occupies.
// More vnodes smooth the partition sizes (the standard deviation of a
// node's share shrinks like 1/sqrt(vnodes)) at the cost of a larger
// sorted array to binary-search; 64 keeps the imbalance under a few
// percent for small clusters while the ring stays a few KB.
const vnodesPerNode = 64

// Ring is an immutable consistent-hash ring over named nodes. It is
// deterministic: two processes given the same node list (in any
// order) build identical rings and route every row identically —
// which is what lets the cluster test harness recompute the router's
// partition from outside the router process.
//
// A ring also carries a membership epoch: a monotonically increasing
// version of the node set. The epoch does not affect routing — two
// rings over the same nodes route identically at any epoch — it
// exists so that a membership change is an observable, ordered event
// (the router bumps it on every accepted change and reports it from
// its stats and observe responses).
type Ring struct {
	nodes  []string // sorted, deduplicated
	points []ringPoint
	epoch  uint64
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the given node names (typically base
// URLs) at membership epoch 0. Names are deduplicated; order does not
// matter. At least one node is required.
func NewRing(nodes []string) (*Ring, error) {
	return NewRingEpoch(nodes, 0)
}

// NewRingEpoch is NewRing with an explicit membership epoch, used by
// callers that version their node set across changes (the router's
// membership endpoint builds each successor ring at epoch+1).
func NewRingEpoch(nodes []string, epoch uint64) (*Ring, error) {
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		n = strings.TrimSpace(n)
		if n == "" {
			return nil, errors.New("cluster: empty node name")
		}
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	if len(uniq) == 0 {
		return nil, errors.New("cluster: ring needs at least one node")
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]ringPoint, 0, len(uniq)*vnodesPerNode), epoch: epoch}
	for i, n := range uniq {
		for v := 0; v < vnodesPerNode; v++ {
			h := hashing.Fingerprint64([]byte(fmt.Sprintf("%s#%d", n, v)))
			r.points = append(r.points, ringPoint{hash: h, node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Ties (astronomically rare for 64-bit fingerprints) break by
		// node index so the ring stays order-independent.
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Nodes returns the ring's node names, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Len returns the number of distinct nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Epoch returns the ring's membership epoch.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Has reports whether node is a member of the ring.
func (r *Ring) Has(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// Owner returns the node owning the given key hash: the first ring
// point clockwise from it.
func (r *Ring) Owner(h uint64) string {
	return r.nodes[r.ownerIndex(h)]
}

// ownerIndex is Owner as an index into r.nodes.
func (r *Ring) ownerIndex(h uint64) int {
	pts := r.points
	lo, hi := 0, len(pts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pts[m].hash < h {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(pts) {
		lo = 0
	}
	return pts[lo].node
}

// RowKey hashes one row of symbols to its ring coordinate: the
// fingerprint of the row in the flat symbol codec
// (words.AppendSymbolsLE). The key is the row's symbol content, so
// the same row always lands on the same node regardless of arrival
// order or batch boundaries — duplicate rows concentrate on one owner
// instead of smearing, and the cluster test harness can recompute
// every row's owner offline.
func RowKey(row []uint16) uint64 {
	var key [2 * 64]byte // rows up to d = 64 encode on the stack
	return hashing.Fingerprint64(words.AppendSymbolsLE(key[:0], row))
}

// Reassignment is one (from, to) flow of key space between two rings:
// the fraction of the 64-bit hash ring whose owner changes from From
// to To across a membership change.
type Reassignment struct {
	From  string  `json:"from"`
	To    string  `json:"to"`
	Share float64 `json:"share"`
}

// Diff describes the slice reassignments a membership change causes.
// It is what the router's membership endpoint acts on: every removed
// node must hand its summary off to a live successor before it can be
// decommissioned without losing its slice of the stream.
type Diff struct {
	// FromEpoch and ToEpoch are the two rings' membership epochs.
	FromEpoch uint64 `json:"from_epoch"`
	ToEpoch   uint64 `json:"to_epoch"`
	// Added and Removed are the membership delta, sorted.
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
	// Moved lists every (from, to) key-space flow with the share of
	// the ring it covers, sorted by (From, To). Shares sum to the
	// fraction of the ring whose owner changed — the consistent-hash
	// promise is that this stays near (changed nodes)/N.
	Moved []Reassignment `json:"moved,omitempty"`
	// Successors maps each removed node to the member of the new ring
	// that inherits the largest share of its key space — the natural
	// hand-off target for the removed node's summary. (Summaries are
	// mergeable but not splittable, so the whole summary goes to one
	// successor even when the removed node's slices scatter.)
	Successors map[string]string `json:"successors,omitempty"`
}

// Changed reports whether the membership differs at all.
func (d Diff) Changed() bool { return len(d.Added) > 0 || len(d.Removed) > 0 }

// Diff computes the slice reassignments from r to next by walking the
// elementary arcs of the two rings' merged point sets: within one
// elementary arc both rings' owners are constant, so summing arc
// lengths per (oldOwner, newOwner) pair measures exactly the key
// space that moves. Both rings see the walk read-only; the result is
// deterministic for a given pair of rings.
func (r *Ring) Diff(next *Ring) Diff {
	d := Diff{FromEpoch: r.epoch, ToEpoch: next.epoch}
	for _, n := range r.nodes {
		if !next.Has(n) {
			d.Removed = append(d.Removed, n)
		}
	}
	for _, n := range next.nodes {
		if !r.Has(n) {
			d.Added = append(d.Added, n)
		}
	}

	// Merge both rings' point hashes into one sorted boundary list.
	// Every key strictly between two consecutive boundaries (and the
	// upper boundary itself) has the same owner in each ring: the
	// owner of the upper boundary.
	bounds := make([]uint64, 0, len(r.points)+len(next.points))
	for _, p := range r.points {
		bounds = append(bounds, p.hash)
	}
	for _, p := range next.points {
		bounds = append(bounds, p.hash)
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
	// Deduplicate (old and new rings share points for surviving nodes).
	uniq := bounds[:0]
	for i, b := range bounds {
		if i == 0 || b != bounds[i-1] {
			uniq = append(uniq, b)
		}
	}
	bounds = uniq

	// Arc lengths accumulate as float64: a pair inheriting the whole
	// ring sums to 2^64, which wraps to zero in uint64 arithmetic (the
	// replace-the-only-node case), and shares are reported as floats
	// anyway.
	const ringSpan = float64(1<<63) * 2
	moved := make(map[[2]string]float64)
	inherit := make(map[string]map[string]float64) // removed -> successor -> arc length
	for i, b := range bounds {
		// Arc (bounds[i-1], bounds[i]] — for i == 0 the arc wraps from
		// the last boundary through 0, and its length is the two's
		// complement difference, which wraps correctly in uint64.
		arc := float64(b - bounds[(i+len(bounds)-1)%len(bounds)])
		if len(bounds) == 1 {
			// A single boundary owns the whole ring.
			arc = ringSpan
		}
		from, to := r.Owner(b), next.Owner(b)
		if from == to {
			continue
		}
		moved[[2]string{from, to}] += arc
		if m := inherit[from]; m != nil {
			m[to] += arc
		} else {
			inherit[from] = map[string]float64{to: arc}
		}
	}
	for pair, length := range moved {
		d.Moved = append(d.Moved, Reassignment{From: pair[0], To: pair[1], Share: length / ringSpan})
	}
	sort.Slice(d.Moved, func(a, b int) bool {
		if d.Moved[a].From != d.Moved[b].From {
			return d.Moved[a].From < d.Moved[b].From
		}
		return d.Moved[a].To < d.Moved[b].To
	})

	if len(d.Removed) > 0 {
		d.Successors = make(map[string]string, len(d.Removed))
		for _, gone := range d.Removed {
			best, bestLen := "", 0.0
			for to, length := range inherit[gone] {
				// Largest inherited share wins; ties (and the degenerate
				// no-arcs case) break deterministically.
				if best == "" || length > bestLen || (length == bestLen && to < best) {
					best, bestLen = to, length
				}
			}
			if best == "" {
				// The removed node owned no elementary arc (possible only
				// when every one of its vnodes was shadowed — vanishingly
				// rare, but the hand-off still needs a deterministic home).
				best = next.Owner(hashing.Fingerprint64([]byte(gone)))
			}
			d.Successors[gone] = best
		}
	}
	return d
}

// PartitionBatch splits a batch into per-node sub-batches, keyed by
// node name; nodes owning no rows of the batch are absent from the
// map. Row order within each sub-batch preserves the input order,
// which keeps each ingest node's WAL order a subsequence of the
// client's stream order.
//
// Every row's key is RowKey's, computed in one pass: the batch is
// encoded once into a key arena and fingerprinted row by row in one
// call. Each part is sized by a count of its rows before they are
// copied in.
func (r *Ring) PartitionBatch(b *words.Batch) map[string]*words.Batch {
	n, d := b.Len(), b.Dim()
	arena := words.AppendSymbolsLE(make([]byte, 0, 2*n*d), b.Symbols())
	owners := hashing.AppendFingerprints64(make([]uint64, 0, n), arena, n, 2*d)
	counts := make([]int, len(r.nodes))
	for i, h := range owners {
		node := r.ownerIndex(h)
		owners[i] = uint64(node)
		counts[node]++
	}
	parts := make([]*words.Batch, len(r.nodes))
	for node, c := range counts {
		if c > 0 {
			parts[node] = words.NewBatch(d, c)
		}
	}
	for i, node := range owners {
		parts[node].Append(b.Row(i))
	}
	out := make(map[string]*words.Batch, len(r.nodes))
	for node, part := range parts {
		if part != nil {
			out[r.nodes[node]] = part
		}
	}
	return out
}
