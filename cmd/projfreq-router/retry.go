// The router's redelivery layer: one bounded in-memory queue per
// ingest node holding sub-batches whose forward failed retryably. A
// per-queue worker redelivers with exponential backoff plus jitter
// until the node acks, the batch proves undeliverable (the node
// rejects it outright), or the router shuts down.
//
// The queue is what makes a transient node outage a two-level ack
// instead of a failed batch: rows the router queues are "accepted" (the
// router owns redelivery) but not yet "routed" (durably acked by the
// owning node). The bound is the backpressure contract — when a
// node's queue is full its further slices are shed with 503 and the
// client owns the retry, so a long outage surfaces as visible
// backpressure instead of unbounded router memory.
//
// Delivery is at-least-once in one corner: if a node ingests a batch
// but its ack is lost (connection severed between apply and response),
// redelivery double-counts that batch. The daemons keep no dedup
// state, so the chaos harness constrains its faults to whole-request
// blackholes and crashes, and the limitation is documented in
// ARCHITECTURE.md.
package main

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/words"
)

// queuedBatch is one sub-batch awaiting redelivery.
type queuedBatch struct {
	batch *words.Batch
	at    time.Time // enqueue time, for the stats age gauge
}

// queueStats are one retry queue's lifetime counters plus its current
// depth, reported on /v1/router/stats. Row counts, not batch counts:
// the bound and the shed accounting are about memory and client rows.
type queueStats struct {
	Node string `json:"node"`
	// DepthRows and DepthBatches gauge the queue right now.
	DepthRows    int `json:"depth_rows"`
	DepthBatches int `json:"depth_batches"`
	// OldestAgeMS is the age of the oldest queued batch (0 when empty).
	OldestAgeMS float64 `json:"oldest_age_ms"`
	// CapRows is the configured bound.
	CapRows int `json:"cap_rows"`
	// Enqueued counts rows ever queued; Delivered rows redelivered and
	// acked; Shed rows refused because the queue was full; Rejected
	// rows dropped because the node answered a terminal 4xx during
	// redelivery (they can never succeed).
	Enqueued  int64 `json:"enqueued"`
	Delivered int64 `json:"delivered"`
	Shed      int64 `json:"shed"`
	Rejected  int64 `json:"rejected"`
	// Attempts counts redelivery POSTs; Failures the retryable ones
	// that failed (each schedules a backoff).
	Attempts int64 `json:"attempts"`
	Failures int64 `json:"failures"`
	// LastError is the most recent redelivery failure, cleared by the
	// next success.
	LastError string `json:"last_error,omitempty"`
}

// deliverFunc posts one batch to one node and classifies the outcome;
// see router.deliverBatch.
type deliverFunc func(node string, b *words.Batch) deliverResult

// deliverResult classifies one delivery attempt.
type deliverResult struct {
	ok       bool
	terminal bool // a 4xx: retrying the same bytes can never succeed
	err      error
}

// retryQueue owns redelivery for one node.
type retryQueue struct {
	node    string
	capRows int
	base    time.Duration // first backoff
	max     time.Duration // backoff ceiling
	deliver deliverFunc

	mu    sync.Mutex
	items []queuedBatch
	rows  int
	stats queueStats

	wake chan struct{} // 1-buffered enqueue signal
	stop chan struct{}
	done chan struct{}
}

// newRetryQueue builds and starts one node's queue worker.
func newRetryQueue(node string, capRows int, base, max time.Duration, deliver deliverFunc) *retryQueue {
	q := &retryQueue{
		node:    node,
		capRows: capRows,
		base:    base,
		max:     max,
		deliver: deliver,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	q.stats.Node = node
	q.stats.CapRows = capRows
	go q.run()
	return q
}

// enqueue accepts b for redelivery unless it would push the queue past
// its row bound; the caller sheds (503) on false. The batch must not
// be reused by the caller afterwards.
func (q *retryQueue) enqueue(b *words.Batch) bool {
	q.mu.Lock()
	if q.rows+b.Len() > q.capRows {
		q.stats.Shed += int64(b.Len())
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, queuedBatch{batch: b, at: time.Now()})
	q.rows += b.Len()
	q.stats.Enqueued += int64(b.Len())
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return true
}

// snapshot reads the stats gauge.
func (q *retryQueue) snapshot() queueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.stats
	st.DepthRows = q.rows
	st.DepthBatches = len(q.items)
	if len(q.items) > 0 {
		st.OldestAgeMS = float64(time.Since(q.items[0].at)) / float64(time.Millisecond)
	}
	return st
}

// close stops the worker and returns the undelivered batches (used by
// membership changes to requeue a removed node's backlog through the
// new ring). Safe to call once.
func (q *retryQueue) close() []*words.Batch {
	close(q.stop)
	<-q.done
	q.mu.Lock()
	defer q.mu.Unlock()
	left := make([]*words.Batch, 0, len(q.items))
	for _, it := range q.items {
		left = append(left, it.batch)
	}
	q.items = nil
	q.rows = 0
	return left
}

// run is the redelivery loop: deliver the head batch; on success pop
// it and immediately try the next (a healed node drains at line rate);
// on retryable failure sleep an exponentially growing, jittered
// backoff; on terminal rejection drop the batch — it can never
// succeed and would wedge the queue behind it.
func (q *retryQueue) run() {
	defer close(q.done)
	backoff := q.base
	for {
		q.mu.Lock()
		var head *words.Batch
		if len(q.items) > 0 {
			head = q.items[0].batch
		}
		q.mu.Unlock()

		if head == nil {
			select {
			case <-q.stop:
				return
			case <-q.wake:
			}
			continue
		}

		res := q.deliver(q.node, head)
		q.mu.Lock()
		q.stats.Attempts++
		switch {
		case res.ok:
			q.popLocked()
			q.stats.Delivered += int64(head.Len())
			q.stats.LastError = ""
			backoff = q.base
		case res.terminal:
			q.popLocked()
			q.stats.Rejected += int64(head.Len())
			q.stats.Failures++
			q.stats.LastError = res.err.Error()
			backoff = q.base
		default:
			q.stats.Failures++
			q.stats.LastError = res.err.Error()
		}
		retryable := !res.ok && !res.terminal
		q.mu.Unlock()

		if !retryable {
			// Progress was made (either direction); check stop between
			// batches so close() never waits behind a healthy drain.
			select {
			case <-q.stop:
				return
			default:
			}
			continue
		}
		// Full jitter on the current backoff step keeps a fleet of
		// routers (or queues) from synchronizing their retries against
		// a recovering node.
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-q.stop:
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > q.max {
			backoff = q.max
		}
	}
}

// popLocked removes the head batch; callers hold mu.
func (q *retryQueue) popLocked() {
	head := q.items[0]
	q.items = q.items[1:]
	q.rows -= head.batch.Len()
}
