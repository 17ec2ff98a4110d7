package router

// Membership changes as a router-orchestrated transaction. POSTing a
// new -ingest list to /v1/admin/membership runs, in order:
//
//  1. Ring swap — the new list becomes the next ring epoch under the
//     write half of ringMu, so every in-flight observe finishes
//     against the old ring first and no later row can reach a removed
//     node or its queue.
//  2. Queue teardown + requeue — removed nodes' redelivery queues are
//     stopped (workers joined, so no redelivery lands on a removed
//     node after this point) and their undelivered backlogs are
//     re-partitioned through the new ring into the surviving queues.
//  3. Slice hand-off — each removed node's ring successor (the node
//     inheriting the largest share of its keyspace) is told to pull
//     and absorb the removed node's /v1/summary, so the removed
//     node's accepted rows stay in exactly one live export.
//  4. Aggregator retarget — every aggregator's pull sources are
//     updated (add the new nodes, remove the departed ones, dropping
//     the departed nodes' directly-absorbed state in the same step to
//     avoid counting a handed-off slice twice).
//
// Steps 3 and 4 talk to other processes and can fail independently;
// the response reports each outcome and the overall status is 502 if
// any failed. Re-POSTing the same list is a no-op (the ring already
// matches), so a failed hand-off is retried directly against the
// successor's /v1/admin/handoff — the report names the pair, and
// hand-off is idempotent (absorb replaces, never accumulates).
//
// A removed node must still be reachable for its hand-off: clean
// decommission works in one POST; for a crashed node the hand-off
// fails and is re-issued when (if) the node's durable store is
// brought back up. Until then the cluster under-counts the dead
// node's slice — exactly the rows only that node's WAL holds.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/cluster"
	"repro/internal/node"
	"repro/internal/words"
)

// MembershipRequest is the POST /v1/admin/membership body: the full
// new ingest membership (not a delta).
type MembershipRequest struct {
	Ingest []string `json:"ingest"`
}

// HandoffReport is one removed node's hand-off outcome.
type HandoffReport struct {
	// From is the removed node, To its ring successor doing the absorb.
	From string `json:"from"`
	To   string `json:"to"`
	// Rows counts every row of the removed node's export, its own
	// sources included, as the successor installed it.
	Rows int64 `json:"rows,omitempty"`
	// Share is the fraction of From's keyspace that To inherited (why
	// it was chosen).
	Share float64 `json:"share"`
	Error string  `json:"error,omitempty"`
}

// SourceUpdateReport is one aggregator's pull-source retarget outcome.
type SourceUpdateReport struct {
	Aggregator string `json:"aggregator"`
	// Sources is the aggregator's pull list after the update.
	Sources []string `json:"sources,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// MembershipResponse reports the whole transaction.
type MembershipResponse struct {
	Unchanged bool     `json:"unchanged,omitempty"`
	FromEpoch uint64   `json:"from_epoch"`
	ToEpoch   uint64   `json:"to_epoch"`
	Added     []string `json:"added,omitempty"`
	Removed   []string `json:"removed,omitempty"`
	// RequeuedRows counts removed nodes' backlog rows re-partitioned
	// into surviving queues; RequeueShedRows the ones lost to full
	// queues (they were accepted earlier, so shedding here is reported
	// loudly — the response is the only record).
	RequeuedRows    int                  `json:"requeued_rows,omitempty"`
	RequeueShedRows int                  `json:"requeue_shed_rows,omitempty"`
	Handoffs        []HandoffReport      `json:"handoffs,omitempty"`
	SourceUpdates   []SourceUpdateReport `json:"source_updates,omitempty"`
}

func (r *Router) handleAdminMembership(w http.ResponseWriter, req *http.Request) {
	var body MembershipRequest
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		node.HTTPError(w, http.StatusBadRequest, fmt.Errorf("decoding membership: %w", err))
		return
	}
	urls := normalize(body.Ingest)
	if len(urls) == 0 {
		node.HTTPError(w, http.StatusBadRequest, errors.New("empty ingest membership"))
		return
	}

	r.membershipMu.Lock()
	defer r.membershipMu.Unlock()

	r.ringMu.RLock()
	cur := r.ring
	r.ringMu.RUnlock()

	next, err := cluster.NewRingEpoch(urls, cur.Epoch()+1)
	if err != nil {
		node.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	diff := cur.Diff(next)
	resp := MembershipResponse{
		FromEpoch: diff.FromEpoch,
		ToEpoch:   diff.ToEpoch,
		Added:     diff.Added,
		Removed:   diff.Removed,
	}
	if !diff.Changed() {
		resp.Unchanged = true
		resp.ToEpoch = cur.Epoch()
		node.WriteJSON(w, http.StatusOK, resp)
		return
	}

	// Step 1+2a: swap the ring and the queue set atomically. After
	// Unlock, observes partition by the new ring only, and the removed
	// queues are no longer reachable from the observe path.
	var removedQueues []*retryQueue
	r.ringMu.Lock()
	r.ring = next
	for _, n := range diff.Added {
		r.queues[n] = r.newQueue(n)
	}
	for _, n := range diff.Removed {
		if q := r.queues[n]; q != nil {
			removedQueues = append(removedQueues, q)
			delete(r.queues, n)
		}
	}
	r.ringMu.Unlock()

	// Step 2b: join the removed queues' workers — from here on nothing
	// the router does sends another byte to a removed node, which is
	// what makes the hand-off pull below a complete snapshot — and
	// push their backlogs through the new ring.
	for _, q := range removedQueues {
		for _, b := range q.close() {
			requeued, shed := r.requeue(b)
			resp.RequeuedRows += requeued
			resp.RequeueShedRows += shed
		}
	}

	// Step 3: hand each removed node's slice to its ring successor.
	failed := false
	for _, gone := range diff.Removed {
		rep := HandoffReport{From: gone, To: diff.Successors[gone]}
		for _, m := range diff.Moved {
			if m.From == gone && m.To == rep.To {
				rep.Share = m.Share
			}
		}
		var out node.HandoffResponse
		if err := r.postJSON(rep.To+"/v1/admin/handoff", node.HandoffRequest{Source: gone}, &out); err != nil {
			rep.Error = err.Error()
			failed = true
		} else {
			rep.Rows = out.Rows
		}
		resp.Handoffs = append(resp.Handoffs, rep)
	}

	// Step 4: retarget every aggregator's pull sources.
	for _, agg := range r.aggs {
		rep := SourceUpdateReport{Aggregator: agg}
		var out node.SourcesResponse
		err := r.postJSON(agg+"/v1/admin/sources",
			node.SourcesRequest{Add: diff.Added, Remove: diff.Removed}, &out)
		if err != nil {
			rep.Error = err.Error()
			failed = true
		} else {
			rep.Sources = out.Sources
		}
		resp.SourceUpdates = append(resp.SourceUpdates, rep)
	}

	status := http.StatusOK
	if failed {
		status = http.StatusBadGateway
	}
	node.WriteJSON(w, status, resp)
}

// requeue partitions one backlog batch by the current ring and
// enqueues the parts, returning (requeued, shed) row counts.
func (r *Router) requeue(b *words.Batch) (int, int) {
	r.ringMu.RLock()
	parts := r.ring.PartitionBatch(b)
	queues := r.queues
	r.ringMu.RUnlock()
	requeued, shed := 0, 0
	for node, part := range parts {
		if q := queues[node]; q != nil && q.enqueue(part) {
			requeued += part.Len()
		} else {
			shed += part.Len()
		}
	}
	return requeued, shed
}

// postJSON POSTs a JSON body and decodes a JSON answer, folding
// non-2xx statuses into the error.
func (r *Router) postJSON(url string, in, out any) error {
	blob, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := r.client.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return fmt.Errorf("%s: decoding answer: %w", url, err)
		}
	}
	return nil
}
