// Package router is projfreq-router as a library: the client-facing
// front of a two-tier projfreq cluster. New builds one from a Config,
// and cmd/projfreq-router, the tests and the in-process cluster all
// call it. Writers POST row batches to its /v1/observe; the router
// consistent-hashes every row to one of the ingest daemons
// (Config.Ingest) and forwards the per-node sub-batches concurrently.
// Readers hit /v1/query or /v1/summary; the router proxies them to a
// health-checked aggregator (Config.Aggregators), preferring ones whose
// recent probes succeeded and failing over across the rest.
//
// The split mirrors the paper's aggregation model: ingest nodes
// summarize disjoint row slices (the ring keeps them disjoint),
// aggregators merge the per-node summaries, and mergeability makes
// the merged answer identical to a single process that saw every row.
// The router keeps no rows, summaries, or WAL — its only state is the
// bounded redelivery queue per ingest node (see retry.go), which is
// soft: a restarted router forgets queued batches, and the two-level
// ack tells clients exactly which rows were only queued.
//
// Acks are two-level. "routed" rows were durably acked by their
// ingest node; "queued" rows failed their first delivery retryably
// and sit in that node's redelivery queue (accepted = routed +
// queued). When a node's queue is full its further slices are shed
// and the response is a 503 — the client owns retrying exactly the
// shed slices (rows are hashed by content, so a retried slice
// re-routes identically). A 502 means only that a node refused its
// slice outright (4xx): the router will never deliver it.
//
// Membership is versioned: POST /v1/admin/membership swaps in a new
// ingest list as the next ring epoch, requeues removed nodes'
// backlogs through the new ring, orchestrates slice hand-off
// (each removed node's summary absorbed by its ring successor), and
// retargets the aggregators' pull sources — see membership.go.
package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/node"
	"repro/internal/wire"
	"repro/internal/words"
)

// Config is one router's configuration. Each field is the
// projfreq-router flag named beside it; the flags' defaults live in
// cmd/projfreq-router.
type Config struct {
	Ingest      []string      // -ingest: ingest daemon base URLs (required)
	Aggregators []string      // -aggregators: aggregator base URLs (required)
	Timeout     time.Duration // -timeout: per-upstream HTTP timeout

	RetryQueueRows int           // -retry-queue-rows: per-node redelivery queue bound, at least 1
	RetryBase      time.Duration // -retry-base: initial redelivery backoff (0 = 50ms)
	RetryMax       time.Duration // -retry-max: backoff ceiling (0 = 5s), at least RetryBase

	// HealthInterval runs the aggregator probe loop; 0 disables it
	// (proxy outcomes still drive ejection).
	HealthInterval  time.Duration // -health-interval
	HealthThreshold int           // -health-threshold (0 = 3)
}

// Router fronts the cluster: a swappable consistent-hash ring over
// the ingest tier, one redelivery queue per ingest node, and a
// health-checked aggregator list for reads.
type Router struct {
	aggs   []string
	client *http.Client
	mux    *http.ServeMux
	cfg    Config
	health *healthChecker

	// ringMu orders observes against membership swaps: observes hold
	// the read lock across partition+forward+enqueue, a membership
	// change holds the write lock while swapping ring and queue set.
	// So once the swap returns, no in-flight batch can still reach a
	// removed node or its queue — which is what makes the subsequent
	// hand-off a complete picture of that node's slice.
	ringMu sync.RWMutex
	ring   *cluster.Ring
	queues map[string]*retryQueue

	// membershipMu serializes /v1/admin/membership end to end (swap,
	// requeue, hand-off, source updates are one transaction).
	membershipMu sync.Mutex

	mu    sync.Mutex
	stats map[string]*NodeStats
}

// NodeStats counts one upstream's forwards.
type NodeStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
}

// New builds a router over cfg and starts its queue workers and
// health probe loop; Close stops them. Zero backoffs and a zero health
// threshold take their defaults; a queue bound below 1 or a backoff
// ceiling below the first backoff step is refused.
func New(cfg Config) (*Router, error) {
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 5 * time.Second
	}
	if cfg.HealthThreshold < 1 {
		cfg.HealthThreshold = 3
	}
	if cfg.RetryQueueRows < 1 {
		return nil, fmt.Errorf("-retry-queue-rows must be at least 1, got %d", cfg.RetryQueueRows)
	}
	if cfg.RetryMax < cfg.RetryBase {
		// A ceiling below the first step would shrink the backoff on the
		// first failure instead of growing it.
		return nil, fmt.Errorf("-retry-max %v is below -retry-base %v: the backoff ceiling must be at least its first step",
			cfg.RetryMax, cfg.RetryBase)
	}
	ring, err := cluster.NewRing(normalize(cfg.Ingest))
	if err != nil {
		return nil, fmt.Errorf("ingest tier: %w", err)
	}
	a := normalize(cfg.Aggregators)
	if len(a) == 0 {
		return nil, errors.New("aggregator tier: no nodes")
	}
	sort.Strings(a)
	r := &Router{
		ring:   ring,
		queues: make(map[string]*retryQueue, ring.Len()),
		aggs:   a,
		client: &http.Client{Timeout: cfg.Timeout},
		mux:    http.NewServeMux(),
		cfg:    cfg,
		stats:  make(map[string]*NodeStats),
	}
	r.health = newHealthChecker(a, cfg.HealthThreshold, r.client)
	r.health.start(cfg.HealthInterval)
	for _, n := range ring.Nodes() {
		r.queues[n] = r.newQueue(n)
	}
	for _, n := range append(ring.Nodes(), a...) {
		r.stats[n] = &NodeStats{}
	}
	r.mux.HandleFunc("POST /v1/observe", r.handleObserve)
	r.mux.HandleFunc("POST /v1/query", r.proxyToAggregator)
	r.mux.HandleFunc("GET /v1/summary", r.proxyToAggregator)
	r.mux.HandleFunc("GET /v1/stats", r.handleStats)
	r.mux.HandleFunc("GET /v1/router/stats", r.handleRouterStats)
	r.mux.HandleFunc("POST /v1/admin/membership", r.handleAdminMembership)
	return r, nil
}

// observePool recycles /v1/observe decode state across requests
// (PartitionBatch copies the rows, so nothing decoded outlives one).
var observePool = sync.Pool{New: func() interface{} { return new(wire.ObserveDecoder) }}

// newQueue builds one node's redelivery queue wired to the router's
// forwarding client.
func (r *Router) newQueue(node string) *retryQueue {
	return newRetryQueue(node, r.cfg.RetryQueueRows, r.cfg.RetryBase, r.cfg.RetryMax, r.postObserve)
}

// Close stops the queue workers and the health probe loop. Queued
// batches are dropped — router redelivery state is soft by design.
func (r *Router) Close() error {
	r.health.stopProbes()
	r.ringMu.Lock()
	queues := r.queues
	r.queues = map[string]*retryQueue{}
	r.ringMu.Unlock()
	for _, q := range queues {
		q.close()
	}
	return nil
}

// normalize trims and deduplicates upstream URLs.
func normalize(urls []string) []string {
	seen := make(map[string]bool, len(urls))
	out := make([]string, 0, len(urls))
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" && !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	req.Body = http.MaxBytesReader(w, req.Body, node.MaxBody)
	r.mux.ServeHTTP(w, req)
}

func (r *Router) count(node string, failed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats[node]
	if st == nil {
		st = &NodeStats{}
		r.stats[node] = st
	}
	st.Requests++
	if failed {
		st.Errors++
	}
}

// NodeResult is one ingest node's outcome for its slice of a batch.
// Routed rows were acked by the node; Queued rows await redelivery in
// the router (Accepted = Routed + Queued); Shed rows were refused
// because the node's queue is full — the client owns retrying those,
// and only those. Error is set for shed slices and terminal failures.
type NodeResult struct {
	Node     string `json:"node"`
	Rows     int    `json:"rows"`
	Accepted int    `json:"accepted"`
	Routed   int    `json:"routed"`
	Queued   int    `json:"queued,omitempty"`
	Shed     int    `json:"shed,omitempty"`
	Error    string `json:"error,omitempty"`
}

// ObserveResponse reports the fan-out's outcome with the two-level
// ack totals. Status mapping: 503 when any rows were shed
// (backpressure — retry the shed slices later); 502 when a node
// refused a slice terminally (4xx); 200 otherwise, even if some rows
// are only queued.
type ObserveResponse struct {
	Rows     int          `json:"rows"`
	Accepted int          `json:"accepted"`
	Routed   int          `json:"routed"`
	Queued   int          `json:"queued,omitempty"`
	Shed     int          `json:"shed,omitempty"`
	Partial  bool         `json:"partial,omitempty"`
	Results  []NodeResult `json:"results"`
}

func (r *Router) handleObserve(w http.ResponseWriter, req *http.Request) {
	// The router is shape-agnostic: it takes the dimension from the
	// batch itself and passes every symbol (symbol validation stays
	// with the ingest daemons, which know the alphabet). The decoder
	// only insists the batch is non-empty and rectangular — a ragged
	// batch cannot be partitioned coherently.
	dec := observePool.Get().(*wire.ObserveDecoder)
	defer observePool.Put(dec)
	batch, err := dec.Decode(req.Body, 0, wire.AnySymbol)
	if err != nil {
		node.BodyError(w, err)
		return
	}

	// The read lock pins the ring and the queue set for the whole
	// fan-out: a concurrent membership change waits for us, so our
	// sub-batches can neither land on a node after its hand-off nor be
	// enqueued to a queue being torn down.
	r.ringMu.RLock()
	parts := r.ring.PartitionBatch(batch)
	results := make([]NodeResult, 0, len(parts))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for node, part := range parts {
		wg.Add(1)
		go func(node string, part *words.Batch) {
			defer wg.Done()
			res := r.forwardObserve(node, part)
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}(node, part)
	}
	wg.Wait()
	r.ringMu.RUnlock()
	sort.Slice(results, func(i, j int) bool { return results[i].Node < results[j].Node })

	resp := ObserveResponse{Rows: batch.Len(), Results: results}
	for _, res := range results {
		resp.Accepted += res.Accepted
		resp.Routed += res.Routed
		resp.Queued += res.Queued
		resp.Shed += res.Shed
		if res.Error != "" {
			resp.Partial = true
		}
	}
	status := http.StatusOK
	switch {
	case resp.Shed > 0:
		// Backpressure: the overloaded node's queue is full. The client
		// retries the shed slices once the queue drains.
		status = http.StatusServiceUnavailable
	case resp.Partial:
		// A node refused its slice (4xx): it will never be delivered by
		// the router. 502, not 500: the router did its job; the batch
		// itself did not pass the node.
		status = http.StatusBadGateway
	}
	node.WriteJSON(w, status, resp)
}

// forwardObserve ships one node's sub-batch to its /v1/observe,
// falling back to that node's redelivery queue on retryable failure.
// Callers hold ringMu.RLock.
func (r *Router) forwardObserve(node string, part *words.Batch) NodeResult {
	res := NodeResult{Node: node, Rows: part.Len()}
	out := r.postObserve(node, part)
	r.count(node, !out.ok)
	switch {
	case out.ok:
		res.Routed = out.accepted
		res.Accepted = out.accepted
	case out.terminal:
		// The node rejected the slice (4xx): redelivering the same bytes
		// can never succeed, so this is the client's error to hear about.
		res.Error = out.err.Error()
	default:
		q := r.queues[node]
		if q == nil {
			// Only a request still in flight when Close emptied the
			// queue set gets here: a node in the ring has a queue.
			res.Error = out.err.Error()
		} else if q.enqueue(part) {
			res.Queued = part.Len()
			res.Accepted = part.Len()
		} else {
			res.Shed = part.Len()
			res.Error = fmt.Sprintf("redelivery queue full (cap %d rows); slice shed after: %v",
				r.cfg.RetryQueueRows, out.err)
		}
	}
	return res
}

// postObserve POSTs one sub-batch to one node and classifies the
// outcome: ok (node acked), terminal (node answered 4xx — the same
// bytes can never succeed), or retryable (transport error, timeout,
// or 5xx). Shared by the first-attempt path and queue redelivery
// (which is also where a membership change's requeued backlog goes
// out).
func (r *Router) postObserve(to string, part *words.Batch) deliverResult {
	blob := wire.AppendObserve(nil, part)
	resp, err := r.client.Post(to+"/v1/observe", "application/json", bytes.NewReader(blob))
	if err != nil {
		return deliverResult{err: err}
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(out)))
		terminal := resp.StatusCode >= 400 && resp.StatusCode < 500
		return deliverResult{terminal: terminal, err: err}
	}
	res := deliverResult{ok: true, accepted: part.Len()}
	var ack node.ObserveResponse
	if err := json.Unmarshal(out, &ack); err == nil && ack.Accepted > 0 {
		res.accepted = ack.Accepted
	}
	return res
}

// proxyToAggregator forwards a read (/v1/query, /v1/summary) to an
// aggregator in health order — healthy ones first, ejected ones as a
// last resort — failing over on transport errors. The query string
// (a summary long-poll's ?wait=) and the caller's context go with it,
// so a held upstream GET ends when the caller leaves. Upstream HTTP
// statuses (including 304 for conditional summary GETs) pass through
// verbatim; every outcome but the caller's own departure feeds the
// health tracker.
func (r *Router) proxyToAggregator(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		node.HTTPError(w, http.StatusBadRequest, err)
		return
	}
	var lastErr error
	for _, agg := range r.health.pick() {
		out, err := http.NewRequestWithContext(req.Context(), req.Method, agg+req.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		// Conditional-GET headers must survive the hop or every summary
		// poll through the router ships a full blob.
		for _, h := range []string{"If-None-Match", "Content-Type", "Accept"} {
			if v := req.Header.Get(h); v != "" {
				out.Header.Set(h, v)
			}
		}
		resp, err := r.client.Do(out)
		if err != nil && req.Context().Err() != nil {
			return // the caller left; the aggregator is not at fault
		}
		if err != nil {
			lastErr = err
			r.count(agg, true)
			r.health.report(agg, false, err)
			continue
		}
		r.count(agg, false)
		r.health.report(agg, true, nil)
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set("X-Routed-To", agg)
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		resp.Body.Close()
		return
	}
	node.HTTPError(w, http.StatusBadGateway, fmt.Errorf("no aggregator reachable: %w", lastErr))
}

// TierStats is the router's legacy /v1/stats body (kept so the
// cluster harness can health-poll every tier the same way).
type TierStats struct {
	Role        string               `json:"role"`
	Ingest      []string             `json:"ingest"`
	Aggregators []string             `json:"aggregators"`
	Nodes       map[string]NodeStats `json:"nodes"`
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	nodes := make(map[string]NodeStats, len(r.stats))
	for k, v := range r.stats {
		nodes[k] = *v
	}
	r.mu.Unlock()
	r.ringMu.RLock()
	ingest := r.ring.Nodes()
	r.ringMu.RUnlock()
	node.WriteJSON(w, http.StatusOK, TierStats{
		Role:        "router",
		Ingest:      ingest,
		Aggregators: r.aggs,
		Nodes:       nodes,
	})
}

// Stats is the /v1/router/stats fault-tolerance view: ring epoch,
// queue depths and shed counters per ingest node, aggregator health.
type Stats struct {
	Role        string       `json:"role"`
	Epoch       uint64       `json:"epoch"`
	Ingest      []string     `json:"ingest"`
	Queues      []QueueStats `json:"queues,omitempty"`
	Aggregators []AggHealth  `json:"aggregators"`
}

func (r *Router) handleRouterStats(w http.ResponseWriter, req *http.Request) {
	r.ringMu.RLock()
	resp := Stats{
		Role:   "router",
		Epoch:  r.ring.Epoch(),
		Ingest: r.ring.Nodes(),
	}
	qs := make([]*retryQueue, 0, len(r.queues))
	for _, q := range r.queues {
		qs = append(qs, q)
	}
	r.ringMu.RUnlock()
	for _, q := range qs {
		resp.Queues = append(resp.Queues, q.snapshot())
	}
	sort.Slice(resp.Queues, func(i, j int) bool { return resp.Queues[i].Node < resp.Queues[j].Node })
	resp.Aggregators = r.health.snapshot()
	node.WriteJSON(w, http.StatusOK, resp)
}
