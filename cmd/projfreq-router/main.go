// Command projfreq-router is the client-facing front of a two-tier
// projfreq cluster. Writers POST row batches to its /v1/observe; the
// router consistent-hashes every row to one of the ingest daemons
// (-ingest) and forwards the per-node sub-batches concurrently.
// Readers hit /v1/query or /v1/summary; the router proxies them to a
// health-checked aggregator (-aggregators), preferring ones whose
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
// Usage:
//
//	projfreq-router -addr :8090 \
//	    -ingest http://n1:8080,http://n2:8080 \
//	    -aggregators http://agg:8081
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
// -ingest list as the next ring epoch, requeues removed nodes'
// backlogs through the new ring, orchestrates slice hand-off
// (each removed node's summary absorbed by its ring successor), and
// retargets the aggregators' pull sources — see membership.go.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/words"
)

// defaultMaxBody matches projfreqd's request-body bound.
const defaultMaxBody = 1 << 28

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "projfreq-router:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		portfile = flag.String("portfile", "", "write the bound listen address to this file (for harnesses that spawn with :0)")
		ingest   = flag.String("ingest", "", "comma-separated ingest daemon base URLs (required)")
		aggs     = flag.String("aggregators", "", "comma-separated aggregator base URLs (required)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-upstream HTTP timeout")

		retryRows = flag.Int("retry-queue-rows", 1<<16, "per-node redelivery queue bound in rows (at least 1)")
		retryBase = flag.Duration("retry-base", 50*time.Millisecond, "initial redelivery backoff")
		retryMax  = flag.Duration("retry-max", 5*time.Second, "redelivery backoff ceiling")

		healthEvery = flag.Duration("health-interval", time.Second, "aggregator health probe interval (0 disables the probe loop)")
		healthN     = flag.Int("health-threshold", 3, "consecutive failed checks before an aggregator is ejected")
	)
	flag.Parse()
	if *ingest == "" || *aggs == "" {
		return errors.New("both -ingest and -aggregators are required")
	}
	r, err := newRouter(strings.Split(*ingest, ","), strings.Split(*aggs, ","), routerConfig{
		timeout:         *timeout,
		retryCapRows:    *retryRows,
		retryBase:       *retryBase,
		retryMax:        *retryMax,
		healthInterval:  *healthEvery,
		healthThreshold: *healthN,
	})
	if err != nil {
		return err
	}
	defer r.Close()

	httpSrv := &http.Server{
		Handler:           r,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	// Listen before writing the portfile so a harness that polls the
	// file never sees an address nothing is bound to yet.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *portfile != "" {
		if err := store.WriteFileAtomic(*portfile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing portfile: %w", err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("projfreq-router: %d ingest nodes, %d aggregators, serving on %s",
		len(r.ingestNodes()), len(r.aggs), ln.Addr())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		return httpSrv.Shutdown(sctx)
	}
}

// routerConfig collects the router's tunables so tests can build
// routers with small queues and fast backoffs.
type routerConfig struct {
	timeout time.Duration
	// retryCapRows bounds each node's redelivery queue; at least 1.
	retryCapRows int
	retryBase    time.Duration
	retryMax     time.Duration
	// healthInterval runs the aggregator probe loop; 0 disables it
	// (proxy outcomes still drive ejection).
	healthInterval  time.Duration
	healthThreshold int
}

// withDefaults fills zero-valued backoffs.
func (c routerConfig) withDefaults() routerConfig {
	if c.retryBase <= 0 {
		c.retryBase = 50 * time.Millisecond
	}
	if c.retryMax < c.retryBase {
		c.retryMax = 5 * time.Second
	}
	if c.healthThreshold < 1 {
		c.healthThreshold = 3
	}
	return c
}

// router fronts the cluster: a swappable consistent-hash ring over
// the ingest tier, one redelivery queue per ingest node, and a
// health-checked aggregator list for reads.
type router struct {
	aggs   []string
	client *http.Client
	mux    *http.ServeMux
	cfg    routerConfig
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
	stats map[string]*nodeStats
}

// nodeStats counts one upstream's forwards.
type nodeStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
}

func newRouter(ingest, aggs []string, cfg routerConfig) (*router, error) {
	cfg = cfg.withDefaults()
	if cfg.retryCapRows < 1 {
		return nil, fmt.Errorf("-retry-queue-rows must be at least 1, got %d", cfg.retryCapRows)
	}
	ring, err := cluster.NewRing(normalize(ingest))
	if err != nil {
		return nil, fmt.Errorf("ingest tier: %w", err)
	}
	a := normalize(aggs)
	if len(a) == 0 {
		return nil, errors.New("aggregator tier: no nodes")
	}
	sort.Strings(a)
	r := &router{
		ring:   ring,
		queues: make(map[string]*retryQueue, ring.Len()),
		aggs:   a,
		client: &http.Client{Timeout: cfg.timeout},
		mux:    http.NewServeMux(),
		cfg:    cfg,
		stats:  make(map[string]*nodeStats),
	}
	r.health = newHealthChecker(a, cfg.healthThreshold, r.client)
	r.health.start(cfg.healthInterval)
	for _, n := range ring.Nodes() {
		r.queues[n] = r.newQueue(n)
	}
	for _, n := range append(ring.Nodes(), a...) {
		if r.stats[n] == nil {
			r.stats[n] = &nodeStats{}
		}
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
func (r *router) newQueue(node string) *retryQueue {
	return newRetryQueue(node, r.cfg.retryCapRows, r.cfg.retryBase, r.cfg.retryMax,
		func(n string, b *words.Batch) deliverResult {
			_, res := r.postObserve(n, b)
			return res
		})
}

// Close stops the queue workers and the health probe loop. Queued
// batches are dropped — router redelivery state is soft by design.
func (r *router) Close() {
	r.health.stopProbes()
	r.ringMu.Lock()
	queues := r.queues
	r.queues = map[string]*retryQueue{}
	r.ringMu.Unlock()
	for _, q := range queues {
		q.close()
	}
}

// ingestNodes reads the current ring membership.
func (r *router) ingestNodes() []string {
	r.ringMu.RLock()
	defer r.ringMu.RUnlock()
	return r.ring.Nodes()
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

func (r *router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	req.Body = http.MaxBytesReader(w, req.Body, defaultMaxBody)
	r.mux.ServeHTTP(w, req)
}

func (r *router) count(node string, failed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats[node]
	if st == nil {
		st = &nodeStats{}
		r.stats[node] = st
	}
	st.Requests++
	if failed {
		st.Errors++
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// nodeResult is one ingest node's outcome for its slice of a batch.
// Routed rows were acked by the node; Queued rows await redelivery in
// the router (Accepted = Routed + Queued); Shed rows were refused
// because the node's queue is full — the client owns retrying those,
// and only those. Error is set for shed slices and terminal failures.
type nodeResult struct {
	Node     string `json:"node"`
	Rows     int    `json:"rows"`
	Accepted int    `json:"accepted"`
	Routed   int    `json:"routed"`
	Queued   int    `json:"queued,omitempty"`
	Shed     int    `json:"shed,omitempty"`
	Error    string `json:"error,omitempty"`
}

// observeResponse reports the fan-out's outcome with the two-level
// ack totals. Status mapping: 503 when any rows were shed
// (backpressure — retry the shed slices later); 502 when a node
// refused a slice terminally (4xx); 200 otherwise, even if some rows
// are only queued.
type observeResponse struct {
	Rows     int          `json:"rows"`
	Accepted int          `json:"accepted"`
	Routed   int          `json:"routed"`
	Queued   int          `json:"queued,omitempty"`
	Shed     int          `json:"shed,omitempty"`
	Partial  bool         `json:"partial,omitempty"`
	Results  []nodeResult `json:"results"`
}

func (r *router) handleObserve(w http.ResponseWriter, req *http.Request) {
	// The router is shape-agnostic: it takes the dimension from the
	// batch itself and passes every symbol (symbol validation stays
	// with the ingest daemons, which know the alphabet). The decoder
	// only insists the batch is non-empty and rectangular — a ragged
	// batch cannot be partitioned coherently.
	dec := observePool.Get().(*wire.ObserveDecoder)
	defer observePool.Put(dec)
	batch, err := dec.Decode(req.Body, 0, wire.AnySymbol)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, err)
		return
	}

	// The read lock pins the ring and the queue set for the whole
	// fan-out: a concurrent membership change waits for us, so our
	// sub-batches can neither land on a node after its hand-off nor be
	// enqueued to a queue being torn down.
	r.ringMu.RLock()
	parts := r.ring.PartitionBatch(batch)
	results := make([]nodeResult, 0, len(parts))
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

	resp := observeResponse{Rows: batch.Len(), Results: results}
	for _, res := range results {
		resp.Accepted += res.Accepted
		resp.Routed += res.Routed
		resp.Queued += res.Queued
		resp.Shed += res.Shed
		if res.Error != "" {
			resp.Partial = true
		}
	}
	w.Header().Set("Content-Type", "application/json")
	switch {
	case resp.Shed > 0:
		// Backpressure: the overloaded node's queue is full. The client
		// retries the shed slices once the queue drains.
		w.WriteHeader(http.StatusServiceUnavailable)
	case resp.Partial:
		// A node refused its slice (4xx): it will never be delivered by
		// the router. 502, not 500: the router did its job; the batch
		// itself did not pass the node.
		w.WriteHeader(http.StatusBadGateway)
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// forwardObserve ships one node's sub-batch to its /v1/observe,
// falling back to that node's redelivery queue on retryable failure.
// Callers hold ringMu.RLock.
func (r *router) forwardObserve(node string, part *words.Batch) nodeResult {
	res := nodeResult{Node: node, Rows: part.Len()}
	accepted, out := r.postObserve(node, part)
	r.count(node, !out.ok)
	switch {
	case out.ok:
		res.Routed = accepted
		res.Accepted = accepted
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
				r.cfg.retryCapRows, out.err)
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
func (r *router) postObserve(node string, part *words.Batch) (int, deliverResult) {
	blob := wire.AppendObserve(nil, part)
	resp, err := r.client.Post(node+"/v1/observe", "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, deliverResult{err: err}
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(out)))
		terminal := resp.StatusCode >= 400 && resp.StatusCode < 500
		return 0, deliverResult{terminal: terminal, err: err}
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	accepted := part.Len()
	if err := json.Unmarshal(out, &ack); err == nil && ack.Accepted > 0 {
		accepted = ack.Accepted
	}
	return accepted, deliverResult{ok: true}
}

// proxyToAggregator forwards a read (/v1/query, /v1/summary) to an
// aggregator in health order — healthy ones first, ejected ones as a
// last resort — failing over on transport errors. Upstream HTTP
// statuses (including 304 for conditional summary GETs) pass through
// verbatim; every outcome feeds the health tracker.
func (r *router) proxyToAggregator(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var lastErr error
	for _, agg := range r.health.pick() {
		out, err := http.NewRequest(req.Method, agg+req.URL.Path, bytes.NewReader(body))
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
	httpError(w, http.StatusBadGateway, fmt.Errorf("no aggregator reachable: %w", lastErr))
}

// statsResponse is the router's legacy /v1/stats body (kept so the
// cluster harness can health-poll every tier the same way).
type statsResponse struct {
	Role        string                `json:"role"`
	Ingest      []string              `json:"ingest"`
	Aggregators []string              `json:"aggregators"`
	Nodes       map[string]*nodeStats `json:"nodes"`
}

func (r *router) handleStats(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	nodes := make(map[string]*nodeStats, len(r.stats))
	for k, v := range r.stats {
		cp := *v
		nodes[k] = &cp
	}
	r.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(statsResponse{
		Role:        "router",
		Ingest:      r.ingestNodes(),
		Aggregators: r.aggs,
		Nodes:       nodes,
	})
}

// routerStatsResponse is the fault-tolerance view: ring epoch, queue
// depths and shed counters per ingest node, aggregator health.
type routerStatsResponse struct {
	Role        string       `json:"role"`
	Epoch       uint64       `json:"epoch"`
	Ingest      []string     `json:"ingest"`
	Queues      []queueStats `json:"queues,omitempty"`
	Aggregators []aggHealth  `json:"aggregators"`
}

func (r *router) handleRouterStats(w http.ResponseWriter, req *http.Request) {
	r.ringMu.RLock()
	resp := routerStatsResponse{
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
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
