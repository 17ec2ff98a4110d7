// Command projfreqd serves a sharded projected-frequency summary over
// HTTP: the cross-process form of the internal/engine deployment
// model. Rows stream in through /v1/observe, remote writers push whole
// serialized summaries through /v1/push (merged on ingest), and
// readers batch queries through /v1/query or export the merged
// summary as a wire blob from /v1/summary. Reads are served from an
// epoch snapshot that covers every row accepted before the read
// started (responses carry an "epoch" block naming the snapshot).
//
// Before ingestion starts, clients may provision dedicated summaries
// for hot projections through /v1/subspaces (register with POST, list
// with GET); /v1/query then routes each query through the planner —
// exact-match subspace, cheapest covering subspace, full fallback —
// and reports the chosen route per result. See the "Querying
// subspaces" cookbook in the README for curl examples.
//
// With -data-dir the daemon is durable: every accepted observe, push,
// and subspace registration is written to a write-ahead log before it
// is applied (fsync policy via -fsync), checkpoints are cut
// periodically (-checkpoint-rows / -checkpoint-interval), on demand
// (POST /v1/admin/checkpoint), and on graceful shutdown, and a
// restart recovers the full pre-crash state — the newest checkpoint
// plus a replay of the log records after its cut. /v1/stats reports
// the store's segments, bytes, and last checkpoint. See the
// "durability path" section of ARCHITECTURE.md and the README ops
// cookbook.
//
// Usage:
//
//	projfreqd -addr :8080 -summary net -d 8 -q 8 -alpha 0.3 -seed 7
//	projfreqd -summary sample -d 12 -q 2 -eps 0.02 -shards 8
//	projfreqd -summary exact -d 8 -q 8 -shards 4 -data-dir /var/lib/projfreq -fsync always
//
// Remote writers must build their summaries with the same shape and
// configuration the daemon was started with (for Net summaries
// that includes the seed, so member sketches share hash functions);
// pushes of incompatible summaries are refused with 409 and corrupt
// blobs with 400 — and once subspaces are registered, only whole
// registry blobs (what /v1/summary of an identically configured
// daemon exports) are accepted. cmd/projfreq -push is the matching
// writer CLI, and ARCHITECTURE.md documents the wire format and
// endpoint contracts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints for the opt-in -pprof listener
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/words"
)

// defaultMaxBody bounds request bodies: pushed summaries and row
// batches.
const defaultMaxBody = 1 << 28

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "projfreqd:", err)
		os.Exit(1)
	}
}

// run owns the daemon lifecycle so that every exit path — listener
// failure or a shutdown signal — drains in-flight requests and then
// stops the engine, instead of os.Exit skipping both.
func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		kind     = flag.String("summary", "exact", "summary kind: exact | sample | net")
		d        = flag.Int("d", 8, "number of columns")
		q        = flag.Int("q", 2, "alphabet size Q")
		eps      = flag.Float64("eps", 0.05, "accuracy parameter")
		delta    = flag.Float64("delta", 0.01, "failure probability (sample summary)")
		alpha    = flag.Float64("alpha", 0.3, "alpha-net parameter (net summary)")
		seed     = flag.Uint64("seed", 1, "random seed")
		shards   = flag.Int("shards", 0, "ingest shard count (0 = GOMAXPROCS)")
		dataDir  = flag.String("data-dir", "", "durability directory (WAL + checkpoints); empty = in-memory only")
		fsyncStr = flag.String("fsync", "interval", "WAL fsync policy: always | interval | never")
		ckRows   = flag.Int64("checkpoint-rows", 1<<20, "checkpoint after this many new rows (0 disables the row trigger)")
		ckEvery  = flag.Duration("checkpoint-interval", 5*time.Minute, "checkpoint at least this often while data arrives (0 disables the timer)")
		pullFrom = flag.String("pull-from", "", "comma-separated ingest-node base URLs to pull summaries from (makes this daemon an aggregator)")
		pullIvl  = flag.Duration("pull-interval", time.Second, "anti-entropy pull cadence (aggregator only)")
		pullTO   = flag.Duration("pull-timeout", 10*time.Second, "per-pull HTTP timeout (aggregator pulls and admin hand-offs)")
		pprofAd  = flag.String("pprof", "", "pprof listen address (e.g. localhost:6060); empty disables profiling")
		portfile = flag.String("portfile", "", "write the bound listen address to this file once serving (for -addr :0 callers like the cluster test harness)")
	)
	flag.Parse()

	if *pullFrom != "" && *dataDir != "" {
		// Aggregator state is soft: pulled summaries live outside the
		// WAL/checkpoint cut, so a durable aggregator would recover a
		// state missing every source and silently under-count until the
		// operator noticed. Re-pulling after a restart is the recovery
		// path; refuse the combination instead of half-honoring it.
		return errors.New("-pull-from and -data-dir are mutually exclusive: aggregator state is re-pulled on restart, not recovered from disk")
	}

	var wal *store.Store
	if *dataDir != "" {
		policy, err := store.ParsePolicy(*fsyncStr)
		if err != nil {
			return err
		}
		wal, err = store.Open(store.Options{Dir: *dataDir, Dim: *d, Alphabet: *q, Fsync: policy})
		if err != nil {
			return err
		}
		defer wal.Close()
	}

	cfg := engine.Config{Shards: *shards}
	if wal != nil {
		// Assign only a live store: a typed-nil *store.Store in the
		// Log interface field passes the engine's log == nil check and
		// the first observe panics inside the nil store.
		cfg.Log = wal
	}
	eng, err := engine.NewSharded(func(shard int) (core.Summary, error) {
		return buildSummary(*kind, *d, *q, *eps, *delta, *alpha, *seed, shard)
	}, cfg)
	if err != nil {
		return err
	}

	srv := newServer(eng, standardSubspaceBuilder(*kind, *d, *q, *eps, *delta, *alpha, *seed))
	srv.wal = wal
	srv.pullTimeout = *pullTO
	if wal != nil {
		// Recovery must finish before the listener opens: replayed
		// records route through the same code as live ones, and mixing
		// the two would interleave the log.
		if err := srv.recover(); err != nil {
			return fmt.Errorf("recovering %s: %w", *dataDir, err)
		}
	}

	// Explicit server timeouts: MaxBytesReader bounds body size but
	// not read duration, so stalled clients must not pin goroutines.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if wal != nil {
		go srv.checkpointLoop(ctx, *ckRows, *ckEvery)
	}
	if *pullFrom != "" {
		puller, err := cluster.NewPuller(strings.Split(*pullFrom, ","), srv, *pullTO)
		if err != nil {
			return err
		}
		srv.puller = puller
		go puller.Run(ctx, *pullIvl)
		log.Printf("projfreqd: aggregator pulling from %v every %v", puller.Sources(), *pullIvl)
	}
	if *pprofAd != "" {
		// net/http/pprof registers on the default mux; the API server
		// uses its own mux, so this listener exposes only the profiling
		// endpoints — keep it bound to a loopback or otherwise
		// non-public address.
		go func() {
			log.Printf("projfreqd: pprof on %s", *pprofAd)
			if err := http.ListenAndServe(*pprofAd, nil); err != nil {
				log.Printf("projfreqd: pprof listener: %v", err)
			}
		}()
	}
	// The listener is opened explicitly (rather than via
	// ListenAndServe) so -addr :0 callers can learn the kernel-chosen
	// port from -portfile before the first request — the cluster test
	// harness leans on this to spawn nodes without a free-port race.
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
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("projfreqd: serving %s on %s", eng.Name(), ln.Addr())

	select {
	case err := <-errc:
		// Listener failure (typically the bind at startup, when the
		// drain below is a no-op). Handlers on already-accepted
		// connections may still be running, so drain before closing.
		_ = drainThenClose(httpSrv, srv)
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("projfreqd: signal received, draining connections")
		return drainThenClose(httpSrv, srv)
	}
}

// drainThenClose waits for in-flight requests to finish, cuts a final
// checkpoint (when durable), then stops the engine. The order is
// load-bearing: handlers call into the engine, and Sharded.Close must
// not run concurrently with Observe/ObserveBatch — so if the drain
// budget expires with handlers still live, the engine (and the final
// checkpoint, whose cut would race those handlers) is deliberately
// left for process exit rather than closed under them; the WAL then
// carries the recovery on next boot.
func drainThenClose(httpSrv *http.Server, srv *server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if srv.wal != nil {
		if stats, err := srv.checkpoint(); err != nil {
			log.Printf("projfreqd: shutdown checkpoint failed (the WAL still covers recovery): %v", err)
		} else {
			log.Printf("projfreqd: shutdown checkpoint at LSN %d (%d segments, %d log bytes)",
				stats.CheckpointLSN, stats.Segments, stats.LogBytes)
		}
		if err := srv.wal.Close(); err != nil {
			log.Printf("projfreqd: closing store: %v", err)
		}
	}
	srv.eng.Close()
	return nil
}

// buildSummary constructs one shard summary via the configuration
// cmd/projfreq shares (engine.StandardSummary), so writers built by
// the CLI always merge into a daemon started with the same flags.
func buildSummary(kind string, d, q int, eps, delta, alpha float64, seed uint64, shard int) (core.Summary, error) {
	return engine.StandardSummary(kind, d, q, eps, delta, alpha, seed, shard)
}

// subspaceBuilder turns one /v1/subspaces registration request into
// the per-shard factory the engine needs.
type subspaceBuilder func(c words.ColumnSet, summary string) (engine.Factory, error)

// standardSubspaceBuilder builds subspace factories against the
// daemon's own configuration, so registered summaries always merge
// with the catch-all shards and with identically configured peers:
// "mirror" (the default) replicates the daemon's summary kind —
// routed answers are bit-identical to full-summary answers — while
// "registered" provisions the cheap per-subset KMV+KHLL sketch pair
// (F0 only; other classes fall back to the catch-all).
func standardSubspaceBuilder(kind string, d, q int, eps, delta, alpha float64, seed uint64) subspaceBuilder {
	return func(c words.ColumnSet, summary string) (engine.Factory, error) {
		switch summary {
		case "", "mirror":
			return func(shard int) (core.Summary, error) {
				return buildSummary(kind, d, q, eps, delta, alpha, seed, shard)
			}, nil
		case "registered":
			return func(shard int) (core.Summary, error) {
				return core.NewRegistered(d, q, []words.ColumnSet{c}, core.RegisteredConfig{Epsilon: eps, Seed: seed})
			}, nil
		default:
			return nil, fmt.Errorf("unknown subspace summary %q (want mirror or registered)", summary)
		}
	}
}

// server is the HTTP face of one sharded engine, optionally backed by
// a durability store (wal != nil when the daemon runs with -data-dir).
type server struct {
	eng      *engine.Sharded
	mux      *http.ServeMux
	maxBody  int64
	subBuild subspaceBuilder

	// wal is the WAL + checkpoint store; the engine tees ingestion
	// into it (engine.Config.Log), the server logs subspace
	// registrations and cuts checkpoints.
	wal *store.Store
	// regMu serializes subspace registration against checkpoint
	// metadata capture, so a checkpoint's shard blobs and its subspace
	// list always describe the same registry structure. subMeta is the
	// durable registration list, in registration order.
	regMu   sync.Mutex
	subMeta []store.SubspaceMeta
	// ckptMu serializes checkpoints (admin-triggered, timer-triggered,
	// and the shutdown one); lastCkptRows and lastCkptTime drive the
	// automatic triggers.
	ckptMu       sync.Mutex
	lastCkptRows int64
	lastCkptTime time.Time
	// cfgTag fingerprints the daemon configuration for the summary
	// ETag (see summaryETag).
	cfgTag uint32
	// puller runs ETag anti-entropy from ingest peers when the daemon
	// is an aggregator (-pull-from); nil otherwise. Pulled state lives
	// in the engine's source map — soft by design, so aggregators
	// refuse -data-dir and reconverge by re-pulling after a restart.
	puller *cluster.Puller
	// pullTimeout bounds each anti-entropy pull and each admin
	// hand-off fetch.
	pullTimeout time.Duration
	// handoffMu guards handoffs: the record of peers this daemon has
	// absorbed through /v1/admin/handoff (a membership-change slice
	// hand-off). Handed-off state is soft like all AbsorbSource state —
	// it is not in the WAL or checkpoints — so the record is surfaced
	// on /v1/stats and the orchestrator re-issues the hand-off if this
	// daemon restarts before the departed peer is decommissioned.
	handoffMu sync.Mutex
	handoffs  map[string]cluster.SourceStats
}

// newServer wires the endpoint routes around the engine.
func newServer(eng *engine.Sharded, subBuild subspaceBuilder) *server {
	s := &server{eng: eng, mux: http.NewServeMux(), maxBody: defaultMaxBody, subBuild: subBuild}
	// The fingerprint mixes a boot nonce in with the configuration:
	// the state counters (rows/absorbs/subspaces) are monotonic only
	// within one process, so without it a restarted daemon whose
	// counters re-climb to old values over different data would honour
	// a predecessor's tag with a false 304. The cost is one full
	// refetch per client after every restart.
	h := fnv.New32a()
	fmt.Fprintf(h, "%s|%d|%d|%d", eng.Name(), eng.Dim(), eng.Alphabet(), time.Now().UnixNano())
	s.cfgTag = h.Sum32()
	s.mux.HandleFunc("POST /v1/observe", s.handleObserve)
	s.mux.HandleFunc("POST /v1/push", s.handlePush)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/summary", s.handleSummary)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/subspaces", s.handleSubspacesList)
	s.mux.HandleFunc("POST /v1/subspaces", s.handleSubspacesRegister)
	s.mux.HandleFunc("POST /v1/admin/checkpoint", s.handleAdminCheckpoint)
	s.mux.HandleFunc("POST /v1/admin/handoff", s.handleAdminHandoff)
	s.mux.HandleFunc("POST /v1/admin/sources", s.handleAdminSources)
	return s
}

// ServeHTTP implements http.Handler.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	s.mux.ServeHTTP(w, r)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// bodyError maps a body-read failure to its status: a request larger
// than the MaxBytesReader limit is the client exceeding a declared
// contract (413), not a malformed body (400).
func bodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("body exceeds the %d-byte limit", tooBig.Limit))
		return
	}
	httpError(w, http.StatusBadRequest, err)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// observeResponse reports accepted rows and the engine's new total.
type observeResponse struct {
	Accepted int   `json:"accepted"`
	Rows     int64 `json:"rows"`
}

func (s *server) handleObserve(w http.ResponseWriter, r *http.Request) {
	dec := observePool.Get().(*wire.ObserveDecoder)
	defer observePool.Put(dec)
	batch, err := dec.Decode(r.Body, s.eng.Dim(), s.eng.Alphabet())
	if err != nil {
		bodyError(w, err)
		return
	}
	// Validation happened during decode, so a bad batch changes
	// nothing; a good one enters through the engine's chunked batch
	// path — one channel send per chunk, not per row. The durable
	// variant appends to the WAL first; if that fails nothing is
	// ingested and the client must not treat the rows as accepted.
	if err := s.eng.ObserveBatchDurable(batch); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, observeResponse{Accepted: batch.Len(), Rows: s.eng.Rows()})
}

// observePool recycles /v1/observe decode state (the raw body bytes
// and the batch the rows land in) across requests.
var observePool = sync.Pool{New: func() interface{} { return new(wire.ObserveDecoder) }}

// pushResponse reports a merged remote summary.
type pushResponse struct {
	RowsMerged int64 `json:"rows_merged"`
	Rows       int64 `json:"rows"`
}

// pushConflict maps an incompatible-merge failure to its 409 body. A
// structural subspace mismatch gets a typed body naming both sides'
// column sets, so the pushing client can see which columnsets differ
// instead of parsing prose; every other shape conflict keeps the plain
// error envelope.
func pushConflict(w http.ResponseWriter, err error) {
	var mm *registry.SubspaceMismatchError
	if !errors.As(err, &mm) {
		httpError(w, http.StatusConflict, err)
		return
	}
	cols := func(sets []words.ColumnSet) [][]int {
		out := make([][]int, len(sets))
		for i, c := range sets {
			out[i] = c.Columns()
		}
		return out
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	_ = json.NewEncoder(w).Encode(struct {
		Error          string  `json:"error"`
		Code           string  `json:"code"`
		LocalSubspaces [][]int `json:"local_subspaces"`
		DonorSubspaces [][]int `json:"donor_subspaces"`
		BareDonor      string  `json:"bare_donor,omitempty"`
	}{
		Error:          err.Error(),
		Code:           "subspace_mismatch",
		LocalSubspaces: cols(mm.Receiver),
		DonorSubspaces: cols(mm.Donor),
		BareDonor:      mm.BareDonor,
	})
}

func (s *server) handlePush(w http.ResponseWriter, r *http.Request) {
	blob, err := io.ReadAll(r.Body)
	if err != nil {
		bodyError(w, fmt.Errorf("reading push body: %w", err))
		return
	}
	sum, err := core.UnmarshalSummary(blob)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrIncompatibleMerge) {
			status = http.StatusConflict
		}
		httpError(w, status, err)
		return
	}
	if err := s.eng.Absorb(sum); err != nil {
		if errors.Is(err, core.ErrIncompatibleMerge) {
			pushConflict(w, err)
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, pushResponse{RowsMerged: sum.Rows(), Rows: s.eng.Rows()})
}

// ApplySource implements cluster.Applier: a pulled peer snapshot is
// decoded and installed under the source's URL with replace semantics
// (AbsorbSource), so re-pulling a peer's cumulative snapshot
// supersedes the previous pull instead of double-counting it — the
// difference between this path and /v1/push, whose donors are folded
// in cumulatively.
func (s *server) ApplySource(source string, blob []byte) error {
	sum, err := core.UnmarshalSummary(blob)
	if err != nil {
		return err
	}
	return s.eng.AbsorbSource(source, sum)
}

// summaryETag versions the exported summary: the wire version, a
// fingerprint of the daemon's configuration (engine name — which
// carries the summary kind and shard count — and shape, plus a boot
// nonce), and the serving epoch's sequence number. The epoch seq is
// the right validator: every mutation the daemon accepts (rows,
// pushes, subspace registrations) produces a new epoch before a
// changed blob can be exported, and the blob is a function of the
// epoch alone.
// The boot nonce keeps a restarted daemon (whose seq restarts at 1)
// from answering 304 to a predecessor's tag.
func (s *server) summaryETag(epochSeq uint64) string {
	return fmt.Sprintf(`"pfqs-%d-%x-%d"`, core.WireVersion, s.cfgTag, epochSeq)
}

// etagMatch reports whether an If-None-Match header names tag,
// handling the comma-separated list and weak-validator forms.
func etagMatch(header, tag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == tag || part == "*" {
			return true
		}
	}
	return false
}

func (s *server) handleSummary(w http.ResponseWriter, r *http.Request) {
	// Resolving the epoch is the cheap part (lock-free while the
	// serving epoch is current); the conditional probe then runs
	// before the expensive marshal, so a repeat GET with no new epoch
	// skips serialization entirely.
	snap, info, err := s.eng.SnapshotInfo()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	tag := s.summaryETag(info.Seq)
	w.Header().Set("ETag", tag)
	w.Header().Set("X-Epoch-Rows", fmt.Sprint(info.Rows))
	w.Header().Set("X-Epoch-Staleness-Rows", fmt.Sprint(info.StalenessRows))
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, tag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	blob, err := core.MarshalSummary(snap)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(blob)))
	_, _ = w.Write(blob)
}

// subspaceJSON is one registered subspace in the /v1/subspaces
// listing.
type subspaceJSON struct {
	Cols      []int  `json:"cols"`
	Summary   string `json:"summary"`
	SizeBytes int    `json:"size_bytes"`
}

// subspacesResponse is the GET /v1/subspaces body; Subspaces is in
// registration (planner-priority) order.
type subspacesResponse struct {
	Subspaces []subspaceJSON `json:"subspaces"`
}

// registerSubspaceRequest is the POST /v1/subspaces body. Summary
// selects the provisioned kind: "mirror" (default — replicate the
// daemon's summary kind; routed answers bit-identical to the
// catch-all's) or "registered" (cheap per-subset F0/KHLL sketches;
// other query classes fall back to the catch-all).
type registerSubspaceRequest struct {
	Cols    []int  `json:"cols"`
	Summary string `json:"summary,omitempty"`
}

func (s *server) handleSubspacesList(w http.ResponseWriter, r *http.Request) {
	// Subspaces() quiesces the workers for consistent per-subspace
	// sizes — the one read endpoint that still pays the barrier, since
	// the epoch snapshot does not keep per-shard size breakdowns;
	// count-only consumers should read the stats endpoint's cheap
	// subspace count.
	resp := subspacesResponse{Subspaces: []subspaceJSON{}}
	for _, info := range s.eng.Subspaces() {
		resp.Subspaces = append(resp.Subspaces, subspaceJSON{
			Cols:      info.Cols.Columns(),
			Summary:   info.Name,
			SizeBytes: info.SizeBytes,
		})
	}
	writeJSON(w, resp)
}

func (s *server) handleSubspacesRegister(w http.ResponseWriter, r *http.Request) {
	var req registerSubspaceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		bodyError(w, fmt.Errorf("decoding subspace registration: %w", err))
		return
	}
	c, err := words.NewColumnSet(s.eng.Dim(), req.Cols...)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// The durable registration record stores the column set as a
	// 64-bit mask (words.ColumnSet.Mask, which panics beyond d=64), so
	// a durable daemon must refuse what it cannot make durable.
	// In-memory daemons carry no such limit.
	if s.wal != nil && s.eng.Dim() > 64 {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("subspace registration with -data-dir requires d <= 64 (registrations ride the WAL as 64-bit column masks); daemon has d=%d", s.eng.Dim()))
		return
	}
	factory, err := s.subBuild(c, req.Summary)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// regMu spans the registration and its WAL record so a concurrent
	// checkpoint cannot capture shard blobs and a subspace list that
	// disagree about this registration; the engine's Logged variant
	// additionally runs the WAL append under the ingestion lock, so no
	// concurrently observed row can take a log position between the
	// registration and its record (replay applies strictly in log
	// order, and a registration after accepted rows is unapplicable).
	s.regMu.Lock()
	err = s.eng.RegisterSubspaceLogged(c, factory, func() error {
		return s.recordSubspace(c, req.Summary)
	})
	s.regMu.Unlock()
	if err != nil {
		// Late or repeated registrations conflict with existing state;
		// a WAL failure is the server's problem; everything else is a
		// bad request.
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, engine.ErrRowsAccepted), errors.Is(err, registry.ErrDuplicateSubspace):
			status = http.StatusConflict
		case errors.Is(err, errSubspaceNotLogged):
			status = http.StatusInternalServerError
		}
		httpError(w, status, err)
		return
	}
	s.handleSubspacesList(w, r)
}

// queryRequest is the /v1/query body: a batch answered against one
// consistent merged snapshot.
type queryRequest struct {
	Queries []querySpec `json:"queries"`
}

// querySpec is one question; kind selects which other fields apply.
type querySpec struct {
	// Kind is "f0", "fp", "freq", or "hh".
	Kind string `json:"kind"`
	// Cols is the projection C as column indices.
	Cols []int `json:"cols"`
	// P is the moment order (fp) or norm order (hh).
	P float64 `json:"p,omitempty"`
	// Phi is the heavy-hitter threshold (hh).
	Phi float64 `json:"phi,omitempty"`
	// Pattern is the point pattern (freq).
	Pattern []uint16 `json:"pattern,omitempty"`
}

// hitJSON is one reported heavy hitter.
type hitJSON struct {
	Pattern  []uint16 `json:"pattern"`
	Estimate float64  `json:"estimate"`
}

// resultJSON is the answer to one query. Value is always emitted — a
// legitimate answer of 0 must stay distinguishable from no answer.
// Route reports the planner's decision: "full", "subspace{…}", or
// "cover{…}".
type resultJSON struct {
	Value       float64   `json:"value"`
	Hits        []hitJSON `json:"hits,omitempty"`
	Error       string    `json:"error,omitempty"`
	Unsupported bool      `json:"unsupported,omitempty"`
	Route       string    `json:"route,omitempty"`
}

// epochJSON surfaces the serving epoch to clients: which snapshot
// build answered, the accepted-row clock it covers, how many rows
// concurrent writers had added past that cut by the time the response
// was built, and its wall-clock age.
type epochJSON struct {
	Seq           uint64  `json:"seq"`
	Rows          int64   `json:"rows"`
	StalenessRows int64   `json:"staleness_rows"`
	AgeMS         float64 `json:"age_ms"`
	// MergedRows is the total row count the epoch serves: local rows
	// plus rows inside absorbed source summaries. On an aggregator this
	// is the convergence clock the cluster harness watches; on a plain
	// daemon it equals Rows.
	MergedRows int64 `json:"merged_rows"`
	// The exact summary's per-column-set vector memo since this epoch's
	// cut: requests answered from an already built vector, passes over
	// the retained rows and the time they took, vectors evicted. Many
	// builds and few hits: queries are slow because every column set is
	// new. All zero for summaries that keep no such state.
	MemoHits      int64   `json:"memo_hits"`
	MemoBuilds    int64   `json:"memo_builds"`
	MemoEvictions int64   `json:"memo_evictions"`
	MemoBuildMS   float64 `json:"memo_build_ms"`
}

// epochFromInfo converts the engine's view into the wire block.
func epochFromInfo(info engine.EpochInfo) *epochJSON {
	return &epochJSON{
		Seq:           info.Seq,
		Rows:          info.Rows,
		StalenessRows: info.StalenessRows,
		AgeMS:         float64(info.Age) / float64(time.Millisecond),
		MergedRows:    info.MergedRows,
		MemoHits:      info.Memo.Hits,
		MemoBuilds:    info.Memo.Builds,
		MemoEvictions: info.Memo.Evictions,
		MemoBuildMS:   float64(info.Memo.BuildTime) / float64(time.Millisecond),
	}
}

// queryResponse position-matches the request's queries; Epoch
// identifies the snapshot that answered them.
type queryResponse struct {
	Results []resultJSON `json:"results"`
	Epoch   *epochJSON   `json:"epoch,omitempty"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding queries: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("empty query batch"))
		return
	}
	d := s.eng.Dim()
	batch := make([]engine.Query, len(req.Queries))
	for i, spec := range req.Queries {
		c, err := words.NewColumnSet(d, spec.Cols...)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		eq := engine.Query{Cols: c, P: spec.P, Phi: spec.Phi}
		switch spec.Kind {
		case "f0":
			eq.Kind = engine.KindF0
		case "fp":
			eq.Kind = engine.KindFp
		case "freq":
			eq.Kind = engine.KindFrequency
			eq.Pattern = words.Word(spec.Pattern)
		case "hh":
			eq.Kind = engine.KindHeavyHitters
		default:
			httpError(w, http.StatusBadRequest, fmt.Errorf("query %d: unknown kind %q", i, spec.Kind))
			return
		}
		batch[i] = eq
	}
	results, info := s.eng.QueryBatchInfo(batch)
	resp := queryResponse{Results: make([]resultJSON, len(results))}
	if info.Seq != 0 {
		resp.Epoch = epochFromInfo(info)
	}
	for i, res := range results {
		out := resultJSON{Value: res.Value, Route: res.Route}
		if res.Err != nil {
			out.Error = res.Err.Error()
			out.Unsupported = errors.Is(res.Err, core.ErrUnsupported)
		}
		for _, h := range res.Hits {
			out.Hits = append(out.Hits, hitJSON{Pattern: h.Pattern, Estimate: h.Estimate})
		}
		resp.Results[i] = out
	}
	writeJSON(w, resp)
}

// storeStatsJSON is the durability block of the /v1/stats body,
// present only when the daemon runs with -data-dir.
type storeStatsJSON struct {
	Segments      int    `json:"segments"`
	LogBytes      int64  `json:"log_bytes"`
	LSN           uint64 `json:"lsn"`
	Checkpoints   int    `json:"checkpoints"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
}

// statsResponse is the /v1/stats body. SizeBytes comes from the
// serving epoch's cut — a cached value, not a fresh shard walk — so
// polling stats never stalls ingestion; Epoch says how old that cut
// is.
type statsResponse struct {
	Name      string          `json:"name"`
	Dim       int             `json:"dim"`
	Alphabet  int             `json:"alphabet"`
	Rows      int64           `json:"rows"`
	Shards    int             `json:"shards"`
	Subspaces int             `json:"subspaces"`
	SizeBytes int             `json:"size_bytes"`
	Wire      int             `json:"wire_version"`
	Epoch     *epochJSON      `json:"epoch,omitempty"`
	Store     *storeStatsJSON `json:"store,omitempty"`
	Cluster   *clusterJSON    `json:"cluster,omitempty"`
}

// clusterJSON is the anti-entropy block of /v1/stats, present on
// aggregators (-pull-from) and on any daemon that has absorbed a
// membership hand-off. The per-source counters are what the cluster
// tests read to prove that idle sources cost 304 probes, not blob
// transfers; Handoffs is what a membership orchestrator checks before
// decommissioning a departed peer.
type clusterJSON struct {
	Role     string                `json:"role"`
	Sources  []cluster.SourceStats `json:"sources,omitempty"`
	Handoffs []cluster.SourceStats `json:"handoffs,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Name:      s.eng.Name(),
		Dim:       s.eng.Dim(),
		Alphabet:  s.eng.Alphabet(),
		Rows:      s.eng.Rows(),
		Shards:    s.eng.NumShards(),
		Subspaces: s.eng.NumSubspaces(),
		Wire:      core.WireVersion,
	}
	// One epoch resolution serves both the size and the epoch
	// block; an epoch-build failure degrades the two fields rather than
	// failing the whole stats poll.
	if _, info, err := s.eng.SnapshotInfo(); err == nil {
		resp.SizeBytes = info.SizeBytes
		resp.Epoch = epochFromInfo(info)
	}
	if s.wal != nil {
		st := s.wal.Stats()
		resp.Store = &storeStatsJSON{
			Segments:      st.Segments,
			LogBytes:      st.LogBytes,
			LSN:           st.LSN,
			Checkpoints:   st.Checkpoints,
			CheckpointLSN: st.CheckpointLSN,
		}
	}
	if s.puller != nil {
		resp.Cluster = &clusterJSON{Role: "aggregator", Sources: s.puller.Stats()}
	}
	if handoffs := s.handoffStats(); len(handoffs) > 0 {
		if resp.Cluster == nil {
			resp.Cluster = &clusterJSON{Role: "ingest"}
		}
		resp.Cluster.Handoffs = handoffs
	}
	writeJSON(w, resp)
}
