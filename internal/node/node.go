// Package node is the projfreqd daemon as a library: one sharded
// projected-frequency summary served over HTTP, the cross-process form
// of the internal/engine deployment model. New builds the whole daemon
// from a Config — store, engine, routes, recovery, checkpointer and
// anti-entropy puller — and is the only way one is built: cmd/projfreqd,
// the tests and the in-process cluster all call it.
//
// Rows stream in through /v1/observe, remote writers push whole
// serialized summaries through /v1/push?source=NAME (each name's latest
// push is served, replacing its previous one), and readers
// batch queries through /v1/query or export the merged summary as a
// wire blob from /v1/summary. Reads are served from an epoch snapshot
// that covers every row accepted before the read started (responses
// carry an "epoch" block naming the snapshot).
//
// Before ingestion starts, clients may provision dedicated summaries
// for hot projections through /v1/subspaces (register with POST, list
// with GET); /v1/query then routes each query through the planner —
// exact-match subspace, else full fallback — and reports the chosen
// route per result. See the "Querying subspaces" cookbook in the
// README for curl examples.
//
// With Config.DataDir the daemon is durable: every accepted observe,
// push, hand-off, and subspace registration is written to a write-ahead
// log (fsync policy via Config.Fsync), checkpoints are
// cut periodically (CheckpointRows / CheckpointInterval), on demand
// (POST /v1/admin/checkpoint), and on Close, and a restart recovers the
// full pre-crash state — the newest checkpoint plus a replay of the log
// records after its cut. /v1/stats reports the store's segments, bytes,
// and last checkpoint. See the "durability path" section of
// ARCHITECTURE.md and the README ops cookbook.
//
// Remote writers must build their summaries with the same shape and
// configuration the daemon was started with (for Net summaries that
// includes the seed, so member sketches share hash functions); pushes
// of incompatible summaries are refused with 409 and corrupt blobs with
// 400 — and once subspaces are registered, only whole registry blobs
// (what /v1/summary of an identically configured daemon exports) are
// accepted. cmd/projfreq -push is the matching writer CLI, and
// ARCHITECTURE.md documents the wire format and endpoint contracts.
package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/wire"
	"repro/internal/words"
)

// MaxBody bounds request bodies — pushed summaries and row batches — on
// both daemons.
const MaxBody = 1 << 28

// Config is one daemon's configuration. Each field is the projfreqd
// flag named beside it; the flags' defaults live in cmd/projfreqd.
type Config struct {
	Summary string  // -summary: exact | sample | net
	D       int     // -d: number of columns
	Q       int     // -q: alphabet size
	Eps     float64 // -eps
	Delta   float64 // -delta (sample summary)
	Alpha   float64 // -alpha (net summary)
	Seed    uint64  // -seed
	Shards  int     // -shards: ingest shard count (0 = GOMAXPROCS)

	DataDir            string        // -data-dir: WAL + checkpoints; empty = in-memory only
	Fsync              string        // -fsync: always | interval | never
	CheckpointRows     int64         // -checkpoint-rows (0 disables the row trigger)
	CheckpointInterval time.Duration // -checkpoint-interval (0 disables the timer)

	PullFrom     []string      // -pull-from: ingest-node base URLs; non-empty makes an aggregator
	PullInterval time.Duration // -pull-interval: longest hold of an unchanged pull, and back-off after a failed one
	PullTimeout  time.Duration // -pull-timeout: per pull and per admin hand-off
}

// Node is one running daemon: the HTTP face of one sharded engine,
// optionally backed by a durability store (wal != nil when Config.DataDir
// is set) or pulling from ingest peers (puller != nil when
// Config.PullFrom is set).
type Node struct {
	cfg Config
	eng *engine.Sharded
	mux *http.ServeMux

	// wal is the WAL + checkpoint store; the engine tees ingestion
	// into it (engine.Config.Log), the node logs sources and subspace
	// registrations and cuts checkpoints.
	wal *store.Store
	// regMu serializes subspace registration against checkpoint
	// metadata capture, so a checkpoint's shard blobs and its subspace
	// list always describe the same registry structure. subMeta is the
	// durable registration list, in registration order.
	regMu   sync.Mutex
	subMeta []store.SubspaceMeta
	// ckptMu serializes checkpoints (admin-triggered, timer-triggered,
	// and the one Close cuts) and source installs (absorbSource), so no
	// cut falls between a source's install and its WAL record;
	// lastCkptRows and lastCkptTime drive the automatic triggers.
	ckptMu       sync.Mutex
	lastCkptRows int64
	lastCkptTime time.Time
	// cfgTag fingerprints the daemon configuration for the summary
	// ETag (see summaryETag).
	cfgTag uint32
	// puller runs ETag anti-entropy from ingest peers when the daemon
	// is an aggregator; nil otherwise. Pulled state lives in the
	// engine's source map — soft by design, so aggregators refuse a
	// data directory and reconverge by re-pulling after a restart.
	puller *cluster.Puller
	// handoffMu guards handoffs: the record of peers this daemon has
	// absorbed through /v1/admin/handoff (a membership-change slice
	// hand-off), surfaced on /v1/stats. On a durable daemon the
	// handed-off state itself is in the WAL and every checkpoint; this
	// record is not, and restarts empty.
	handoffMu sync.Mutex
	handoffs  map[string]cluster.SourceStats

	// ctx is the node's lifetime: stop cancels it, which ends the
	// checkpointer, the puller and every held /v1/summary GET; wg waits
	// for the first two.
	ctx       context.Context
	stop      context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds and starts one daemon: it opens the store, builds the
// engine, wires the routes, recovers the data directory (before any
// request can arrive: replayed records route through the same code as
// live ones, and mixing the two would interleave the log), and starts
// the checkpoint loop and the anti-entropy puller. The returned Node
// serves HTTP until Close.
func New(cfg Config) (*Node, error) {
	if len(cfg.PullFrom) > 0 && cfg.DataDir != "" {
		// Aggregator state is soft: pulled summaries live outside the
		// WAL/checkpoint cut, so a durable aggregator would recover a
		// state missing every source and silently under-count until the
		// operator noticed. Re-pulling after a restart is the recovery
		// path; refuse the combination instead of half-honoring it.
		return nil, errors.New("-pull-from and -data-dir are mutually exclusive: aggregator state is re-pulled on restart, not recovered from disk")
	}
	if len(cfg.PullFrom) > 0 && (cfg.PullInterval <= 0 || cfg.PullTimeout > 0 && cfg.PullInterval >= cfg.PullTimeout) {
		// A source holds an unchanged pull for up to -pull-interval, so
		// the client must wait longer than that or every idle hold ends
		// as a timeout error.
		return nil, fmt.Errorf("-pull-interval %v must be positive and below -pull-timeout %v: an unchanged pull is held for up to -pull-interval", cfg.PullInterval, cfg.PullTimeout)
	}
	var wal *store.Store
	if cfg.DataDir != "" {
		policy, err := store.ParsePolicy(cfg.Fsync)
		if err == nil {
			wal, err = store.Open(store.Options{Dir: cfg.DataDir, Dim: cfg.D, Alphabet: cfg.Q, Fsync: policy})
		}
		if err != nil {
			return nil, err
		}
	}
	ecfg := engine.Config{Shards: cfg.Shards}
	if wal != nil {
		// Assign only a live store: a typed-nil *store.Store in the
		// Log interface field passes the engine's log == nil check and
		// the first observe panics inside the nil store.
		ecfg.Log = wal
	}
	eng, err := engine.NewSharded(func(shard int) (core.Summary, error) {
		return engine.StandardSummary(cfg.Summary, cfg.D, cfg.Q, cfg.Eps, cfg.Delta, cfg.Alpha, cfg.Seed, shard)
	}, ecfg)
	if err != nil {
		if wal != nil {
			wal.Close()
		}
		return nil, err
	}
	n := &Node{cfg: cfg, eng: eng, wal: wal, mux: http.NewServeMux()}
	switch { // an aggregator has no store (refused above)
	case len(cfg.PullFrom) > 0:
		n.puller, err = cluster.NewPuller(cfg.PullFrom, n, cfg.PullTimeout)
	case wal != nil:
		if err = n.recover(); err != nil {
			err = fmt.Errorf("recovering %s: %w", cfg.DataDir, err)
		}
	}
	if err != nil {
		eng.Close()
		if wal != nil {
			wal.Close()
		}
		return nil, err
	}
	// The fingerprint mixes a boot nonce in with the configuration:
	// the state counters (rows/absorbs/subspaces) are monotonic only
	// within one process, so without it a restarted daemon whose
	// counters re-climb to old values over different data would honour
	// a predecessor's tag with a false 304. The cost is one full
	// refetch per client after every restart.
	h := fnv.New32a()
	fmt.Fprintf(h, "%s|%d|%d|%d", eng.Name(), eng.Dim(), eng.Alphabet(), time.Now().UnixNano())
	n.cfgTag = h.Sum32()
	n.mux.HandleFunc("POST /v1/observe", n.handleObserve)
	n.mux.HandleFunc("POST /v1/push", n.handlePush)
	n.mux.HandleFunc("POST /v1/query", n.handleQuery)
	n.mux.HandleFunc("GET /v1/summary", n.handleSummary)
	n.mux.HandleFunc("GET /v1/stats", n.handleStats)
	n.mux.HandleFunc("GET /v1/subspaces", n.handleSubspacesList)
	n.mux.HandleFunc("POST /v1/subspaces", n.handleSubspacesRegister)
	n.mux.HandleFunc("POST /v1/admin/checkpoint", n.handleAdminCheckpoint)
	n.mux.HandleFunc("POST /v1/admin/handoff", n.handleAdminHandoff)
	n.mux.HandleFunc("POST /v1/admin/sources", n.handleAdminSources)

	n.ctx, n.stop = context.WithCancel(context.Background())
	if wal != nil {
		n.wg.Add(1)
		go func() { defer n.wg.Done(); n.checkpointLoop(n.ctx) }()
	}
	if n.puller != nil {
		n.wg.Add(1)
		go func() { defer n.wg.Done(); n.puller.Run(n.ctx, cfg.PullInterval) }()
		log.Printf("projfreqd: aggregator long-polling %v (holds of up to %v)", n.puller.Sources(), cfg.PullInterval)
	}
	return n, nil
}

// Close stops the checkpointer and the puller and releases every held
// summary GET, cuts a final checkpoint (when durable), closes the
// store, then stops the engine. Callers stop sending requests first —
// Serve drains the HTTP server before calling it — because handlers
// call into the engine, and Sharded.Close must not run concurrently
// with ObserveBatch. Close is idempotent.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		n.stop()
		n.wg.Wait()
		if n.wal != nil {
			if err := n.cutCheckpoint("shutdown"); err != nil {
				log.Printf("projfreqd: %v (the WAL still covers recovery)", err)
			}
			if err := n.wal.Close(); err != nil {
				log.Printf("projfreqd: closing store: %v", err)
			}
		}
		n.eng.Close()
	})
	return nil
}

// ServeHTTP implements http.Handler.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBody)
	n.mux.ServeHTTP(w, r)
}

// SubspaceKindError refuses a subspace registration — a live
// /v1/subspaces request or one recovered from the data directory —
// whose provisioning kind is not "registered", the one kind.
type SubspaceKindError struct {
	// Kind is the refused kind string.
	Kind string
}

// Error names the one kind, and says why "mirror" is gone.
func (e *SubspaceKindError) Error() string {
	if e.Kind == "mirror" {
		return `subspace summary "mirror" was retired: it duplicated the catch-all summary; the one kind is "registered"`
	}
	return fmt.Sprintf(`unknown subspace summary %q (the one kind is "registered")`, e.Kind)
}

// subspaceFactory turns one /v1/subspaces registration (live or
// replayed) into the per-shard factory the engine needs: one cheap
// F0 sketch over the set (core.Registered; F0 only, other classes
// fall back to the catch-all), built from the daemon's own
// epsilon and seed so it merges with identically configured peers.
func (n *Node) subspaceFactory(c words.ColumnSet, summary string) (engine.Factory, error) {
	if summary != "" && summary != "registered" {
		return nil, &SubspaceKindError{Kind: summary}
	}
	cfg := n.cfg
	return func(int) (core.Summary, error) {
		return core.NewRegistered(cfg.D, cfg.Q, c, core.RegisteredConfig{Epsilon: cfg.Eps, Seed: cfg.Seed})
	}, nil
}

// WriteJSON answers status with v as a JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPError answers status with a JSON error body.
func HTTPError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// BodyError maps a body-read failure to its status: a request larger
// than the MaxBytesReader limit is the client exceeding a declared
// contract (413), not a malformed body (400).
func BodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		HTTPError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("body exceeds the %d-byte limit", tooBig.Limit))
		return
	}
	HTTPError(w, http.StatusBadRequest, err)
}

// ObserveResponse reports accepted rows and the engine's new total.
type ObserveResponse struct {
	Accepted int   `json:"accepted"`
	Rows     int64 `json:"rows"`
}

func (n *Node) handleObserve(w http.ResponseWriter, r *http.Request) {
	dec := observePool.Get().(*wire.ObserveDecoder)
	defer observePool.Put(dec)
	batch, err := dec.Decode(r.Body, n.eng.Dim(), n.eng.Alphabet())
	if err != nil {
		BodyError(w, err)
		return
	}
	// Validation happened during decode, so a bad batch changes
	// nothing; a good one enters through the engine's chunked batch
	// path — one channel send per chunk, not per row. The durable
	// variant appends to the WAL first; if that fails nothing is
	// ingested and the client must not treat the rows as accepted.
	if err := n.eng.ObserveBatchDurable(batch); err != nil {
		HTTPError(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, ObserveResponse{Accepted: batch.Len(), Rows: n.eng.Rows()})
}

// observePool recycles /v1/observe decode state (the raw body bytes
// and the batch the rows land in) across requests.
var observePool = sync.Pool{New: func() interface{} { return new(wire.ObserveDecoder) }}

// PushResponse reports a pushed summary's rows and all rows served.
type PushResponse struct {
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
		HTTPError(w, http.StatusConflict, err)
		return
	}
	cols := func(sets []words.ColumnSet) [][]int {
		out := make([][]int, len(sets))
		for i, c := range sets {
			out[i] = c.Columns()
		}
		return out
	}
	WriteJSON(w, http.StatusConflict, struct {
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

// handlePush installs a writer's summary as the source named by the
// required ?source= parameter, replacing the name's previous push: a
// retry after a lost ack, or a re-pushed snapshot, counts once.
func (n *Node) handlePush(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("source")
	if name == "" {
		HTTPError(w, http.StatusBadRequest, errors.New("push needs a source=NAME query parameter naming the writer"))
		return
	}
	blob, err := io.ReadAll(r.Body)
	if err != nil {
		BodyError(w, fmt.Errorf("reading push body: %w", err))
		return
	}
	if err := n.absorbSource(name, blob); err != nil {
		switch {
		case errors.Is(err, core.ErrIncompatibleMerge):
			pushConflict(w, err)
		case errors.Is(err, core.ErrBadEncoding), errors.Is(err, core.ErrInvalidParam):
			HTTPError(w, http.StatusBadRequest, err)
		default:
			HTTPError(w, http.StatusInternalServerError, err)
		}
		return
	}
	resp := PushResponse{Rows: n.eng.Rows()}
	for _, src := range n.eng.Sources() {
		resp.Rows += src.Rows
		if src.Name == name {
			resp.RowsMerged = src.Rows
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// ApplySource implements cluster.Applier: a pulled peer snapshot (an
// aggregator's pull, or a hand-off) is absorbed under the peer's URL.
func (n *Node) ApplySource(source string, blob []byte) error { return n.absorbSource(source, blob) }

// absorbSource is the one way a summary built elsewhere enters the
// daemon: it decodes blob, installs it as the named source
// (engine.AbsorbSource), and on a durable daemon then logs it. Holding
// ckptMu puts the source in a checkpoint's table or in its WAL tail.
// A failed log append leaves the install for the next checkpoint.
func (n *Node) absorbSource(name string, blob []byte) error {
	sum, err := core.UnmarshalSummary(blob)
	if err != nil {
		return err
	}
	n.ckptMu.Lock()
	defer n.ckptMu.Unlock()
	if err := n.eng.AbsorbSource(name, sum); err != nil || n.wal == nil {
		return err
	}
	if err := n.wal.AppendSource(name, blob); err != nil {
		return fmt.Errorf("source %q installed but not logged: %w", name, err)
	}
	return nil
}

// summaryETag versions the exported summary: the wire version, a
// fingerprint of the daemon's configuration (engine name — which
// carries the summary kind and shard count — and shape, plus a boot
// nonce), and the serving epoch's sequence number. The epoch seq is
// the right validator: every mutation the daemon accepts (rows,
// sources, subspace registrations) produces a new epoch before a
// changed blob can be exported, and the blob is a function of the
// epoch alone.
// The boot nonce keeps a restarted daemon (whose seq restarts at 1)
// from answering 304 to a predecessor's tag.
func (n *Node) summaryETag(epochSeq uint64) string {
	return fmt.Sprintf(`"pfqs-%d-%x-%d"`, core.WireVersion, n.cfgTag, epochSeq)
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

// handleSummary exports the serving epoch's blob. A conditional GET
// with ?wait=<duration> whose If-None-Match names the current epoch is
// held — long-polled — until the epoch moves, the wait runs out, the
// client leaves or the node closes, and then answered against the
// epoch as it stands: 200 with the new blob, or 304. Every answer says
// how long it was held in a "Server-Timing: hold;dur=<ms>" header, so a
// client can tell the source's hold from its own cost.
func (n *Node) handleSummary(w http.ResponseWriter, r *http.Request) {
	var wait time.Duration
	if q := r.URL.Query(); q.Has("wait") {
		var err error
		if wait, err = time.ParseDuration(q.Get("wait")); err != nil || wait < 0 {
			HTTPError(w, http.StatusBadRequest, fmt.Errorf("wait=%q: want a non-negative duration such as 500ms", q.Get("wait")))
			return
		}
	}
	// Resolving the epoch is the cheap part (lock-free while the
	// serving epoch is current); the conditional probe then runs
	// before the expensive marshal, so a repeat GET with no new epoch
	// skips serialization entirely.
	snap, info, err := n.eng.SnapshotInfo()
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, err)
		return
	}
	tag := n.summaryETag(info.Seq)
	inm := r.Header.Get("If-None-Match")
	var hold time.Duration
	if wait > 0 && inm != "" && etagMatch(inm, tag) {
		start := time.Now()
		n.hold(r.Context(), info.Seq, wait)
		hold = time.Since(start)
		if snap, info, err = n.eng.SnapshotInfo(); err != nil {
			HTTPError(w, http.StatusInternalServerError, err)
			return
		}
		tag = n.summaryETag(info.Seq)
	}
	w.Header().Set("Server-Timing", fmt.Sprintf("hold;dur=%.3f", float64(hold)/float64(time.Millisecond)))
	w.Header().Set("ETag", tag)
	w.Header().Set("X-Epoch-Rows", fmt.Sprint(info.Rows))
	w.Header().Set("X-Epoch-Staleness-Rows", fmt.Sprint(info.StalenessRows))
	if inm != "" && etagMatch(inm, tag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	blob, err := core.MarshalSummary(snap)
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(blob)))
	_, _ = w.Write(blob)
}

// hold blocks until epoch seq stops being served, wait elapses, ctx
// ends or the node closes, whichever comes first.
func (n *Node) hold(ctx context.Context, seq uint64, wait time.Duration) {
	ctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	defer context.AfterFunc(n.ctx, cancel)()
	_ = n.eng.AwaitChange(ctx, seq)
}

// Subspace is one registered subspace in the /v1/subspaces listing.
type Subspace struct {
	Cols      []int  `json:"cols"`
	Summary   string `json:"summary"`
	SizeBytes int    `json:"size_bytes"`
}

// SubspacesResponse is the GET /v1/subspaces body; Subspaces is in
// registration (planner-priority) order.
type SubspacesResponse struct {
	Subspaces []Subspace `json:"subspaces"`
}

// RegisterSubspaceRequest is the POST /v1/subspaces body. Summary
// names the provisioned kind and may be omitted: "registered" (one
// cheap F0 sketch over the set; other query classes fall back to the
// catch-all) is the one kind, and any other value answers 400.
type RegisterSubspaceRequest struct {
	Cols    []int  `json:"cols"`
	Summary string `json:"summary,omitempty"`
}

func (n *Node) handleSubspacesList(w http.ResponseWriter, r *http.Request) {
	// Subspaces() quiesces the workers for consistent per-subspace
	// sizes — the one read endpoint that still pays the barrier, since
	// the epoch snapshot does not keep per-shard size breakdowns;
	// count-only consumers should read the stats endpoint's cheap
	// subspace count.
	resp := SubspacesResponse{Subspaces: []Subspace{}}
	for _, info := range n.eng.Subspaces() {
		resp.Subspaces = append(resp.Subspaces, Subspace{
			Cols:      info.Cols.Columns(),
			Summary:   info.Name,
			SizeBytes: info.SizeBytes,
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (n *Node) handleSubspacesRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterSubspaceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		BodyError(w, fmt.Errorf("decoding subspace registration: %w", err))
		return
	}
	c, err := words.NewColumnSet(n.eng.Dim(), req.Cols...)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	factory, err := n.subspaceFactory(c, req.Summary)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err)
		return
	}
	// regMu spans the registration and its WAL record so a concurrent
	// checkpoint cannot capture shard blobs and a subspace list that
	// disagree about this registration; the engine's Logged variant
	// additionally runs the WAL append under the ingestion lock, so no
	// concurrently observed row can take a log position between the
	// registration and its record (replay applies strictly in log
	// order, and a registration after accepted rows is unapplicable).
	n.regMu.Lock()
	err = n.eng.RegisterSubspaceLogged(c, factory, func() error {
		return n.recordSubspace(c, req.Summary)
	})
	n.regMu.Unlock()
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
		HTTPError(w, status, err)
		return
	}
	n.handleSubspacesList(w, r)
}

// QueryRequest is the /v1/query body: a batch answered against one
// consistent merged snapshot.
type QueryRequest struct {
	Queries []QuerySpec `json:"queries"`
}

// QuerySpec is one question; kind selects which other fields apply.
type QuerySpec struct {
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

// Hit is one reported heavy hitter.
type Hit struct {
	Pattern  []uint16 `json:"pattern"`
	Estimate float64  `json:"estimate"`
}

// Result is the answer to one query. Value is always emitted — a
// legitimate answer of 0 must stay distinguishable from no answer.
// Route reports the planner's decision: "full" or "subspace{…}".
type Result struct {
	Value       float64 `json:"value"`
	Hits        []Hit   `json:"hits,omitempty"`
	Error       string  `json:"error,omitempty"`
	Unsupported bool    `json:"unsupported,omitempty"`
	Route       string  `json:"route,omitempty"`
}

// Epoch surfaces the serving epoch to clients: which snapshot build
// answered, the accepted-row clock it covers, how many rows concurrent
// writers had added past that cut by the time the response was built,
// and its wall-clock age.
type Epoch struct {
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
func epochFromInfo(info engine.EpochInfo) *Epoch {
	return &Epoch{
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

// QueryResponse position-matches the request's queries; Epoch
// identifies the snapshot that answered them.
type QueryResponse struct {
	Results []Result `json:"results"`
	Epoch   *Epoch   `json:"epoch,omitempty"`
}

func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		HTTPError(w, http.StatusBadRequest, fmt.Errorf("decoding queries: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		HTTPError(w, http.StatusBadRequest, errors.New("empty query batch"))
		return
	}
	d := n.eng.Dim()
	batch := make([]engine.Query, len(req.Queries))
	for i, spec := range req.Queries {
		c, err := words.NewColumnSet(d, spec.Cols...)
		if err != nil {
			HTTPError(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
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
			HTTPError(w, http.StatusBadRequest, fmt.Errorf("query %d: unknown kind %q", i, spec.Kind))
			return
		}
		batch[i] = eq
	}
	results, info := n.eng.QueryBatchInfo(batch)
	resp := QueryResponse{Results: make([]Result, len(results))}
	if info.Seq != 0 {
		resp.Epoch = epochFromInfo(info)
	}
	for i, res := range results {
		out := Result{Value: res.Value, Route: res.Route}
		if res.Err != nil {
			out.Error = res.Err.Error()
			out.Unsupported = errors.Is(res.Err, core.ErrUnsupported)
		}
		for _, h := range res.Hits {
			out.Hits = append(out.Hits, Hit{Pattern: h.Pattern, Estimate: h.Estimate})
		}
		resp.Results[i] = out
	}
	WriteJSON(w, http.StatusOK, resp)
}

// StoreStats is the durability block of the /v1/stats body, present
// only when the daemon runs with a data directory.
type StoreStats struct {
	Segments      int    `json:"segments"`
	LogBytes      int64  `json:"log_bytes"`
	LSN           uint64 `json:"lsn"`
	Checkpoints   int    `json:"checkpoints"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
}

// Stats is the /v1/stats body. SizeBytes comes from the serving epoch's
// cut — a cached value, not a fresh shard walk — so polling stats never
// stalls ingestion; Epoch says how old that cut is.
type Stats struct {
	Name      string        `json:"name"`
	Dim       int           `json:"dim"`
	Alphabet  int           `json:"alphabet"`
	Rows      int64         `json:"rows"`
	Shards    int           `json:"shards"`
	Subspaces int           `json:"subspaces"`
	SizeBytes int           `json:"size_bytes"`
	Wire      int           `json:"wire_version"`
	Epoch     *Epoch        `json:"epoch,omitempty"`
	Store     *StoreStats   `json:"store,omitempty"`
	Cluster   *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats is the anti-entropy block of /v1/stats, present on
// aggregators and on any daemon that has absorbed a membership
// hand-off. The per-source counters are what the cluster tests read to
// prove that idle sources cost 304 probes, not blob transfers; Handoffs
// lists the membership hand-offs this daemon completed since boot.
type ClusterStats struct {
	Role     string                `json:"role"`
	Sources  []cluster.SourceStats `json:"sources,omitempty"`
	Handoffs []cluster.SourceStats `json:"handoffs,omitempty"`
}

func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := Stats{
		Name:      n.eng.Name(),
		Dim:       n.eng.Dim(),
		Alphabet:  n.eng.Alphabet(),
		Rows:      n.eng.Rows(),
		Shards:    n.eng.NumShards(),
		Subspaces: n.eng.NumSubspaces(),
		Wire:      core.WireVersion,
	}
	// One epoch resolution serves both the size and the epoch
	// block; an epoch-build failure degrades the two fields rather than
	// failing the whole stats poll.
	if _, info, err := n.eng.SnapshotInfo(); err == nil {
		resp.SizeBytes = info.SizeBytes
		resp.Epoch = epochFromInfo(info)
	}
	if n.wal != nil {
		st := n.wal.Stats()
		resp.Store = &StoreStats{
			Segments:      st.Segments,
			LogBytes:      st.LogBytes,
			LSN:           st.LSN,
			Checkpoints:   st.Checkpoints,
			CheckpointLSN: st.CheckpointLSN,
		}
	}
	if n.puller != nil {
		resp.Cluster = &ClusterStats{Role: "aggregator", Sources: n.puller.Stats()}
	}
	if handoffs := n.handoffStats(); len(handoffs) > 0 {
		if resp.Cluster == nil {
			resp.Cluster = &ClusterStats{Role: "ingest"}
		}
		resp.Cluster.Handoffs = handoffs
	}
	WriteJSON(w, http.StatusOK, resp)
}
