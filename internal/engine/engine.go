// Package engine lifts the summary layer's mergeability (core.Mergeable)
// into a parallel ingestion and batched query engine — the deployment
// shape that linear-sketch practice exploits: because every core
// summary of a stream shard merges into the summary of the whole
// stream, ingestion can fan out across cores and queries can be served
// from an on-demand merged snapshot.
//
// # Ingestion
//
// The Sharded engine runs one worker goroutine per shard, each owning
// a private summary fed through a buffered channel; ObserveBatch is
// safe for concurrent callers, never touches a summary directly, packs
// the batch once at its door (words.Packing's layout, checking every
// symbol against the alphabet) and routes one chunk of packed rows per
// channel send into the shard summary's ObservePacked. WAL replay
// routes a logged batch's packed body through the same chunk loop
// (ReplayPacked) without unpacking it.
//
// # Queries
//
// Reads are served from epochs: immutable merged snapshots published
// behind an atomic pointer. A query that finds the current epoch
// covering every accepted row serves it without touching the workers
// at all — no barrier, no merge, no lock on the ingest path. Otherwise
// the read pays the rebuild: quiesce the workers with a channel
// barrier, merge the shard summaries into a fresh registry, and
// publish it as the next epoch. Every read therefore reflects every
// row accepted before it started. QueryBatch answers many queries at
// a time against one epoch: identical queries in a batch are
// evaluated once, the distinct ones are grouped by (target, column
// set) and each group is answered by one of up to Config.QueryWorkers
// workers, so a summary that builds state per column set (core.Exact's
// memoized frequency vector) builds it once per epoch — that memo, not
// the engine, is what makes a repeated question cheap.
// AwaitChange blocks until the epoch a caller last saw would no longer
// be served — the change signal behind the daemon's held summary GET.
//
// # Subspaces
//
// Every shard summary is held inside a registry.Registry, so the
// engine can serve hot projections from dedicated per-columnset
// summaries: RegisterSubspace provisions one subspace summary per
// shard (before ingestion starts), and QueryBatch then plans each
// query — the subspace registered for exactly its column set, else
// the catch-all full summary — evaluating each group against its
// planned target and falling back to the full summary when a
// specialized one cannot answer the query's class. Snapshots
// (being merged registries) serialize whole-registry blobs that
// AbsorbSource accepts back.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/words"
)

// Factory builds the summary for one shard. It is called with shard
// indices 0..Shards-1 for the ingest shards and with index Shards for
// each merge snapshot. All returned summaries must share (d, q) and
// implement core.Mergeable; summary kinds whose Merge requires equal
// seeds (Net, Registered) must ignore the shard index when seeding,
// while kinds that sample independently (Sample) should fold it in.
type Factory func(shard int) (core.Summary, error)

// Config tunes the engine; zero values select defaults.
type Config struct {
	// Shards is the ingest fan-out (default runtime.GOMAXPROCS(0)).
	Shards int
	// Queue is the per-shard channel depth (default 256): the slack
	// between Observe callers and shard workers before backpressure.
	Queue int
	// BatchChunk caps the rows per shard chunk that ObserveBatch
	// routes in one channel send (default 256).
	BatchChunk int
	// QueryWorkers bounds how many (target, column set) groups of
	// queries QueryBatch evaluates at a time (default
	// runtime.GOMAXPROCS(0)).
	QueryWorkers int
	// Log, when non-nil, is the durability tee: every accepted batch
	// is appended to it before it is routed to a shard, so a crashed
	// process can be rebuilt by replaying the log (see internal/store
	// and the durability section of ARCHITECTURE.md). Ingestion
	// through a log is serialized — append order in the log is exactly
	// shard-routing order, which is what makes replay reproduce the
	// shard state bit for bit.
	Log Log
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 256
	}
	if c.BatchChunk <= 0 {
		c.BatchChunk = 256
	}
	if c.QueryWorkers <= 0 {
		c.QueryWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// shardMsg is one channel element: a pooled chunk of rows, or a
// barrier (ack != nil) that pauses the worker until resume closes.
type shardMsg struct {
	chunk  *chunk
	ack    chan<- struct{}
	resume <-chan struct{}
}

// chunk is one recycled ingest arena: up to Config.BatchChunk rows in
// the engine's packed layout (words.Packing), Stride() bytes a row.
// routeBatch takes a chunk from the engine's free-list, fills it, and
// sends it; the receiving worker returns it to the free-list once its
// summary's ObservePacked call has consumed the rows (summaries never
// retain batch views, per the PackedBatch contract).
type chunk struct {
	rows []byte
}

// subspaceSpec records one engine-level subspace registration, so
// merge snapshots can be rebuilt with the same registry structure as
// the shards.
type subspaceSpec struct {
	cols    words.ColumnSet
	factory Factory
}

// Sharded is the engine: N shard summaries ingesting in parallel, one
// merged snapshot serving queries. Each shard summary lives inside a
// registry.Registry, so subspace summaries registered through
// RegisterSubspace ingest alongside the catch-all and the query
// planner can route to them. It implements core.Summary, so a sharded
// engine drops in anywhere a summary does; its query methods forward
// to the snapshot and return core.ErrUnsupported when the underlying
// summary kind cannot answer the class.
type Sharded struct {
	cfg     Config
	factory Factory
	pk      words.Packing // the shards' packed row layout
	shards  []*registry.Registry
	chans   []chan shardMsg
	workers sync.WaitGroup

	// staged recycles the *words.PackedBatch a u16 batch is packed into
	// at the door, whole, before any of its chunks is routed: the pack
	// checks every symbol, so a batch with one outside the alphabet is
	// refused with nothing logged or routed.
	staged sync.Pool

	next     atomic.Uint64 // round-robin routing counter
	enqueued atomic.Int64  // rows accepted (the freshness clock)
	closed   atomic.Bool

	// arenaFree recycles chunk arenas between routeBatch (producer) and
	// the shard workers (consumers): a fixed free-list sized at
	// construction, so batched ingest allocates nothing per chunk AND
	// the arena working set stays small enough to be cache-resident.
	// The bound matters more than the reuse: the first locked
	// instruction after the chunk copy (the routing counter) stalls
	// until the copy's stores drain, and with an unbounded pool cycling
	// through megabytes of arenas that drain goes to DRAM — measured at
	// ~350ns per chunk, versus single-digit ns when the same few arenas
	// stay hot in cache. Taking from an empty free-list blocks, which
	// also bounds the memory a fast producer can pin ahead of slow
	// workers (the per-shard Queue depth alone allows Shards·Queue
	// chunks in flight).
	arenaFree chan *chunk

	// log is the optional durability tee (Config.Log); logMu
	// serializes append+route sequences against each other and against
	// the checkpoint cut, so the log order, the routing order, and the
	// cut LSN always agree. Both are untouched when log is nil.
	log   Log
	logMu sync.Mutex

	mu      sync.Mutex // serializes quiesce + epoch rebuild
	subs    []subspaceSpec
	absorbs int // source installs and removals; guards late registration

	// sources holds the latest summary absorbed per named source
	// (AbsorbSource), merged into every epoch on top of the local
	// shards: each absorb *replaces* the name's summary, so a re-sent
	// cumulative snapshot is not double-counted. Guarded by mu.
	sources map[string]core.Summary

	// cur is the serving epoch: an immutable merged snapshot readers
	// load without locks. It is nil before the first build and after
	// any mutation that invalidates merged state wholesale (a source
	// absorbed or removed, Restore, subspace registration). All stores
	// happen under mu; epochSeq (also under mu) numbers the builds.
	cur      atomic.Pointer[epoch]
	epochSeq uint64

	// waiters counts AwaitChange callers, and changed is the channel
	// they block on: wake closes it (and clears it for the next waiter)
	// under changeMu. While no one waits, a routed batch pays one load
	// of waiters and nothing else.
	waiters  atomic.Int32
	changeMu sync.Mutex
	changed  chan struct{}
}

// epoch is one published read snapshot: the merged registry and the
// cut coordinates freshness checks and staleness reporting need. Epochs
// are immutable after publication — readers share them freely.
type epoch struct {
	reg     *registry.Registry
	seq     uint64 // monotonic build number
	rows    int64  // accepted-rows clock read before the cut's barrier
	built   time.Time
	size    int   // total shard (and source) SizeBytes at the cut
	srcRows int64 // rows contributed by AbsorbSource donors at the cut
}

// NewSharded builds the engine and starts its shard workers. The
// factory is probed immediately: every shard summary must be mergeable
// and share the same shape, and is wrapped in a subspace-free
// registry — so it must not itself be a *registry.Registry. Subspaces
// join only through RegisterSubspace.
func NewSharded(factory Factory, cfg Config) (*Sharded, error) {
	cfg = cfg.withDefaults()
	s := &Sharded{
		cfg:     cfg,
		factory: factory,
		log:     cfg.Log,
		shards:  make([]*registry.Registry, cfg.Shards),
		chans:   make([]chan shardMsg, cfg.Shards),
	}
	for i := range s.shards {
		reg, err := s.buildShard(i)
		if err != nil {
			return nil, err
		}
		if i > 0 && (reg.Dim() != s.shards[0].Dim() || reg.Alphabet() != s.shards[0].Alphabet()) {
			return nil, fmt.Errorf("engine: shard %d shape %d/[%d] differs from shard 0 %d/[%d]",
				i, reg.Dim(), reg.Alphabet(), s.shards[0].Dim(), s.shards[0].Alphabet())
		}
		s.shards[i] = reg
		s.chans[i] = make(chan shardMsg, cfg.Queue)
	}
	// 2 chunks per shard keep every worker fed while the producer fills
	// the next arena; the +2 slack covers the producer's chunk in hand
	// and one in transit. See the arenaFree field comment for why this
	// stays deliberately small.
	s.pk = words.NewPacking(s.shards[0].Dim(), s.shards[0].Alphabet())
	s.staged.New = func() any { return new(words.PackedBatch) }
	arenaCap := cfg.BatchChunk * s.pk.Stride()
	depth := 2*cfg.Shards + 2
	s.arenaFree = make(chan *chunk, depth)
	for i := 0; i < depth; i++ {
		s.arenaFree <- &chunk{rows: make([]byte, 0, arenaCap)}
	}
	s.workers.Add(cfg.Shards)
	for i := range s.shards {
		go s.worker(i)
	}
	return s, nil
}

// buildShard constructs the registry for one shard (or merge
// snapshot) index: the factory's base summary wrapped in a registry,
// plus one summary per registered subspace. Every member must be
// mergeable, or snapshots could not be built.
func (s *Sharded) buildShard(idx int) (*registry.Registry, error) {
	base, err := s.factory(idx)
	if err != nil {
		return nil, fmt.Errorf("engine: shard %d factory: %w", idx, err)
	}
	if _, ok := base.(core.Mergeable); !ok {
		return nil, fmt.Errorf("engine: %s summary is not mergeable", base.Name())
	}
	reg, err := registry.New(base)
	if err != nil {
		return nil, fmt.Errorf("engine: shard %d: %w", idx, err)
	}
	for _, sp := range s.subs {
		sub, err := sp.factory(idx)
		if err != nil {
			return nil, fmt.Errorf("engine: subspace %v factory: %w", sp.cols, err)
		}
		if _, ok := sub.(core.Mergeable); !ok {
			return nil, fmt.Errorf("engine: subspace %v %s summary is not mergeable", sp.cols, sub.Name())
		}
		if err := reg.RegisterSubspace(sp.cols, sub); err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", idx, err)
		}
	}
	return reg, nil
}

func (s *Sharded) worker(i int) {
	defer s.workers.Done()
	sum := s.shards[i]
	// One long-lived batch header per worker, rebound to each arriving
	// chunk's arena: no per-chunk allocation on the ingest path.
	var batch words.PackedBatch
	for m := range s.chans[i] {
		if m.ack != nil {
			m.ack <- struct{}{}
			<-m.resume
			continue
		}
		ch := m.chunk
		batch.Bind(s.pk, ch.rows)
		sum.ObservePacked(&batch)
		ch.rows = ch.rows[:0]
		s.arenaFree <- ch
	}
}

// Observe routes one row as a one-row batch; see ObserveBatch, whose
// contract (concurrency, the shape check in the caller, the durability
// log, no use after Close) it shares.
func (s *Sharded) Observe(w words.Word) {
	s.ObserveBatch(words.RowBatch(w))
}

// ObserveBatch routes a whole batch of rows to the shard workers in
// chunks of at most Config.BatchChunk rows: the batch is packed once
// (words.Packing's layout), then each chunk takes one arena copy of
// its packed bytes and one channel send. Chunks are distributed
// round-robin and each worker feeds its shard summary's ObservePacked;
// how a stream is cut into batches and chunks only moves rows between
// shards, which the merge contract makes invisible. Safe for
// concurrent callers; b is not retained and may be reused (or mutated)
// as soon as the call returns. It must not be called after Close, and
// it panics in the caller if b's dimension is not the engine's.
//
// A chunk counts as accepted only once it is in the shard queue: the
// accepted-rows clock ticks after the channel send, so a concurrent
// Flush that observes the new count is guaranteed to find the rows
// behind its quiesce barrier and reflect them in the snapshot.
//
// With a durability log configured the whole batch is appended as one
// record before its chunks are routed. A batch with a symbol outside
// the alphabet, or whose append fails, is refused with nothing routed;
// this signature cannot report either, so it panics in the caller —
// servers use ObserveBatchDurable, which returns the error.
func (s *Sharded) ObserveBatch(b *words.Batch) {
	if err := s.ObserveBatchDurable(b); err != nil {
		panic(fmt.Sprintf("engine: batch refused: %v", err))
	}
}

// ObserveBatchDurable is ObserveBatch with the refusals surfaced: the
// batch is packed first, and a symbol outside the alphabet is returned
// as an error with nothing logged or routed; with a log configured the
// batch is then appended to it, and an append failure is returned with
// nothing routed — the engine and the log stay consistent and the
// caller (the daemon's observe handler) can refuse the request.
//
// This is the tee point. Log order must equal routing order or replay
// would re-shard rows differently than the original run, so the whole
// append+route sequence holds logMu — durable ingestion is serialized,
// which the log's own disk write would largely force anyway. The pack
// runs before it, outside the lock. The log packs the batch for its
// record itself (Log.AppendBatch takes u16 rows), so a durable batch
// is packed twice.
func (s *Sharded) ObserveBatchDurable(b *words.Batch) error {
	if s.closed.Load() {
		panic("engine: ObserveBatch after Close")
	}
	if b.Dim() != s.Dim() {
		panic(fmt.Sprintf("engine: batch dimension %d != engine dimension %d", b.Dim(), s.Dim()))
	}
	pb, err := s.pack(b)
	if err != nil {
		return err
	}
	defer s.staged.Put(pb)
	if s.log != nil {
		s.logMu.Lock()
		defer s.logMu.Unlock()
		if err := s.log.AppendBatch(b); err != nil {
			return err
		}
	}
	s.routeBatch(pb)
	return nil
}

// pack packs b whole into a staged batch in the engine's layout,
// checking every symbol against the alphabet; the caller returns the
// batch to s.staged once it is routed. On a symbol outside the
// alphabet it returns an error naming it and keeps nothing.
func (s *Sharded) pack(b *words.Batch) (*words.PackedBatch, error) {
	pb := s.staged.Get().(*words.PackedBatch)
	if i := pb.Pack(s.pk, b); i >= 0 {
		s.staged.Put(pb)
		return nil, fmt.Errorf("engine: batch row %d symbol %d outside alphabet [%d]", i/b.Dim(), b.Symbols()[i], s.Alphabet())
	}
	return pb, nil
}

// routeBatch distributes a packed batch's chunks to the shard workers
// (see ObserveBatch for the routing contract). Each chunk's bytes are
// copied into a pooled arena — the copy is what lets the caller reuse
// the batch the moment routing returns, and the pool is what keeps the
// copy from costing an allocation per chunk. Every caller checks that
// the batch is in the engine's layout, and every arena holds
// BatchChunk rows of it, so a chunk always fits.
func (s *Sharded) routeBatch(b *words.PackedBatch) {
	n := b.Len()
	for lo := 0; lo < n; lo += s.cfg.BatchChunk {
		hi := min(lo+s.cfg.BatchChunk, n)
		ch := <-s.arenaFree
		ch.rows = append(ch.rows[:0], b.Slice(lo, hi).Rows()...)
		i := s.next.Add(1) % uint64(len(s.chans))
		s.chans[i] <- shardMsg{chunk: ch}
		s.enqueued.Add(int64(hi - lo))
	}
	s.wake()
}

// wake releases every AwaitChange caller so each re-checks its epoch.
// It runs after each change to the accepted-rows clock or the serving
// epoch, and costs one atomic load when no one waits.
func (s *Sharded) wake() {
	if s.waiters.Load() == 0 {
		return
	}
	s.changeMu.Lock()
	if s.changed != nil {
		close(s.changed)
		s.changed = nil
	}
	s.changeMu.Unlock()
}

// AwaitChange blocks until the epoch numbered seq would no longer be
// served — no epoch is published, a different one is, or rows were
// accepted past its cut — and then returns nil at once; if ctx ends
// first it returns ctx.Err(). A caller that saw epoch seq (through
// SnapshotInfo) uses it to wait for the next answer to differ instead
// of polling.
//
// Waking is ordered against the change it signals: a writer bumps the
// row clock (or stores the epoch) before it reads the waiter count,
// and a waiter counts itself and takes the channel before it reads the
// clock, so either the writer sees the waiter and closes its channel
// or the waiter sees the change.
func (s *Sharded) AwaitChange(ctx context.Context, seq uint64) error {
	s.waiters.Add(1)
	defer s.waiters.Add(-1)
	for {
		s.changeMu.Lock()
		if s.changed == nil {
			s.changed = make(chan struct{})
		}
		ch := s.changed
		s.changeMu.Unlock()
		if e := s.cur.Load(); e == nil || e.seq != seq || e.rows != s.enqueued.Load() {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// quiesce pauses every worker at a channel barrier (all previously
// enqueued rows are fully observed first), runs f, then resumes them.
// Callers must hold s.mu.
func (s *Sharded) quiesce(f func() error) error {
	if s.chans == nil {
		// Closed: the workers are gone and the shards are idle.
		return f()
	}
	resume := make(chan struct{})
	acks := make(chan struct{}, len(s.chans))
	for _, ch := range s.chans {
		ch <- shardMsg{ack: acks, resume: resume}
	}
	for range s.chans {
		<-acks
	}
	err := f()
	close(resume)
	return err
}

// currentEpoch is the read path's one entry point: the published
// epoch is served lock-free iff it covers every accepted row, and
// rebuilt otherwise.
func (s *Sharded) currentEpoch() (*epoch, error) {
	if e := s.cur.Load(); e != nil && e.rows == s.enqueued.Load() {
		return e, nil
	}
	return s.refreshEpoch()
}

// refreshEpoch rebuilds the serving epoch under mu, checking again
// first: a concurrent caller may have just rebuilt it.
func (s *Sharded) refreshEpoch() (*epoch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.cur.Load(); e != nil && e.rows == s.enqueued.Load() {
		return e, nil
	}
	return s.rebuildLocked()
}

// rebuildLocked cuts and publishes a new epoch; callers hold mu.
//
// The accepted-rows clock is read before posting the barrier: every
// row counted by now was sent before it was counted, so it sits in a
// shard queue ahead of the barrier and lands in this merge. The merge
// may additionally pick up rows whose Observe has sent but not yet
// counted; recording the pre-barrier clock (rather than the merge's
// own row count) keeps the freshness check sound — when a later load
// matches the epoch's rows, the accepted set is unchanged and fully
// contained in the snapshot. Counting merged rows instead would let a
// sent-but-uncounted row masquerade as a later accepted one and serve
// an epoch missing it.
//
// Inside the barrier the epoch starts as a copy of shard 0's registry
// when every member of it clones (registry.Registry.Clone: nets and
// registered subspaces), and the other shards merge into that copy.
// The copy is bit for bit the fresh registry shard 0 would have merged
// into, so the epoch is the same either way; it only skips building an
// empty net and re-inserting every sketch of shard 0. Other kinds
// start from a fresh registry into which every shard merges
// (ARCHITECTURE.md, "The epoch read path", says why).
func (s *Sharded) rebuildLocked() (*epoch, error) {
	accepted := s.enqueued.Load()
	var merged *registry.Registry
	size := 0
	err := s.quiesce(func() error {
		first := 0
		if c, ok := s.shards[0].Clone(); ok {
			merged, first = c, 1
			size += s.shards[0].SizeBytes()
		} else {
			var err error
			if merged, err = s.buildShard(len(s.shards)); err != nil {
				return fmt.Errorf("engine: snapshot factory: %w", err)
			}
		}
		for i, sh := range s.shards[first:] {
			// Trusted path: the snapshot and the shards came from the
			// same factories, so the clone-validating Merge would only
			// tax every rebuild with a wire round trip per shard. An
			// exact shard's rows are adopted by reference, not copied:
			// once the barrier releases, its worker appends past the
			// prefix this epoch reads.
			if err := merged.MergeTrusted(sh); err != nil {
				return fmt.Errorf("engine: merging shard %d: %w", first+i, err)
			}
			size += sh.SizeBytes()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Source summaries live outside the shards, so they merge after the
	// barrier releases the workers — donors are immutable between
	// absorbs and need no quiesce.
	srcSize, srcRows, err := s.mergeSourcesInto(merged)
	if err != nil {
		return nil, err
	}
	return s.publishLocked(merged, accepted, size+srcSize, srcRows), nil
}

// mergeSourcesInto folds the latest summary of every absorbed source
// into a freshly merged registry, in sorted name order so rebuilds are
// deterministic, and reports the donors' total size and row count.
// Callers hold mu. Each donor was validated once, when AbsorbSource
// merged it into a probe, so the trusted merge runs here: no wire
// clone per source per epoch. A failed trusted merge can leave the
// registry partially merged, and rebuildLocked then returns before
// publishing it. The merge never mutates the stored donor (an exact
// donor's rows are shared read-only), so the same summary can be
// re-merged into every subsequent epoch.
func (s *Sharded) mergeSourcesInto(merged *registry.Registry) (size int, rows int64, err error) {
	if len(s.sources) == 0 {
		return 0, 0, nil
	}
	names := make([]string, 0, len(s.sources))
	for name := range s.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		donor := s.sources[name]
		if err := merged.MergeTrusted(donor); err != nil {
			return 0, 0, fmt.Errorf("engine: merging source %q: %w", name, err)
		}
		size += donor.SizeBytes()
		rows += donor.Rows()
	}
	return size, rows, nil
}

// publishLocked installs a merged registry as the new serving epoch;
// callers hold mu.
func (s *Sharded) publishLocked(merged *registry.Registry, accepted int64, size int, srcRows int64) *epoch {
	s.epochSeq++
	e := &epoch{
		reg:     merged,
		seq:     s.epochSeq,
		rows:    accepted,
		built:   time.Now(),
		size:    size,
		srcRows: srcRows,
	}
	s.cur.Store(e)
	s.wake()
	return e
}

// invalidateLocked drops the serving epoch, so the next read rebuilds
// it, and wakes AwaitChange callers; callers hold mu.
func (s *Sharded) invalidateLocked() {
	s.cur.Store(nil)
	s.wake()
}

// EpochInfo describes the epoch a read was served from: its build
// number, the accepted-rows clock at its cut, how many rows had been
// accepted past the cut when the info was captured, its wall-clock
// age, and the total shard space at the cut.
type EpochInfo struct {
	// Seq is the epoch's monotonic build number (restarts at 1 per
	// process).
	Seq uint64
	// Rows is the accepted-rows clock at the epoch's cut: every row
	// accepted before it is reflected in served answers.
	Rows int64
	// StalenessRows counts the rows accepted after the cut by the time
	// the info was captured: writers concurrent with the read, never
	// rows accepted before it started.
	StalenessRows int64
	// Age is the wall-clock time since the cut.
	Age time.Duration
	// SizeBytes totals the shard summaries' (and absorbed source
	// donors') space at the cut (the engine's steady-state space; the
	// merged epoch itself is transient and not counted).
	SizeBytes int
	// MergedRows is the total row count the epoch's merged registry
	// serves: the local accepted-rows clock plus the rows contributed
	// by absorbed sources (AbsorbSource). Equal to Rows on engines
	// without sources; an aggregator's convergence is read off this.
	MergedRows int64
	// Memo totals what the epoch's summaries that memoize per-column-set
	// state (core.Exact) did with it since the cut: many builds and few
	// hits mean queries are slow because every column set is new.
	Memo core.MemoStats
}

// epochInfo captures the caller-facing view of e at read time.
func (s *Sharded) epochInfo(e *epoch) EpochInfo {
	info := EpochInfo{
		Seq:           e.seq,
		Rows:          e.rows,
		StalenessRows: s.enqueued.Load() - e.rows,
		Age:           time.Since(e.built),
		SizeBytes:     e.size,
		MergedRows:    e.rows + e.srcRows,
	}
	add := func(sum core.Summary) {
		if m, ok := sum.(interface{ MemoStats() core.MemoStats }); ok {
			st := m.MemoStats()
			info.Memo.Hits += st.Hits
			info.Memo.Builds += st.Builds
			info.Memo.Evictions += st.Evictions
			info.Memo.BuildTime += st.BuildTime
		}
	}
	add(e.reg.Full())
	for i := range e.reg.NumSubspaces() {
		_, sum := e.reg.Subspace(i)
		add(sum)
	}
	return info
}

// SnapshotInfo is Flush plus the serving epoch's metadata, for
// callers that surface staleness (the daemon's summary and stats
// endpoints).
func (s *Sharded) SnapshotInfo() (core.Summary, EpochInfo, error) {
	e, err := s.currentEpoch()
	if err != nil {
		return nil, EpochInfo{}, err
	}
	return e.reg, s.epochInfo(e), nil
}

// Flush returns the merged view of all shards from the serving epoch,
// rebuilding it whenever rows have arrived since the last build, so
// every row accepted so far is reflected in it. The returned summary
// is never mutated again, so callers may query it concurrently.
func (s *Sharded) Flush() (core.Summary, error) {
	e, err := s.currentEpoch()
	if err != nil {
		return nil, err
	}
	return e.reg, nil
}

// AbsorbSource installs sum as the latest state of the named source:
// the one way a summary built elsewhere (a pull, a hand-off, a push)
// enters the engine. A source is replaced wholesale — a writer
// re-sending its cumulative snapshot (same name, more rows) supersedes
// the previous one instead of double-counting it. The absorbed state
// is merged into every subsequent epoch on top of the local shards.
//
// The donor is validated against a factory-fresh registry before any
// state changes: a blob of the wrong shape, configuration, or subspace
// structure is refused (wrapping core.ErrIncompatibleMerge where the
// merge rules do) and the engine is unchanged. The probe is discarded
// either way, so it takes the trusted merge: a partial merge into it
// is harmless, and the donor is not cloned through the wire. On
// success the previous summary for name (if any) is dropped, the
// serving epoch is invalidated, and late subspace registration is
// blocked. The donor must not be mutated by the caller afterwards; the
// engine re-merges it into every epoch it serves.
//
// The engine does not log a source: a durable daemon logs the blob
// itself, and CheckpointState carries the source table.
func (s *Sharded) AbsorbSource(name string, sum core.Summary) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.absorbSourceLocked(name, sum)
}

// absorbSourceLocked implements AbsorbSource; callers hold mu.
func (s *Sharded) absorbSourceLocked(name string, sum core.Summary) error {
	if name == "" {
		return errors.New("engine: empty source name")
	}
	probe, err := s.buildShard(len(s.shards))
	if err != nil {
		return fmt.Errorf("engine: probe for source %q: %w", name, err)
	}
	if err := probe.MergeTrusted(sum); err != nil {
		return fmt.Errorf("engine: absorbing source %q: %w", name, err)
	}
	if s.sources == nil {
		s.sources = make(map[string]core.Summary)
	}
	s.sources[name] = sum
	// Any absorbed state blocks late subspace registration (see
	// registerSubspaceLocked), and the epoch drops outright so the new
	// source state can never be hidden behind a fresh-looking epoch.
	s.absorbs++
	s.invalidateLocked()
	return nil
}

// RemoveSource drops a previously absorbed source's state and reports
// whether the source was present. The next epoch rebuild serves
// answers without the source's contribution — the membership-change
// counterpart to AbsorbSource: when an ingest node leaves the cluster
// and its summary is handed off to a successor, the aggregator must
// drop its direct copy of the departed node or the successor's next
// export would double-count every handed-off row.
func (s *Sharded) RemoveSource(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sources[name]; !ok {
		return false
	}
	delete(s.sources, name)
	// Removal changes the queryable state exactly like an absorb does:
	// bump the absorb clock (it versions state, not a direction) and
	// drop the epoch so no reader sees the removed source again.
	s.absorbs++
	s.invalidateLocked()
	return true
}

// SourceInfo describes one absorbed source (AbsorbSource).
type SourceInfo struct {
	// Name is the source key (for an aggregator, the peer's URL).
	Name string `json:"name"`
	// Rows is the row count of the source's latest absorbed summary.
	Rows int64 `json:"rows"`
	// SizeBytes is that summary's space.
	SizeBytes int `json:"size_bytes"`
}

// Sources lists the absorbed sources in sorted name order.
func (s *Sharded) Sources() []SourceInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	infos := make([]SourceInfo, 0, len(s.sources))
	for name, sum := range s.sources {
		infos = append(infos, SourceInfo{Name: name, Rows: sum.Rows(), SizeBytes: sum.SizeBytes()})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// ErrRowsAccepted reports a RegisterSubspace call after the engine
// accepted rows; subspaces must be registered before ingestion so
// that every summary in the registry digests the identical stream.
var ErrRowsAccepted = errors.New("engine: rows already accepted; register subspaces before ingestion")

// RegisterSubspace provisions a dedicated summary for the column set
// c on every shard (and on all future merge snapshots): sub is called
// like the engine's own factory, with shard indices 0..Shards-1 and
// with index Shards per snapshot, and every summary it returns must
// be mergeable and share the engine's shape. After registration the
// query planner routes queries whose column set equals c to the
// subspace summary; see Plan in internal/registry.
//
// Registration must happen before ingestion: once the engine has
// accepted rows (Observe, ObserveBatch) or absorbed a source,
// RegisterSubspace fails with ErrRowsAccepted. Registering the same
// column set twice fails with registry.ErrDuplicateSubspace.
func (s *Sharded) RegisterSubspace(c words.ColumnSet, sub Factory) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registerSubspaceLocked(c, sub)
}

// RegisterSubspaceLogged registers like RegisterSubspace and then
// runs appendRecord (the caller's WAL write for the registration)
// before any other ingestion can append to the log: the whole
// sequence holds the ingestion lock, so the registration's log
// position always matches its engine order. Without this a row
// accepted between the registration and its log record would replay
// first on recovery and make the logged registration unapplicable
// (rows already accepted). If appendRecord fails the registration
// stays (it cannot be undone) and the error is returned; the next
// checkpoint cut (CheckpointState.Subspaces) then carries it.
func (s *Sharded) RegisterSubspaceLogged(c words.ColumnSet, sub Factory, appendRecord func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		s.logMu.Lock()
		defer s.logMu.Unlock()
	}
	if err := s.registerSubspaceLocked(c, sub); err != nil {
		return err
	}
	if appendRecord != nil {
		return appendRecord()
	}
	return nil
}

// registerSubspaceLocked implements registration; callers hold s.mu
// (and, when the registration must be logged, logMu).
func (s *Sharded) registerSubspaceLocked(c words.ColumnSet, sub Factory) error {
	if n := s.enqueued.Load(); n != 0 {
		return fmt.Errorf("%w (%d rows accepted)", ErrRowsAccepted, n)
	}
	// The row clock alone cannot gate this: sources never move it,
	// and a source summary built without the new subspace could not
	// merge into an epoch built with it.
	if s.absorbs != 0 {
		return fmt.Errorf("%w (%d summaries absorbed)", ErrRowsAccepted, s.absorbs)
	}
	built := make([]core.Summary, len(s.shards))
	for i := range built {
		sum, err := sub(i)
		if err != nil {
			return fmt.Errorf("engine: subspace %v factory: %w", c, err)
		}
		if _, ok := sum.(core.Mergeable); !ok {
			return fmt.Errorf("engine: subspace %v %s summary is not mergeable", c, sum.Name())
		}
		// Validate shape (and freshness) for every shard's summary up
		// front, so the all-or-nothing registration pass below cannot
		// fail on one shard after mutating another.
		if sum.Dim() != s.Dim() || sum.Alphabet() != s.Alphabet() {
			return fmt.Errorf("engine: subspace %v shard %d summary shape %d/[%d] differs from engine %d/[%d]",
				c, i, sum.Dim(), sum.Alphabet(), s.Dim(), s.Alphabet())
		}
		if sum.Rows() != 0 {
			return fmt.Errorf("engine: subspace %v shard %d summary already holds %d rows", c, i, sum.Rows())
		}
		built[i] = sum
	}
	// Registration must be all-or-nothing across shards. The row-clock
	// check above is only a fast path: Observe counts a row after the
	// channel send, so a racing row can be in flight past it — and the
	// quiesce barrier drains exactly such rows into their shards. So
	// the real check runs inside the barrier, where shard state is
	// stable: first verify every shard can register (no rows, no
	// duplicate), then mutate. The checks are uniform across shards
	// apart from row counts, which pass 1 covers, so pass 2 cannot
	// fail partway.
	err := s.quiesce(func() error {
		for i, reg := range s.shards {
			if n := reg.Rows(); n != 0 {
				return fmt.Errorf("%w (shard %d holds %d rows)", ErrRowsAccepted, i, n)
			}
		}
		for i, reg := range s.shards {
			if err := reg.RegisterSubspace(c, built[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("engine: registering subspace: %w", err)
	}
	s.subs = append(s.subs, subspaceSpec{cols: c, factory: sub})
	// The next epoch must carry the new registry structure.
	s.invalidateLocked()
	return nil
}

// SubspaceInfo describes one registered subspace of the engine.
type SubspaceInfo struct {
	// Cols is the registered column set.
	Cols words.ColumnSet
	// Name is the subspace summary's kind name.
	Name string
	// SizeBytes totals the subspace's space across all shards.
	SizeBytes int
}

// NumSubspaces returns the number of registered subspaces, without
// quiescing the workers — the cheap form for stats endpoints that
// only need the count.
func (s *Sharded) NumSubspaces() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Subspaces lists the registered subspaces in registration order. The
// walk quiesces the workers so sizes do not race ingestion.
func (s *Sharded) Subspaces() []SubspaceInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	infos := make([]SubspaceInfo, len(s.subs))
	if len(infos) == 0 {
		return infos
	}
	_ = s.quiesce(func() error {
		for i, sp := range s.subs {
			_, first := s.shards[0].Subspace(i)
			infos[i] = SubspaceInfo{Cols: sp.cols, Name: first.Name()}
			for _, reg := range s.shards {
				_, sum := reg.Subspace(i)
				infos[i].SizeBytes += sum.SizeBytes()
			}
		}
		return nil
	})
	return infos
}

// MarshalBinary implements encoding.BinaryMarshaler by serializing the
// merged snapshot: the wire form of a sharded engine is the wire form
// of the single summary equal to everything it has ingested (a whole
// registry blob when subspaces are registered). The engine itself is
// not reconstructible from the blob — decode it with
// core.UnmarshalSummary and, if sharded serving is needed again,
// install it as a source of a fresh engine (AbsorbSource).
func (s *Sharded) MarshalBinary() ([]byte, error) {
	snap, err := s.Flush()
	if err != nil {
		return nil, err
	}
	return core.MarshalSummary(snap)
}

// Close stops the shard workers. The engine still answers queries
// (and rebuilds snapshots) afterwards, but Observe must not be called
// concurrently with or after Close.
func (s *Sharded) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ch := range s.chans {
		close(ch)
	}
	s.workers.Wait()
	// Workers are gone; later snapshots must not post barriers.
	s.chans = nil
}

// NumShards returns the ingest fan-out N.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Dim returns d.
func (s *Sharded) Dim() int { return s.shards[0].Dim() }

// Alphabet returns Q.
func (s *Sharded) Alphabet() int { return s.shards[0].Alphabet() }

// Rows returns the number of rows accepted by Observe.
func (s *Sharded) Rows() int64 { return s.enqueued.Load() }

// SizeBytes totals the shard summaries' space as of the serving
// epoch's cut — the walk over the live shards happens once per epoch
// build (under its barrier), so polling callers like the daemon's
// stats endpoint no longer quiesce ingestion on every call. The merge
// snapshot is transient and not counted: steady-state space is the N
// shard summaries.
func (s *Sharded) SizeBytes() int {
	e, err := s.currentEpoch()
	if err != nil {
		return 0
	}
	return e.size
}

// Name identifies the engine and its base summary kind.
func (s *Sharded) Name() string {
	return fmt.Sprintf("sharded(%d×%s)", len(s.shards), s.shards[0].Name())
}
