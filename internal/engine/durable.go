package engine

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/words"
)

// This file is the engine's durability face: the Log tee interface
// (Config.Log), the checkpoint cut (CheckpointState), and the boot
// counterparts Restore and ReplayBatch. internal/store
// implements Log; cmd/projfreqd glues the two together. The
// correctness backbone is a single invariant:
//
//	log order == routing order == the checkpoint cut
//
// Appends hold logMu across the log write and the shard routing
// (ObserveBatchDurable), and CheckpointState reads the cut LSN
// and the routing clock while holding logMu inside the quiesce barrier
// — so a checkpoint's shard blobs contain exactly the records below
// its LSN, and replaying the records at or above it through the same
// routing code rebuilds the exact pre-crash shard state. Sources live
// outside the shards: the cut carries them, and the daemon logs them.

// Log is the durability tee the engine appends to before routing
// (implemented by *store.Store). Append calls are serialized by the
// engine (logMu); LSN must return the number of records appended so
// far — the cut coordinate CheckpointState captures.
type Log interface {
	// AppendBatch logs one accepted batch of rows (not retained).
	AppendBatch(b *words.Batch) error
	// LSN returns the next log sequence number.
	LSN() uint64
}

// ErrNoLog reports a durability operation on an engine configured
// without a Config.Log.
var ErrNoLog = errors.New("engine: no durability log configured")

// CheckpointState is a consistent cut of the engine for a checkpoint:
// the shard and source blobs plus exactly the bookkeeping a restarted
// engine needs to continue routing identically (see Restore).
type CheckpointState struct {
	// LSN is the log cut: every record below it is inside Shards,
	// every record at or above it must be replayed on top.
	LSN uint64
	// Next is the round-robin routing counter at the cut.
	Next uint64
	// Rows is the accepted-row clock at the cut.
	Rows int64
	// Absorbs counts the source installs and removals up to the cut;
	// restoring it keeps the late-subspace-registration gate closed
	// even once every source is gone.
	Absorbs int
	// Shards holds one wire blob (core.MarshalSummary of the shard's
	// registry) per ingest shard, in shard order.
	Shards [][]byte
	// Sources maps each source's name to its summary's wire blob.
	Sources map[string][]byte
}

// CheckpointState captures a checkpoint cut under the quiesce
// barrier: ingestion is paused at a point where the log, the routing
// clock, and the shard contents all agree, the coordinates are read,
// and then appenders resume (logMu is released) while the (slow)
// per-shard marshaling runs against the still-paused workers'
// summaries. New appends during marshaling land behind the barrier
// and after the cut LSN, so they belong to the replay range — the cut
// stays exact.
//
// The read path piggybacks on the same barrier: while each shard is
// marshaled, it is also merged into a fresh registry, which is
// published as the new serving epoch when the cut completes. One
// barrier thus buys both the durable image and a fresh read snapshot
// — after a checkpoint, reads reflect everything below its cut
// without paying a second quiesce.
func (s *Sharded) CheckpointState() (CheckpointState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return CheckpointState{}, ErrNoLog
	}
	st := CheckpointState{Shards: make([][]byte, len(s.shards))}
	// The epoch scaffold and its pre-barrier rows clock (see
	// rebuildLocked for why the clock must be read before the barrier).
	// A scaffold factory failure only skips the epoch refresh — the
	// checkpoint itself proceeds.
	merged, mergedErr := s.buildShard(len(s.shards))
	accepted := s.enqueued.Load()
	size := 0
	// Hold logMu while the barrier is posted: no append can be between
	// its log write and its channel send, so everything logged below
	// the cut LSN is in a queue ahead of the barrier — and therefore in
	// the shards once the workers ack.
	s.logMu.Lock()
	unlocked := false
	err := s.quiesce(func() error {
		st.LSN = s.log.LSN()
		st.Next = s.next.Load()
		st.Rows = s.enqueued.Load()
		st.Absorbs = s.absorbs
		s.logMu.Unlock()
		unlocked = true
		for i, sh := range s.shards {
			blob, err := core.MarshalSummary(sh)
			if err != nil {
				return fmt.Errorf("engine: marshaling shard %d for checkpoint: %w", i, err)
			}
			st.Shards[i] = blob
			if mergedErr == nil {
				mergedErr = merged.MergeTrusted(sh)
				size += sh.SizeBytes()
			}
		}
		return nil
	})
	if !unlocked {
		s.logMu.Unlock()
	}
	if err != nil {
		return CheckpointState{}, err
	}
	// Sources change only under mu, which this cut holds.
	st.Sources = make(map[string][]byte, len(s.sources))
	for name, sum := range s.sources {
		if st.Sources[name], err = core.MarshalSummary(sum); err != nil {
			return CheckpointState{}, fmt.Errorf("engine: marshaling source %q for checkpoint: %w", name, err)
		}
	}
	if mergedErr == nil {
		// Sources also belong in the published read epoch; a source
		// merge failure only skips the epoch refresh, like a scaffold
		// failure.
		if srcSize, srcRows, srcErr := s.mergeSourcesInto(merged); srcErr == nil {
			s.publishLocked(merged, accepted, size+srcSize, srcRows)
		}
	}
	return st, nil
}

// Restore rebuilds the engine from a checkpoint cut: each shard blob
// is decoded and merged into the corresponding (still empty) shard,
// each source is installed as AbsorbSource installs it, and the
// routing clock, the row clock, and the absorb count are set to the
// cut's — after which replaying the post-cut log records reproduces
// the pre-crash state exactly. The cut's LSN is the log's concern and
// is ignored here.
//
// The engine must be freshly constructed (no rows accepted, no
// absorbs) with the same shard count the checkpoint was cut at, and —
// when the checkpoint was taken with subspaces — the same subspaces
// already re-registered, since a shard blob's registry structure must
// match the shard it merges into. A failed restore can leave shards
// partially restored; callers treat it as fatal (the daemon refuses
// to start).
func (s *Sharded) Restore(st CheckpointState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.enqueued.Load() != 0 || s.absorbs != 0 {
		return errors.New("engine: Restore on an engine that already accepted rows")
	}
	if st.Rows < 0 || st.Absorbs < 0 {
		return fmt.Errorf("engine: negative checkpoint clocks (rows %d, absorbs %d)", st.Rows, st.Absorbs)
	}
	if len(st.Shards) != len(s.shards) {
		return fmt.Errorf("engine: checkpoint holds %d shards, engine runs %d (restart with the same shard count)",
			len(st.Shards), len(s.shards))
	}
	decoded := make([]core.Summary, len(st.Shards))
	for i, blob := range st.Shards {
		sum, err := core.UnmarshalSummary(blob)
		if err != nil {
			return fmt.Errorf("engine: decoding checkpoint shard %d: %w", i, err)
		}
		decoded[i] = sum
	}
	err := s.quiesce(func() error {
		for i, sum := range decoded {
			// The validating Merge, not MergeTrusted: checkpoint blobs
			// come off a disk the engine did not watch. Merging into the
			// factory-fresh (empty) shard reproduces the decoded state
			// exactly — the same restore-by-merge rule the wire codecs
			// use.
			if err := s.shards[i].Merge(sum); err != nil {
				return fmt.Errorf("engine: restoring shard %d: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for name, blob := range st.Sources {
		sum, err := core.UnmarshalSummary(blob)
		if err == nil {
			err = s.absorbSourceLocked(name, sum)
		}
		if err != nil {
			return fmt.Errorf("engine: restoring source %q: %w", name, err)
		}
	}
	s.next.Store(st.Next)
	s.enqueued.Store(st.Rows)
	s.absorbs = st.Absorbs
	s.invalidateLocked()
	return nil
}

// ReplayBatch re-ingests one logged batch record during recovery: it
// routes exactly like ObserveBatch but never tees back into the log
// the record came from. The batch is validated against the engine's
// shape first, since it was read from disk rather than built by a
// caller the type system vouches for.
func (s *Sharded) ReplayBatch(b *words.Batch) error {
	if s.closed.Load() {
		return errors.New("engine: ReplayBatch after Close")
	}
	if b.Dim() != s.Dim() {
		return fmt.Errorf("engine: replayed batch dimension %d != engine dimension %d", b.Dim(), s.Dim())
	}
	if err := b.Validate(s.Alphabet()); err != nil {
		return fmt.Errorf("engine: replayed batch: %w", err)
	}
	s.routeBatch(b)
	return nil
}
