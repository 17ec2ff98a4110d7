package node

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/words"
)

// This file is the daemon's durability glue: boot recovery, the
// checkpoint cut, the automatic checkpointer, and the admin endpoint.
// The layering: internal/store owns files and frames, internal/engine
// owns the consistent cut (CheckpointState/Restore/ReplayBatch), and
// this file maps between them — including the one piece of state only the
// daemon knows, the subspace registrations' provisioning kind strings
// (subspaceFactory input), which ride the WAL as registration records
// and every checkpoint as SubspaceMeta.

// errSubspaceNotLogged marks a registration that mutated the engine
// but could not be made durable; the handler turns it into a 500.
var errSubspaceNotLogged = errors.New("registration applied but not logged")

// errNotDurable reports a durability operation on a daemon started
// without -data-dir.
var errNotDurable = errors.New("daemon runs without -data-dir")

// recordSubspace makes one accepted registration durable and adds it
// to the in-memory meta list checkpoints embed. Callers hold regMu.
// The empty kind string is canonicalized so replay hands the builder
// the same spelling every time.
//
// The meta list is appended even when the WAL write fails: the engine
// registration has already happened and cannot be undone, and a
// checkpoint whose shard blobs carry a subspace its metadata omits
// would be unrecoverable (Restore's structure validation refuses it).
// With meta and engine in lockstep, the next successful checkpoint
// re-establishes full durability for the registration; until then a
// crash recovers to the registration-free prefix — which matches what
// the client was told, since this path still returns an error.
func (n *Node) recordSubspace(c words.ColumnSet, summary string) error {
	if n.wal == nil {
		// Nothing to record: without a store there are no checkpoints
		// to embed the meta list in and no replay to re-register from.
		return nil
	}
	if summary == "" {
		summary = "registered"
	}
	meta := store.SubspaceMeta{Mask: c.Mask(), Summary: summary}
	n.subMeta = append(n.subMeta, meta)
	if err := n.wal.AppendSubspace(meta.Mask, meta.Summary); err != nil {
		return fmt.Errorf("%w: %v", errSubspaceNotLogged, err)
	}
	return nil
}

// applySubspaceMeta re-registers one recovered subspace registration
// (from a checkpoint's metadata or a WAL record) through the same
// builder live registrations use.
func (n *Node) applySubspaceMeta(meta store.SubspaceMeta) error {
	c, err := words.ColumnSetFromMask(meta.Mask, n.eng.Dim())
	if err != nil {
		return fmt.Errorf("subspace mask %#x: %w", meta.Mask, err)
	}
	factory, err := n.subspaceFactory(c, meta.Summary)
	if err != nil {
		return fmt.Errorf("subspace %v: %w", c, err)
	}
	if err := n.eng.RegisterSubspace(c, factory); err != nil {
		return err
	}
	n.subMeta = append(n.subMeta, meta)
	return nil
}

// recover rebuilds the engine from the data directory before the
// daemon starts serving: restore the newest checkpoint (re-register
// its subspaces first, so the shard blobs' registry structure
// matches), then replay the WAL tail: batches through ReplayBatch,
// which routes like live ingestion but never tees back into the log,
// and sources through AbsorbSource, which the engine never logs. Runs
// single-threaded at boot; any failure is fatal, because serving from
// a partially recovered state would silently drop acknowledged data.
func (n *Node) recover() error {
	start := time.Now()
	var batch words.Batch // rebound to each batch record's rows
	info, err := n.wal.Recover(func(ck *store.Checkpoint) error {
		for _, meta := range ck.Subspaces {
			if err := n.applySubspaceMeta(meta); err != nil {
				return fmt.Errorf("re-registering checkpoint subspace: %w", err)
			}
		}
		return n.eng.Restore(engine.CheckpointState{
			Next:    ck.Next,
			Rows:    ck.Rows,
			Absorbs: int(ck.Absorbs),
			Shards:  ck.Shards,
			Sources: ck.Sources,
		})
	}, func(rec store.Record) error {
		switch rec.Kind {
		case store.RecordBatch:
			batch.Bind(n.eng.Dim(), rec.Rows)
			return n.eng.ReplayBatch(&batch)
		case store.RecordSource:
			sum, err := core.UnmarshalSummary(rec.Blob)
			if err != nil {
				return fmt.Errorf("decoding source %q: %w", rec.Source, err)
			}
			return n.eng.AbsorbSource(rec.Source, sum)
		case store.RecordSubspace:
			return n.applySubspaceMeta(store.SubspaceMeta{Mask: rec.Mask, Summary: rec.Summary})
		default:
			return fmt.Errorf("unknown WAL record kind %v", rec.Kind)
		}
	})
	if err != nil {
		return err
	}
	if info.Checkpoint {
		log.Printf("projfreqd: recovered checkpoint at LSN %d, replayed %d WAL records (%d rows) in %v; serving %d rows",
			info.CheckpointLSN, info.Records, info.Rows, time.Since(start).Round(time.Millisecond), n.eng.Rows())
	} else if info.Records > 0 {
		log.Printf("projfreqd: no checkpoint; replayed %d WAL records (%d rows) in %v; serving %d rows",
			info.Records, info.Rows, time.Since(start).Round(time.Millisecond), n.eng.Rows())
	} else {
		log.Printf("projfreqd: empty data directory; starting fresh")
	}
	n.lastCkptRows = n.eng.Rows()
	n.lastCkptTime = time.Now()
	// Heal the directory before serving: if records had to replay (the
	// next boot would repeat that work) or the newest checkpoint file
	// is not the one recovery restored (it is rotten — and its name
	// would keep the automatic triggers quiet, since they compare the
	// log end against the newest checkpoint's named cut), cut a fresh
	// checkpoint now. It lands at the current log end, compacting the
	// replayed tail and overwriting a rotten same-cut file.
	if stats := n.wal.Stats(); info.Records > 0 || (stats.Checkpoints > 0 && stats.CheckpointLSN != info.CheckpointLSN) {
		return n.cutCheckpoint("boot")
	}
	return nil
}

// checkpoint cuts a consistent engine image and writes it durably,
// compacting the WAL behind it. Safe for concurrent callers; only one
// checkpoint runs at a time.
func (n *Node) checkpoint() (store.Stats, error) {
	if n.wal == nil {
		return store.Stats{}, errNotDurable
	}
	n.ckptMu.Lock()
	defer n.ckptMu.Unlock()
	// regMu spans the cut and the metadata copy: a registration is
	// either in both the shard blobs and the subspace list, or in
	// neither.
	n.regMu.Lock()
	cs, err := n.eng.CheckpointState()
	var metas []store.SubspaceMeta
	if err == nil {
		metas = append(metas, n.subMeta...)
	}
	n.regMu.Unlock()
	if err != nil {
		return store.Stats{}, err
	}
	err = n.wal.WriteCheckpoint(&store.Checkpoint{
		LSN:       cs.LSN,
		Next:      cs.Next,
		Rows:      cs.Rows,
		Absorbs:   uint64(cs.Absorbs),
		Subspaces: metas,
		Shards:    cs.Shards,
		Sources:   cs.Sources,
	})
	if err != nil {
		return store.Stats{}, err
	}
	n.lastCkptRows = cs.Rows
	n.lastCkptTime = time.Now()
	return n.wal.Stats(), nil
}

// cutCheckpoint cuts a checkpoint and logs it as the given kind (boot,
// automatic, shutdown).
func (n *Node) cutCheckpoint(kind string) error {
	stats, err := n.checkpoint()
	if err != nil {
		return fmt.Errorf("%s checkpoint: %w", kind, err)
	}
	log.Printf("projfreqd: %s checkpoint at LSN %d (%d segments, %d log bytes)",
		kind, stats.CheckpointLSN, stats.Segments, stats.LogBytes)
	return nil
}

// checkpointDue reports whether the automatic triggers fire: enough
// new rows since the last cut, or enough time with any new records at
// all. Holding ckptMu keeps the last-cut bookkeeping stable.
func (n *Node) checkpointDue() bool {
	rowsTrigger, interval := n.cfg.CheckpointRows, n.cfg.CheckpointInterval
	n.ckptMu.Lock()
	defer n.ckptMu.Unlock()
	stats := n.wal.Stats()
	if stats.LSN == stats.CheckpointLSN && stats.Checkpoints > 0 {
		return false // nothing new since the last cut
	}
	if rowsTrigger > 0 && n.eng.Rows()-n.lastCkptRows >= rowsTrigger {
		return true
	}
	return interval > 0 && time.Since(n.lastCkptTime) >= interval && stats.LSN > stats.CheckpointLSN
}

// checkpointLoop is the automatic checkpointer: a coarse 1-second
// poll of the cheap trigger predicate, cutting a checkpoint when it
// fires. It exits when Close cancels ctx; Close then cuts the final
// checkpoint itself.
func (n *Node) checkpointLoop(ctx context.Context) {
	if n.cfg.CheckpointRows <= 0 && n.cfg.CheckpointInterval <= 0 {
		return
	}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if !n.checkpointDue() {
				continue
			}
			if err := n.cutCheckpoint("automatic"); err != nil {
				log.Printf("projfreqd: %v", err)
			}
		}
	}
}

// CheckpointResponse is the POST /v1/admin/checkpoint body: the
// store's shape after the cut.
type CheckpointResponse struct {
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	Rows          int64  `json:"rows"`
	Segments      int    `json:"segments"`
	LogBytes      int64  `json:"log_bytes"`
	Checkpoints   int    `json:"checkpoints"`
}

// handleAdminCheckpoint cuts a checkpoint on demand. 409 when the
// daemon runs without -data-dir (there is nothing to checkpoint).
func (n *Node) handleAdminCheckpoint(w http.ResponseWriter, r *http.Request) {
	stats, err := n.checkpoint()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errNotDurable) {
			status = http.StatusConflict
		}
		HTTPError(w, status, err)
		return
	}
	WriteJSON(w, http.StatusOK, CheckpointResponse{
		CheckpointLSN: stats.CheckpointLSN,
		Rows:          n.eng.Rows(),
		Segments:      stats.Segments,
		LogBytes:      stats.LogBytes,
		Checkpoints:   stats.Checkpoints,
	})
}
