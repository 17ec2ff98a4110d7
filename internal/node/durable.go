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
// this file maps between them. Subspace registrations ride the WAL as
// registration records and every checkpoint as SubspaceMeta, whose
// list the engine's cut supplies; "registered", the one kind
// subspaceFactory builds, is the kind string both carry.

// errSubspaceNotLogged marks a registration that mutated the engine
// but could not be made durable; the handler turns it into a 500.
var errSubspaceNotLogged = errors.New("registration applied but not logged")

// errNotDurable reports a durability operation on a daemon started
// without -data-dir.
var errNotDurable = errors.New("daemon runs without -data-dir")

// recordSubspace logs one accepted registration. The log, not only
// the checkpoints, must hold it: a directory whose checkpoints are all
// unreadable recovers by replaying the whole log.
//
// When the append fails the engine registration stays (it cannot be
// undone); the next checkpoint cut carries it, and until then a crash
// recovers to the registration-free prefix — which matches what the
// client was told, since this path returns an error.
func (n *Node) recordSubspace(c words.ColumnSet) error {
	if n.wal == nil {
		return nil
	}
	if err := n.wal.AppendSubspace(c.Mask(), "registered"); err != nil {
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
	return n.eng.RegisterSubspace(c, factory)
}

// recover rebuilds the engine from the data directory before the
// daemon starts serving: restore the newest checkpoint (re-register
// its subspaces first, so the shard blobs' registry structure
// matches), then replay the WAL tail: packed batch records through
// ReplayPacked, as their verified bodies lie in the segment, and u16
// ones an earlier encoder wrote through ReplayBatch — both route like
// live ingestion but never tee back into the log — and sources
// through AbsorbSource, which the engine never logs. Runs
// single-threaded at boot; any failure is fatal, because serving from
// a partially recovered state would silently drop acknowledged data.
// Its log line times the boot from start, taken before store.Open, so
// the Open scan is counted with the replay.
func (n *Node) recover(start time.Time) error {
	var batch words.Batch // rebound to each u16 batch record's rows
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
			if rec.Packed != nil {
				return n.eng.ReplayPacked(rec.Packed)
			}
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
	served, _ := n.servedRows("")
	took := time.Since(start).Round(time.Millisecond)
	if info.Checkpoint {
		log.Printf("projfreqd: recovered checkpoint at LSN %d, replayed %d WAL records (%d rows; read %d segments, skipped %d below the cut) in %v; serving %d rows",
			info.CheckpointLSN, info.Records, info.Rows, info.SegmentsRead, info.SegmentsSkipped, took, served)
	} else if info.Records > 0 {
		log.Printf("projfreqd: no checkpoint; replayed %d WAL records (%d rows; read %d segments, skipped %d below the cut) in %v; serving %d rows",
			info.Records, info.Rows, info.SegmentsRead, info.SegmentsSkipped, took, served)
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
	cs, err := n.eng.CheckpointState()
	if err != nil {
		return store.Stats{}, err
	}
	metas := make([]store.SubspaceMeta, len(cs.Subspaces))
	for i, c := range cs.Subspaces {
		metas[i] = store.SubspaceMeta{Mask: c.Mask(), Summary: "registered"}
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
	store.Stats
	// Rows is the local row clock after the cut.
	Rows int64 `json:"rows"`
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
	WriteJSON(w, http.StatusOK, CheckpointResponse{Stats: stats, Rows: n.eng.Rows()})
}
