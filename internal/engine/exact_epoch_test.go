package engine

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/words"
)

// An exact epoch shares its shards' rows instead of copying them
// (core.Exact.Merge adopts sealed runs), so a shard worker appends to
// the same arrays readers of the published epoch are reading. These
// tests pin that this is both cheap and safe; CI runs them under -race
// several times over.

// distinctRows returns a batch of n rows over [4]^16 that no other
// (writer, first) pair produces: column 0 is the writer, columns 1–14
// spell the row's index in base 4, and column 15 is always 0. So any
// N of them have F0 = F2 = N over every column, and F0 = 1, F2 = N²
// over column 15 alone, whichever writer's rows the N are.
func distinctRows(writer, first, n int) *words.Batch {
	b := words.NewBatch(16, n)
	for i := first; i < first+n; i++ {
		w := b.AppendRow()
		w[0] = uint16(writer)
		for j, k := 1, i; j < 15; j, k = j+1, k/4 {
			w[j] = uint16(k % 4)
		}
	}
	return b
}

// TestExactEpochReadersWhileShardsAppend runs 2 writers into a 2-shard
// exact engine while 4 readers cut epochs and query them: every answer
// must be the one the epoch's row count implies, and every read of one
// epoch must see the same bytes, while the shards keep appending to
// the runs the epoch shares.
func TestExactEpochReadersWhileShardsAppend(t *testing.T) {
	const (
		batches = 100
		rows    = 32 // one chunk per batch, so a batch lands whole
	)
	eng, err := NewSharded(exactFactory(16, 4), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	all := words.FullColumnSet(16)
	last := words.MustColumnSet(16, 15)

	var (
		writers sync.WaitGroup
		readers sync.WaitGroup
		done    atomic.Bool
		failed  atomic.Bool
		reads   atomic.Int64
		blobs   sync.Map // epoch seq → its first reader's MarshalBinary
		errs    = make(chan error, 4)
	)
	for w := range 2 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := range batches {
				eng.ObserveBatch(distinctRows(w, i*rows, rows))
				// Let a read land between batches, so epochs are cut
				// throughout the ingest rather than after it.
				for start := reads.Load(); reads.Load() == start && !failed.Load(); {
					runtime.Gosched()
				}
			}
		}()
	}
	read := func() error {
		snap, info, err := eng.SnapshotInfo()
		if err != nil {
			return err
		}
		n := snap.Rows()
		if n < info.Rows {
			return fmt.Errorf("epoch %d serves %d rows, fewer than its %d accepted", info.Seq, n, info.Rows)
		}
		q := snap.(interface {
			core.F0Querier
			core.FpQuerier
		})
		fn, want0 := float64(n), 0.0
		if n > 0 {
			want0 = 1
		}
		f0All, err0 := q.F0(all)
		f2All, err1 := q.Fp(all, 2)
		f0Last, err2 := q.F0(last)
		f2Last, err3 := q.Fp(last, 2)
		if err := errors.Join(err0, err1, err2, err3); err != nil {
			return err
		}
		if f0All != fn || f2All != fn || f0Last != want0 || f2Last != fn*fn {
			return fmt.Errorf("epoch %d at %d rows: F0, F2 = %v, %v over all columns and %v, %v over {15}",
				info.Seq, n, f0All, f2All, f0Last, f2Last)
		}
		blob, err := core.MarshalSummary(snap)
		if err != nil {
			return err
		}
		if len(blob) != 36+4*int(n) { // 16 symbols over [4], packed
			return fmt.Errorf("epoch %d at %d rows encodes to %d bytes", info.Seq, n, len(blob))
		}
		if first, loaded := blobs.LoadOrStore(info.Seq, blob); loaded && !bytes.Equal(first.([]byte), blob) {
			return fmt.Errorf("epoch %d changed between two reads", info.Seq)
		}
		return nil
	}
	for range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				if err := read(); err != nil {
					failed.Store(true)
					errs <- err
					return
				}
				reads.Add(1)
			}
		}()
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := read(); err != nil {
		t.Fatal(err)
	}
	if got, err := eng.F0(all); err != nil || got != 2*batches*rows {
		t.Fatalf("final F0 = %v, %v; want %d", got, err, 2*batches*rows)
	}
}

// TestFailedRebuildPublishesNothing pins the rule the trusted merges
// of a rebuild rely on: a rebuild that fails part-way returns before
// publishing, so no reader ever sees its partly merged registry, and
// the next successful cut serves exactly the shards and sources.
func TestFailedRebuildPublishesNothing(t *testing.T) {
	var broken atomic.Bool
	eng, err := NewSharded(func(shard int) (core.Summary, error) {
		if shard == 2 && broken.Load() {
			return core.NewExact(4, 4) // the snapshot can no longer merge a shard
		}
		return core.NewExact(4, 3)
	}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.AbsorbSource("peer-a", sourceDonor(t, 5, 1)); err != nil {
		t.Fatal(err)
	}
	eng.Observe(words.Word{2, 2, 2, 2})
	_, info, err := eng.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	eng.Observe(words.Word{2, 2, 2, 2})
	broken.Store(true)
	if _, _, err := eng.SnapshotInfo(); err == nil {
		t.Fatal("rebuild into a mismatched snapshot succeeded")
	}
	if cur := eng.cur.Load(); cur == nil || cur.seq != info.Seq {
		t.Fatalf("the failed rebuild published an epoch (serving %+v, was seq %d)", cur, info.Seq)
	}
	broken.Store(false)
	snap, next, err := eng.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != info.Seq+1 || snap.Rows() != 7 {
		t.Fatalf("after recovery: seq %d rows %d, want seq %d rows 7", next.Seq, snap.Rows(), info.Seq+1)
	}
	if got, err := eng.Frequency(words.FullColumnSet(4), words.Word{1, 1, 1, 1}); err != nil || got != 5 {
		t.Fatalf("source rows after recovery: %v, %v; want 5", got, err)
	}
}
