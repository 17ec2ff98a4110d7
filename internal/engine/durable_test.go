package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/words"
)

// openLog opens a WAL store over dir for the test shape.
func openLog(t *testing.T, dir string, d, q int) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Dim: d, Alphabet: q, Fsync: store.FsyncNever, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// exactDonor builds an exact d-column summary of n rows that salt
// varies.
func exactDonor(t *testing.T, d, q, n, salt int) core.Summary {
	t.Helper()
	sum, err := core.NewExact(d, q)
	if err != nil {
		t.Fatal(err)
	}
	row := make(words.Word, d)
	for i := range n {
		for j := range row {
			row[j] = uint16((i*salt + j) % q)
		}
		sum.Observe(row)
	}
	return sum
}

// recoverEngine rebuilds an engine from dir the way the daemon boots:
// open the store, construct the engine over it, restore the newest
// checkpoint, replay the tail. The caller owns Close on both.
func recoverEngine(t *testing.T, dir string, factory Factory, cfg Config, d, q int) (*Sharded, *store.Store) {
	t.Helper()
	st := openLog(t, dir, d, q)
	cfg.Log = st
	eng, err := NewSharded(factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Recover(func(ck *store.Checkpoint) error {
		return eng.Restore(CheckpointState{Next: ck.Next, Rows: ck.Rows, Absorbs: int(ck.Absorbs), Shards: ck.Shards, Sources: ck.Sources})
	}, func(rec store.Record) error { return replayRecord(eng, d, rec) })
	if err != nil {
		t.Fatal(err)
	}
	return eng, st
}

// replayRecord applies one recovered record the way the daemon does:
// a packed batch through ReplayPacked, a u16 one through ReplayBatch,
// a source through AbsorbSource.
func replayRecord(eng *Sharded, d int, rec store.Record) error {
	switch rec.Kind {
	case store.RecordBatch:
		if rec.Packed != nil {
			return eng.ReplayPacked(rec.Packed)
		}
		return eng.ReplayBatch(words.BatchOf(d, rec.Rows))
	case store.RecordSource:
		sum, err := core.UnmarshalSummary(rec.Blob)
		if err != nil {
			return err
		}
		return eng.AbsorbSource(rec.Source, sum)
	default:
		return fmt.Errorf("unexpected record kind %v", rec.Kind)
	}
}

// absorbLogged installs sum as the named source and logs it, as the
// daemon's push and hand-off paths do.
func absorbLogged(t *testing.T, eng *Sharded, log *store.Store, name string, sum core.Summary) {
	t.Helper()
	blob, err := core.MarshalSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AbsorbSource(name, sum); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendSource(name, blob); err != nil {
		t.Fatal(err)
	}
}

// engineBytes marshals the merged snapshot; exact summaries make this
// sensitive to shard assignment and per-shard row order, so byte
// equality proves recovery reproduced the exact pre-crash state.
func engineBytes(t *testing.T, eng *Sharded) []byte {
	t.Helper()
	blob, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestDurableReplayReproducesEngineBitForBit(t *testing.T) {
	const d, q = 6, 4
	dir := t.TempDir()
	cfg := Config{Shards: 3, BatchChunk: 4, Queue: 8}
	log := openLog(t, dir, d, q)
	cfgA := cfg
	cfgA.Log = log
	eng, err := NewSharded(exactFactory(d, q), cfgA)
	if err != nil {
		t.Fatal(err)
	}

	// A mixed serial stream: single rows, batches (crossing the chunk
	// size), and a logged source in the middle, replaced once.
	row := make(words.Word, d)
	for i := 0; i < 40; i++ {
		for j := range row {
			row[j] = uint16((i + j) % q)
		}
		eng.Observe(row)
	}
	donor, err := core.NewExact(d, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 17; i++ {
		for j := range row {
			row[j] = uint16((i * (j + 3)) % q)
		}
		donor.Observe(row)
	}
	absorbLogged(t, eng, log, "donor", exactDonor(t, d, q, 9, 1))
	absorbLogged(t, eng, log, "donor", donor)
	for _, n := range []int{1, 4, 9, 30} {
		b := words.NewBatch(d, n)
		for i := 0; i < n; i++ {
			r := b.AppendRow()
			for j := range r {
				r[j] = uint16((i*n + j) % q)
			}
		}
		eng.ObserveBatch(b)
	}
	want := engineBytes(t, eng)
	wantRows := eng.Rows()
	eng.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, log2 := recoverEngine(t, dir, exactFactory(d, q), cfg, d, q)
	defer eng2.Close()
	defer log2.Close()
	if eng2.Rows() != wantRows {
		t.Fatalf("recovered %d rows, want %d", eng2.Rows(), wantRows)
	}
	if got := engineBytes(t, eng2); !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot differs: %d vs %d bytes", len(got), len(want))
	}
	// The recovered engine keeps ingesting durably: one more row on
	// each side of a second recovery still matches.
	eng2.Observe(make(words.Word, d))
	want2 := engineBytes(t, eng2)
	eng2.Close()
	log2.Close()
	eng3, log3 := recoverEngine(t, dir, exactFactory(d, q), cfg, d, q)
	defer eng3.Close()
	defer log3.Close()
	if got := engineBytes(t, eng3); !bytes.Equal(got, want2) {
		t.Fatal("second recovery diverged")
	}
}

func TestCheckpointRestoreThenReplayMatches(t *testing.T) {
	const d, q = 5, 3
	dir := t.TempDir()
	cfg := Config{Shards: 2, BatchChunk: 3}
	log := openLog(t, dir, d, q)
	cfgA := cfg
	cfgA.Log = log
	eng, err := NewSharded(exactFactory(d, q), cfgA)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(salt, n int) {
		b := words.NewBatch(d, n)
		for i := 0; i < n; i++ {
			r := b.AppendRow()
			for j := range r {
				r[j] = uint16((i*salt + j) % q)
			}
		}
		eng.ObserveBatch(b)
	}
	feed(2, 20)
	absorbLogged(t, eng, log, "a", exactDonor(t, d, q, 6, 2))
	absorbLogged(t, eng, log, "b", exactDonor(t, d, q, 4, 3))
	feed(5, 11)
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}

	cs, err := eng.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rows != 31 || len(cs.Shards) != 2 || len(cs.Sources) != 2 {
		t.Fatalf("checkpoint state %+v", cs)
	}
	if err := log.WriteCheckpoint(&store.Checkpoint{LSN: cs.LSN, Next: cs.Next, Rows: cs.Rows, Absorbs: uint64(cs.Absorbs), Shards: cs.Shards, Sources: cs.Sources}); err != nil {
		t.Fatal(err)
	}
	// More ingestion after the cut: recovery must replay exactly this
	// tail, a source replaced among it, on top of the restored state.
	feed(7, 9)
	absorbLogged(t, eng, log, "a", exactDonor(t, d, q, 8, 4))
	want := engineBytes(t, eng)
	eng.Close()
	log.Close()

	eng2, log2 := recoverEngine(t, dir, exactFactory(d, q), cfg, d, q)
	defer eng2.Close()
	defer log2.Close()
	if eng2.Rows() != 40 {
		t.Fatalf("recovered %d rows, want 40", eng2.Rows())
	}
	if got := engineBytes(t, eng2); !bytes.Equal(got, want) {
		t.Fatal("checkpoint + tail replay diverged from the uninterrupted run")
	}
}

// TestCheckpointStateListsSubspaces: the cut carries the registered
// column sets in registration order, the order a restart must
// re-register them in before the shard blobs can merge.
func TestCheckpointStateListsSubspaces(t *testing.T) {
	const d, q = 10, 2
	log := openLog(t, t.TempDir(), d, q)
	defer log.Close()
	eng, err := NewSharded(exactFactory(d, q), Config{Shards: 2, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if cs, err := eng.CheckpointState(); err != nil || len(cs.Subspaces) != 0 {
		t.Fatalf("no registrations: %v, %v", cs.Subspaces, err)
	}
	want := []words.ColumnSet{
		words.MustColumnSet(d, 4, 5),
		words.MustColumnSet(d, 0, 1),
	}
	for _, c := range want {
		if err := eng.RegisterSubspace(c, registeredFactory(c)); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := eng.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Subspaces) != len(want) {
		t.Fatalf("cut lists %v, want %v", cs.Subspaces, want)
	}
	for i, c := range want {
		if cs.Subspaces[i].Mask() != c.Mask() {
			t.Fatalf("cut lists %v, want %v in registration order", cs.Subspaces, want)
		}
	}
}

func TestCheckpointCutExactUnderConcurrentIngest(t *testing.T) {
	const d, q = 4, 3
	dir := t.TempDir()
	cfg := Config{Shards: 3, BatchChunk: 2, Queue: 4}
	log := openLog(t, dir, d, q)
	cfgA := cfg
	cfgA.Log = log
	eng, err := NewSharded(exactFactory(d, q), cfgA)
	if err != nil {
		t.Fatal(err)
	}

	// Writers hammer the engine while checkpoints are cut mid-stream.
	// Durable ingestion serializes on the log, so whatever interleaving
	// the cuts land in, restored-state + tail-replay must equal the
	// final state exactly.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				b := words.NewBatch(d, 3)
				for r := 0; r < 3; r++ {
					row := b.AppendRow()
					for j := range row {
						row[j] = uint16((g + i + r + j) % q)
					}
				}
				eng.ObserveBatch(b)
			}
		}(g)
	}
	for k := 0; k < 5; k++ {
		cs, err := eng.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		if err := log.WriteCheckpoint(&store.Checkpoint{LSN: cs.LSN, Next: cs.Next, Rows: cs.Rows, Absorbs: uint64(cs.Absorbs), Shards: cs.Shards}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	want := engineBytes(t, eng)
	if eng.Rows() != 300 {
		t.Fatalf("engine rows %d", eng.Rows())
	}
	eng.Close()
	log.Close()

	eng2, log2 := recoverEngine(t, dir, exactFactory(d, q), cfg, d, q)
	defer eng2.Close()
	defer log2.Close()
	if eng2.Rows() != 300 {
		t.Fatalf("recovered rows %d", eng2.Rows())
	}
	if got := engineBytes(t, eng2); !bytes.Equal(got, want) {
		t.Fatal("mid-stream checkpoint cut lost or duplicated records")
	}
}

// brokenLog fails every append, for the failure-surface tests.
type brokenLog struct{ lsn uint64 }

func (b *brokenLog) AppendBatch(*words.Batch) error { return errors.New("disk on fire") }
func (b *brokenLog) LSN() uint64                    { return b.lsn }

func TestDurableFailureSurfaces(t *testing.T) {
	const d, q = 4, 3
	eng, err := NewSharded(exactFactory(d, q), Config{Shards: 2, Log: &brokenLog{}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	b := words.NewBatch(d, 2)
	b.AppendRow()
	b.AppendRow()
	// The durable path reports the failure and routes nothing.
	if err := eng.ObserveBatchDurable(b); err == nil {
		t.Fatal("append failure must surface")
	}
	if eng.Rows() != 0 {
		t.Fatalf("failed durable ingest accepted %d rows", eng.Rows())
	}
	// The void signatures cannot return it, so they panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ObserveBatch with a failing log must panic")
			}
		}()
		eng.ObserveBatch(b)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Observe with a failing log must panic")
			}
		}()
		eng.Observe(make(words.Word, d))
	}()
	if eng.Rows() != 0 {
		t.Fatalf("panicking paths accepted %d rows", eng.Rows())
	}
}

func TestRestoreValidation(t *testing.T) {
	const d, q = 4, 3
	mk := func(shards int) *Sharded {
		eng, err := NewSharded(exactFactory(d, q), Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		return eng
	}
	// A donor image from a 2-shard engine.
	src := mk(2)
	src.Observe(make(words.Word, d))
	blobs := make([][]byte, 2)
	if _, err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range blobs {
		var err error
		blobs[i], err = core.MarshalSummary(src.shards[i])
		if err != nil {
			t.Fatal(err)
		}
	}

	// Shard-count mismatch.
	if err := mk(3).Restore(CheckpointState{Next: 2, Rows: 1, Shards: blobs}); err == nil {
		t.Fatal("shard-count mismatch must fail")
	}
	// Restore onto a used engine.
	used := mk(2)
	used.Observe(make(words.Word, d))
	if _, err := used.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := used.Restore(CheckpointState{Next: 2, Rows: 1, Shards: blobs}); err == nil {
		t.Fatal("restore after rows must fail")
	}
	// Undecodable blob.
	if err := mk(2).Restore(CheckpointState{Next: 2, Rows: 1, Shards: [][]byte{[]byte("junk"), []byte("junk")}}); err == nil {
		t.Fatal("corrupt shard blob must fail")
	}
	// A source of another shape is refused as AbsorbSource refuses it.
	other, err := core.MarshalSummary(exactDonor(t, d+1, q, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := mk(2).Restore(CheckpointState{Next: 1, Rows: 1, Shards: blobs, Sources: map[string][]byte{"peer": other}}); !errors.Is(err, core.ErrIncompatibleMerge) {
		t.Fatalf("mis-shaped checkpoint source: %v", err)
	}
	// A clean restore reproduces the source exactly.
	dst := mk(2)
	if err := dst.Restore(CheckpointState{Next: 1, Rows: 1, Shards: blobs}); err != nil {
		t.Fatal(err)
	}
	if got, want := engineBytes(t, dst), engineBytes(t, src); !bytes.Equal(got, want) {
		t.Fatal("restored engine differs from source")
	}
	// CheckpointState without a log is refused.
	if _, err := mk(2).CheckpointState(); !errors.Is(err, ErrNoLog) {
		t.Fatalf("CheckpointState without log: %v", err)
	}
}

func TestReplayBatchValidatesShape(t *testing.T) {
	const d, q = 4, 3
	eng, err := NewSharded(exactFactory(d, q), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.ReplayBatch(words.BatchOf(d+1, make([]uint16, d+1))); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
	if err := eng.ReplayBatch(words.BatchOf(d, []uint16{0, 1, 2, uint16(q)})); err == nil {
		t.Fatal("out-of-alphabet replay must fail")
	}
	if eng.Rows() != 0 {
		t.Fatalf("rejected replays accepted %d rows", eng.Rows())
	}
	if err := eng.ReplayBatch(words.BatchOf(d, []uint16{0, 1, 2, 0})); err != nil {
		t.Fatal(err)
	}
	if eng.Rows() != 1 {
		t.Fatalf("replayed row not accepted: %d", eng.Rows())
	}
}

// TestRecoveryReusedBuffersDoNotLeak guards replay's reused buffers.
// A source summary is logged at the front of the first segment;
// batches then roll the log into segments of their own and end in a
// shorter last segment, whose read overwrites the summary's bytes in
// the reused segment image. The summary decoded during replay must not
// have kept any of those bytes, and the recovered engine must be
// byte-equal to the uninterrupted run.
func TestRecoveryReusedBuffersDoNotLeak(t *testing.T) {
	const d, q = 6, 5
	dir := t.TempDir()
	cfg := Config{Shards: 2, BatchChunk: 8}
	log := openLog(t, dir, d, q)
	cfgA := cfg
	cfgA.Log = log
	eng, err := NewSharded(exactFactory(d, q), cfgA)
	if err != nil {
		t.Fatal(err)
	}
	donor, err := core.NewExact(d, q)
	if err != nil {
		t.Fatal(err)
	}
	row := make(words.Word, d)
	for i := range 60 {
		for j := range row {
			row[j] = uint16((i*(j+1) + 3) % q)
		}
		donor.Observe(row)
	}
	absorbLogged(t, eng, log, "donor", donor)
	batch := func(n, salt int) *words.Batch {
		b := words.NewBatch(d, n)
		for i := range n {
			r := b.AppendRow()
			for j := range r {
				r[j] = uint16((i*salt + j*(salt+1)) % q)
			}
		}
		return b
	}
	// A packed row takes 3 bytes here, so these frames are as long as
	// those of 24 and 40 rows of u16 symbols.
	for i := range 30 {
		eng.ObserveBatch(batch(96, i+2))
	}
	eng.ObserveBatch(batch(160, 31))
	want := engineBytes(t, eng)
	eng.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := store.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := rep.Segments
	if len(segs) < 3 || segs[len(segs)-1].Bytes >= segs[0].Bytes {
		t.Fatalf("want ≥ 3 segments ending in a shorter one, got %+v", segs)
	}

	st := openLog(t, dir, d, q)
	defer st.Close()
	cfgB := cfg
	cfgB.Log = st
	eng2, err := NewSharded(exactFactory(d, q), cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	var absorbed core.Summary
	var absorbedWire []byte
	_, err = st.Recover(nil, func(rec store.Record) error {
		switch rec.Kind {
		case store.RecordBatch:
			return eng2.ReplayPacked(rec.Packed)
		case store.RecordSource:
			sum, err := core.UnmarshalSummary(rec.Blob)
			if err != nil {
				return err
			}
			if absorbed != nil {
				return errors.New("more than one source record")
			}
			if absorbedWire, err = core.MarshalSummary(sum); err != nil {
				return err
			}
			absorbed = sum
			return eng2.AbsorbSource(rec.Source, sum)
		default:
			return fmt.Errorf("unexpected record kind %v", rec.Kind)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if absorbed == nil {
		t.Fatal("the source record was not replayed")
	}
	after, err := core.MarshalSummary(absorbed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, absorbedWire) {
		t.Fatal("the summary decoded during replay changed when later segments were read: it aliases the segment image")
	}
	if got := engineBytes(t, eng2); !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot differs from the uninterrupted run: %d vs %d bytes", len(got), len(want))
	}
}

// TestUpgradeInPlaceFromLargerSegments: nothing on disk records the
// segment size, so a directory written at 8 MiB segments (the earlier
// default) opens under the current default as it is. It recovers the
// same records to the same engine, and the appends after it roll at
// the new size.
func TestUpgradeInPlaceFromLargerSegments(t *testing.T) {
	const d, q, rows = 16, 4, 1024
	const frame = 8 + 1 + rows*d*2/8 // frame header, kind byte, packed rows
	const before, after = 384, 640   // batches: ~1.5 MiB, then ~2.6 MiB
	dir := t.TempDir()
	batch := func(i int) *words.Batch {
		b := words.NewBatch(d, rows)
		for r := range rows {
			row := b.AppendRow()
			for j := range row {
				row[j] = uint16((i*7 + r*(j+1)) % q)
			}
		}
		return b
	}
	// boot opens the directory at the given segment size (0 is the
	// default) and recovers an engine from it as the daemon does.
	boot := func(segmentBytes int64) (*Sharded, *store.Store, store.RecoverInfo) {
		t.Helper()
		st, err := store.Open(store.Options{Dir: dir, Dim: d, Alphabet: q, Fsync: store.FsyncNever, SegmentBytes: segmentBytes})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewSharded(exactFactory(d, q), Config{Shards: 2, Log: st})
		if err != nil {
			t.Fatal(err)
		}
		info, err := st.Recover(func(ck *store.Checkpoint) error {
			return eng.Restore(CheckpointState{Next: ck.Next, Rows: ck.Rows, Absorbs: int(ck.Absorbs), Shards: ck.Shards, Sources: ck.Sources})
		}, func(rec store.Record) error { return replayRecord(eng, d, rec) })
		if err != nil {
			t.Fatal(err)
		}
		return eng, st, info
	}
	segmentSizes := func() []int64 {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		sizes := make([]int64, len(paths))
		for i, p := range paths {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			sizes[i] = fi.Size()
		}
		return sizes
	}

	eng, st, _ := boot(8 << 20)
	for i := range before {
		if i == before/3 {
			cs, err := eng.CheckpointState()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.WriteCheckpoint(&store.Checkpoint{LSN: cs.LSN, Next: cs.Next, Rows: cs.Rows, Shards: cs.Shards}); err != nil {
				t.Fatal(err)
			}
		}
		eng.ObserveBatch(batch(i))
	}
	want := engineBytes(t, eng)
	eng.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if sizes := segmentSizes(); len(sizes) != 1 || sizes[0] <= 1<<20 {
		t.Fatalf("segments of %v bytes at 8 MiB, want one past 1 MiB", sizes)
	}

	eng2, st2, info := boot(0)
	if tail := int64(before - before/3); !info.Checkpoint || info.Records != int(tail) || info.Rows != tail*rows {
		t.Fatalf("recovered %+v under the default, want the checkpoint and %d records of %d rows", info, tail, rows)
	}
	if got := engineBytes(t, eng2); !bytes.Equal(got, want) {
		t.Fatalf("recovered engine differs: %d vs %d bytes", len(got), len(want))
	}
	for i := before; i < before+after; i++ {
		eng2.ObserveBatch(batch(i))
	}
	want2 := engineBytes(t, eng2)
	eng2.Close()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	// The earlier segment stays as it was; the first append rolled past
	// it, and every new segment but the last rolled at 1 MiB.
	sizes := segmentSizes()
	if len(sizes) < 3 {
		t.Fatalf("segments of %v bytes, want the earlier one and at least two at 1 MiB", sizes)
	}
	for i, size := range sizes[1 : len(sizes)-1] {
		if size < 1<<20 || size >= 1<<20+frame {
			t.Fatalf("new segment %d holds %d bytes, want 1 MiB up to one %d-byte frame more (all: %v)", i, size, frame, sizes)
		}
	}

	eng3, st3, info3 := boot(0)
	defer st3.Close()
	defer eng3.Close()
	if info3.Records != int(before-before/3+after) {
		t.Fatalf("second recovery replayed %d records, want %d", info3.Records, before-before/3+after)
	}
	if got := engineBytes(t, eng3); !bytes.Equal(got, want2) {
		t.Fatalf("engine recovered after the new appends differs: %d vs %d bytes", len(got), len(want2))
	}
}
