package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/words"
)

// testOpts returns small-segment options over a fresh temp dir.
func testOpts(t *testing.T, d, q int) Options {
	t.Helper()
	return Options{Dir: t.TempDir(), Dim: d, Alphabet: q, Fsync: FsyncNever, SegmentBytes: 1 << 10}
}

// batchOf builds an n-row batch with deterministic content.
func batchOf(d, q, n, salt int) *words.Batch {
	b := words.NewBatch(d, n)
	for i := 0; i < n; i++ {
		row := b.AppendRow()
		for j := range row {
			row[j] = uint16((i*(j+2) + salt) % q)
		}
	}
	return b
}

// replayAll recovers st collecting the checkpoint and every record
// (records deep-copied, since they alias the scan buffer).
func replayAll(t *testing.T, st *Store) (*Checkpoint, RecoverInfo, []Record) {
	t.Helper()
	var (
		ck   *Checkpoint
		recs []Record
	)
	info, err := st.Recover(func(c *Checkpoint) error {
		ck = c
		return nil
	}, func(r Record) error {
		cp := r
		cp.Rows = append([]uint16(nil), r.Rows...)
		cp.Blob = append([]byte(nil), r.Blob...)
		recs = append(recs, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ck, info, recs
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	const d, q = 4, 5
	opts := testOpts(t, d, q)
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSubspace(0b0011, "mirror"); err != nil {
		t.Fatal(err)
	}
	b1, b2 := batchOf(d, q, 7, 1), batchOf(d, q, 3, 2)
	blob := []byte("PFQS-pretend-blob")
	if err := st.AppendBatch(b1); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSummary(blob); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSource("h:/data/a.csv", blob[4:]); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(b2); err != nil {
		t.Fatal(err)
	}
	if got := st.LSN(); got != 5 {
		t.Fatalf("LSN %d, want 5", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.LSN(); got != 5 {
		t.Fatalf("reopened LSN %d, want 5", got)
	}
	ck, info, recs := replayAll(t, st2)
	if ck != nil || info.Checkpoint {
		t.Fatalf("no checkpoint was written, got %+v", info)
	}
	if info.Records != 5 || info.Rows != 10 {
		t.Fatalf("replay info %+v", info)
	}
	// The unnamed summary record earlier encoders wrote replays as a
	// source named after its LSN.
	wantKinds := []RecordKind{RecordSubspace, RecordBatch, RecordSource, RecordSource, RecordBatch}
	for i, rec := range recs {
		if rec.LSN != uint64(i) || rec.Kind != wantKinds[i] {
			t.Fatalf("record %d: %+v", i, rec)
		}
	}
	if recs[0].Mask != 0b0011 || recs[0].Summary != "mirror" {
		t.Fatalf("subspace record %+v", recs[0])
	}
	if recs[2].Source != "wal-2" || !bytes.Equal(recs[2].Blob, blob) {
		t.Fatalf("legacy summary record %q %q", recs[2].Source, recs[2].Blob)
	}
	if recs[3].Source != "h:/data/a.csv" || !bytes.Equal(recs[3].Blob, blob[4:]) {
		t.Fatalf("source record %q %q", recs[3].Source, recs[3].Blob)
	}
	for i, want := range [][]uint16{b1.Symbols(), b2.Symbols()} {
		got := recs[1+3*i].Rows
		if len(got) != len(want) {
			t.Fatalf("batch %d length %d, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("batch %d symbol %d: %d != %d", i, j, got[j], want[j])
			}
		}
	}
}

func TestTornTailIsTruncatedAndAppendsContinue(t *testing.T) {
	const d, q = 3, 4
	opts := testOpts(t, d, q)
	opts.SegmentBytes = 1 << 20 // keep everything in one segment
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.AppendBatch(batchOf(d, q, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v)", segs, err)
	}

	for name, tear := range map[string]func(data []byte) []byte{
		// A frame cut off mid-payload: the classic crash shape.
		"truncated frame": func(data []byte) []byte { return data[:len(data)-5] },
		// A fully written frame whose payload bits rotted.
		"crc mismatch": func(data []byte) []byte {
			data[len(data)-1] ^= 0xff
			return data
		},
		// Garbage after the last frame (a torn length prefix).
		"trailing garbage": func(data []byte) []byte { return append(data, 0xde, 0xad) },
	} {
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segs[0], tear(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(opts)
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		_, info, _ := replayAll(t, st2)
		wantRecords := 4
		if name == "trailing garbage" {
			wantRecords = 5 // all frames intact, only the tail bytes die
		}
		if info.Records != wantRecords {
			t.Fatalf("%s: replayed %d records, want %d", name, info.Records, wantRecords)
		}
		// The torn tail is gone from disk: appends continue cleanly and
		// a further reopen sees the new record.
		if err := st2.AppendBatch(batchOf(d, q, 1, 9)); err != nil {
			t.Fatalf("%s: append after truncation: %v", name, err)
		}
		if got, want := st2.LSN(), uint64(wantRecords+1); got != want {
			t.Fatalf("%s: LSN %d, want %d", name, got, want)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
		st3, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		_, info3, _ := replayAll(t, st3)
		if info3.Records != wantRecords+1 {
			t.Fatalf("%s: second reopen replayed %d", name, info3.Records)
		}
		st3.Close()
		// Restore the pristine 5-record log for the next case.
		if err := os.WriteFile(segs[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMidLogCorruptionFailsRecovery(t *testing.T) {
	const d, q = 3, 4
	opts := testOpts(t, d, q)
	opts.SegmentBytes = 64 // force several segments of 17-byte frames
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := st.AppendBatch(batchOf(d, q, 8, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	// Damage a frame in the FIRST segment: recovery must refuse, not
	// silently skip records.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+frameHeaderSize+2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(opts) // only the last segment is scanned at Open
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, rerr := st2.Recover(nil, func(Record) error { return nil })
	if !errors.Is(rerr, ErrCorrupt) {
		t.Fatalf("mid-log corruption: %v", rerr)
	}
}

func TestCheckpointRecoveryAndCompaction(t *testing.T) {
	const d, q = 3, 4
	opts := testOpts(t, d, q)
	opts.SegmentBytes = 64 // three 17-byte frames a segment
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := st.AppendBatch(batchOf(d, q, 8, i)); err != nil {
			t.Fatal(err)
		}
	}
	before := st.Stats()
	if before.Segments < 3 {
		t.Fatalf("want ≥3 segments before compaction, got %d", before.Segments)
	}
	ck := &Checkpoint{
		LSN: 12, Next: 12, Rows: 96,
		Subspaces: []SubspaceMeta{{Mask: 0b101, Summary: "mirror"}},
		Shards:    [][]byte{[]byte("shard-0"), []byte("shard-1")},
	}
	if err := st.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.Segments != 1 || after.Checkpoints != 1 || after.CheckpointLSN != 12 {
		t.Fatalf("post-checkpoint stats %+v", after)
	}
	// Records after the cut replay on top of the restored checkpoint.
	if err := st.AppendBatch(batchOf(d, q, 2, 99)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, info, recs := replayAll(t, st2)
	if got == nil || got.LSN != 12 || got.Next != 12 || got.Rows != 96 {
		t.Fatalf("recovered checkpoint %+v", got)
	}
	if len(got.Subspaces) != 1 || got.Subspaces[0] != (SubspaceMeta{Mask: 0b101, Summary: "mirror"}) {
		t.Fatalf("recovered subspaces %+v", got.Subspaces)
	}
	if len(got.Shards) != 2 || string(got.Shards[0]) != "shard-0" || string(got.Shards[1]) != "shard-1" {
		t.Fatalf("recovered shards %q", got.Shards)
	}
	if info.Records != 1 || info.Rows != 2 || len(recs) != 1 || recs[0].LSN != 12 {
		t.Fatalf("replayed %+v / %+v", info, recs)
	}
	st2.Close()

	// A second checkpoint keeps at most two files; a third prunes the
	// oldest.
	st3, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, lsn := range []uint64{13, 13} {
		ck := &Checkpoint{LSN: lsn, Next: lsn, Rows: 82, Shards: [][]byte{[]byte("s")}}
		if err := st3.WriteCheckpoint(ck); err != nil {
			t.Fatal(err)
		}
	}
	if s := st3.Stats(); s.Checkpoints != 2 {
		t.Fatalf("checkpoint files %d, want 2 (12 and 13)", s.Checkpoints)
	}
	if err := st3.WriteCheckpoint(&Checkpoint{LSN: 9, Next: 9, Rows: 1, Shards: [][]byte{[]byte("s")}}); err == nil {
		// LSN 9 < log end is fine; what must fail is a cut beyond it.
		_ = err
	}
	if err := st3.WriteCheckpoint(&Checkpoint{LSN: 99, Shards: [][]byte{[]byte("s")}}); err == nil {
		t.Fatal("checkpoint beyond the log end must fail")
	}
	st3.Close()
}

func TestCorruptNewestCheckpointFallsBack(t *testing.T) {
	const d, q = 3, 4
	opts := testOpts(t, d, q)
	opts.SegmentBytes = 1 << 20
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(batchOf(d, q, 4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCheckpoint(&Checkpoint{LSN: 1, Next: 1, Rows: 4, Shards: [][]byte{[]byte("a")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(batchOf(d, q, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCheckpoint(&Checkpoint{LSN: 2, Next: 2, Rows: 8, Shards: [][]byte{[]byte("b")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Rot the newest checkpoint's payload; the older one still covers
	// the log (compaction keeps the active segment, which here holds
	// the whole log from LSN 0).
	path := filepath.Join(opts.Dir, checkpointName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ck, info, _ := replayAll(t, st2)
	if ck == nil || ck.LSN != 1 || string(ck.Shards[0]) != "a" {
		t.Fatalf("fallback checkpoint %+v", ck)
	}
	if info.Records != 1 {
		t.Fatalf("fallback replayed %d records", info.Records)
	}
}

func TestRecoveryGapIsCorruption(t *testing.T) {
	const d, q = 3, 4
	opts := testOpts(t, d, q)
	opts.SegmentBytes = 64 // three 17-byte frames a segment
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st.AppendBatch(batchOf(d, q, 8, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteCheckpoint(&Checkpoint{LSN: 10, Next: 10, Rows: 80, Shards: [][]byte{[]byte("s")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Delete every checkpoint: the compacted segments are gone, so a
	// full replay from 0 is impossible and recovery must say so.
	ckpts, err := listCheckpoints(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ckpts {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Recover(nil, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap recovery: %v", err)
	}
}

func TestOpenRejectsShapeMismatch(t *testing.T) {
	opts := testOpts(t, 4, 5)
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(batchOf(4, 5, 1, 0)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	bad := opts
	bad.Dim = 5
	if _, err := Open(bad); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("dim mismatch: %v", err)
	}
	bad = opts
	bad.Alphabet = 9
	if _, err := Open(bad); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("alphabet mismatch: %v", err)
	}
}

func TestRecoverAfterAppendRefused(t *testing.T) {
	opts := testOpts(t, 3, 4)
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.AppendBatch(batchOf(3, 4, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(nil, func(Record) error { return nil }); err == nil {
		t.Fatal("Recover after appends must be refused")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob.pfqs")
	if err := WriteFileAtomic(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "second" {
		t.Fatalf("content %q (%v)", got, err)
	}
	// No staging files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("staging file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in dir", len(entries))
	}
	// A missing target directory fails cleanly.
	if err := WriteFileAtomic(filepath.Join(dir, "nope", "x"), nil, 0o644); err == nil {
		t.Fatal("missing directory must fail")
	}
}

func TestInspectReportsDamage(t *testing.T) {
	const d, q = 3, 4
	opts := testOpts(t, d, q)
	opts.SegmentBytes = 1 << 20
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.AppendBatch(batchOf(d, q, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteCheckpoint(&Checkpoint{LSN: 3, Next: 3, Rows: 6, Shards: [][]byte{[]byte("s")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dim != d || rep.Alphabet != q {
		t.Fatalf("report shape %d/%d", rep.Dim, rep.Alphabet)
	}
	if len(rep.Segments) != 1 || rep.Segments[0].Records != 3 || rep.Segments[0].Rows != 6 || rep.Segments[0].Torn {
		t.Fatalf("segment report %+v", rep.Segments)
	}
	if len(rep.Checkpoints) != 1 || rep.Checkpoints[0].LSN != 3 || rep.Checkpoints[0].Err != "" {
		t.Fatalf("checkpoint report %+v", rep.Checkpoints)
	}
	// Tear the tail: Inspect reports it without modifying the file.
	segs, _ := listSegments(opts.Dir)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rep2, err := Inspect(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Segments[0].Torn || rep2.Segments[0].Records != 2 {
		t.Fatalf("torn segment report %+v", rep2.Segments[0])
	}
	if got, _ := os.ReadFile(segs[0]); len(got) != len(data)-3 {
		t.Fatal("Inspect modified the segment")
	}
	// An empty directory is an error, not an empty report.
	if _, err := Inspect(t.TempDir()); err == nil {
		t.Fatal("empty dir must fail")
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": FsyncAlways, "interval": FsyncInterval, "": FsyncInterval, "never": FsyncNever} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("unknown policy must fail")
	}
}

func TestClearedLogWithLeftoverCheckpointRefusesFreshStart(t *testing.T) {
	const d, q = 3, 4
	opts := testOpts(t, d, q)
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := st.AppendBatch(batchOf(d, q, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteCheckpoint(&Checkpoint{LSN: 4, Next: 4, Rows: 8, Shards: [][]byte{[]byte("s")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// An operator "clears the log" by deleting the segments but leaves
	// the checkpoint, then corrupts it (or it rots). Recovery must not
	// silently boot fresh: the checkpoint's name claims state (cut 4)
	// the emptied log cannot rebuild.
	segs, err := listSegments(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range segs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	ckpts, err := listCheckpoints(opts.Dir)
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("checkpoints %v (%v)", ckpts, err)
	}
	data, err := os.ReadFile(ckpts[len(ckpts)-1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(ckpts[len(ckpts)-1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(opts) // creates a fresh wal-0 segment
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Recover(nil, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cleared log + unusable checkpoint must refuse recovery, got %v", err)
	}
}

func TestFallbackCheckpointKeepsItsReplayRange(t *testing.T) {
	const d, q = 3, 4
	opts := testOpts(t, d, q)
	opts.SegmentBytes = 64 // roll every four 13-byte frames, between checkpoints
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(n int) {
		for i := 0; i < n; i++ {
			if err := st.AppendBatch(batchOf(d, q, 4, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(5)
	if err := st.WriteCheckpoint(&Checkpoint{LSN: 5, Next: 5, Rows: 20, Shards: [][]byte{[]byte("old")}}); err != nil {
		t.Fatal(err)
	}
	feed(5) // records 5..9 roll into fresh segments
	if err := st.WriteCheckpoint(&Checkpoint{LSN: 10, Next: 10, Rows: 40, Shards: [][]byte{[]byte("new")}}); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Checkpoints != 2 {
		t.Fatalf("checkpoints %d, want 2", s.Checkpoints)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The newest checkpoint rots. The fallback at cut 5 is only usable
	// if compaction preserved the segments holding records 5..9 — which
	// is exactly what compacting to the oldest retained cut guarantees.
	path := filepath.Join(opts.Dir, checkpointName(10))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ck, info, recs := replayAll(t, st2)
	if ck == nil || ck.LSN != 5 || string(ck.Shards[0]) != "old" {
		t.Fatalf("fallback checkpoint %+v", ck)
	}
	if info.Records != 5 || len(recs) != 5 || recs[0].LSN != 5 || recs[4].LSN != 9 {
		t.Fatalf("fallback replay %+v / %d records", info, len(recs))
	}
}

func TestCheckpointSupersedesTruncatedLog(t *testing.T) {
	const d, q = 3, 4
	opts := testOpts(t, d, q)
	opts.SegmentBytes = 1 << 20
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := st.AppendBatch(batchOf(d, q, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteCheckpoint(&Checkpoint{LSN: 6, Next: 6, Rows: 12, Shards: [][]byte{[]byte("s6")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Rot a frame BELOW the checkpoint's cut inside the (only, active)
	// segment: Open's tail scan truncates the log back to before the
	// cut, so the checkpoint now holds records the log has lost.
	segs, err := listSegments(opts.Dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	frame := (len(data) - segHeaderSize) / 6
	data[segHeaderSize+3*frame+frameHeaderSize+1] ^= 0xff // rot record 3
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.LSN(); got != 3 {
		t.Fatalf("truncated log ends at %d, want 3", got)
	}
	ck, info, recs := replayAll(t, st2)
	if ck == nil || ck.LSN != 6 || string(ck.Shards[0]) != "s6" {
		t.Fatalf("superseding checkpoint not restored: %+v", ck)
	}
	if info.Records != 0 || len(recs) != 0 {
		t.Fatalf("nothing should replay past the cut: %+v", info)
	}
	// The log realigned to the cut: new appends continue at LSN 6, so
	// no covered LSN is ever reused.
	if got := st2.LSN(); got != 6 {
		t.Fatalf("realigned LSN %d, want 6", got)
	}
	if err := st2.AppendBatch(batchOf(d, q, 2, 9)); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	// A further recovery sees a consistent directory: checkpoint at 6
	// plus exactly the one new record at LSN 6.
	st3, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	ck3, info3, recs3 := replayAll(t, st3)
	if ck3 == nil || ck3.LSN != 6 || info3.Records != 1 || len(recs3) != 1 || recs3[0].LSN != 6 {
		t.Fatalf("post-realign recovery: ck=%+v info=%+v", ck3, info3)
	}
}

// TestRecoverAllocsIndependentOfRecords pins replay's buffer reuse:
// with a no-op apply, recovering a segment of 4,096 batch records
// allocates as often as one of 1,024. One segment image and one row
// buffer serve every record, so allocations grow with the segments
// read, not with the records in them. (Decoding a record at a time
// into fresh slices allocated 1,051 and 4,128 times.) One allocation
// of slack absorbs the race detector, under which sync.Pool drops
// entries at random and os.ReadDir sometimes allocates its buffer.
func TestRecoverAllocsIndependentOfRecords(t *testing.T) {
	const d, q = 8, 4
	allocs := func(records int) float64 {
		opts := testOpts(t, d, q)
		opts.SegmentBytes = 1 << 30
		st, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		b := batchOf(d, q, 16, 1)
		for range records {
			if err := st.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err = Open(opts); err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if segs := st.Stats().Segments; segs != 1 {
			t.Fatalf("%d records wrote %d segments, want 1", records, segs)
		}
		// A collection during the runs empties sync.Pools the runtime
		// keeps (os.ReadDir's buffers), and the larger image collects
		// more often: count with collection off, so only Recover's own
		// allocations are compared.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		seen := 0
		n := testing.AllocsPerRun(20, func() {
			seen = 0
			info, err := st.Recover(nil, func(r Record) error { seen++; return nil })
			if err != nil || info.Records != records {
				t.Fatalf("recovered %d of %d records: %v", info.Records, records, err)
			}
		})
		if seen != records {
			t.Fatalf("applied %d of %d records", seen, records)
		}
		return n
	}
	small, large := allocs(1024), allocs(4096)
	t.Logf("Recover allocations: %v for 1,024 records, %v for 4,096", small, large)
	if large > small+1 {
		t.Fatalf("Recover allocates %v times for 1,024 records and %v for 4,096: allocations grow with records", small, large)
	}
}

// TestRecoverVerifiesSegmentBeforeApplying damages the last frame of a
// middle segment: recovery fails with ErrCorrupt, and no record of
// that segment reaches apply, since the whole segment is verified
// before any of it is applied.
func TestRecoverVerifiesSegmentBeforeApplying(t *testing.T) {
	const d, q = 3, 4
	opts := testOpts(t, d, q)
	opts.SegmentBytes = 64 // three 17-byte frames a segment
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 12 {
		if err := st.AppendBatch(batchOf(d, q, 8, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want ≥ 3 segments, got %d (%v)", len(segs), err)
	}
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	first, _ := parseSegmentName(filepath.Base(segs[1]))
	st2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var applied []uint64
	_, rerr := st2.Recover(nil, func(r Record) error {
		applied = append(applied, r.LSN)
		return nil
	})
	if !errors.Is(rerr, ErrCorrupt) {
		t.Fatalf("damaged middle segment: %v", rerr)
	}
	if len(applied) == 0 || applied[len(applied)-1] != first-1 {
		t.Fatalf("applied LSNs %v; want exactly the first segment's, ending at %d", applied, first-1)
	}
}

// TestScanStopsAtMisshapenRecord: a CRC-valid frame whose payload is
// not a well-formed record — a batch body of part of a row, an odd
// byte count, a packed row with a field outside the alphabet or a set
// padding bit, an unknown kind, a truncated subspace record — ends the
// verified prefix there, as damage does.
func TestScanStopsAtMisshapenRecord(t *testing.T) {
	const d = 3
	good := appendFrame(appendSegHeader(nil, d, 7, 0), packedBatchRecord(t, d, 7, []uint16{1, 2, 3}))
	// A row of 3 symbols over [7] packs into 9 bits: two bytes, the
	// second with 7 padding bits.
	for name, payload := range map[string][]byte{
		"partial row":        encodeU16BatchRecord(nil, []uint16{1, 2}),
		"odd byte count":     {byte(RecordBatch), 1, 0, 2, 0, 3, 0, 4},
		"partial packed row": {byte(recordPackedBatch), 0x11},
		"field outside [7]":  {byte(recordPackedBatch), 0x07, 0x00},
		"set padding bit":    {byte(recordPackedBatch), 0x00, 0x02},
		"unknown kind":       {9, 0, 0},
		"truncated subspace": encodeSubspaceRecord(nil, 0b11, "registered")[:12],
	} {
		res, err := scanSegment(appendFrame(append([]byte(nil), good...), payload))
		if err != nil || !res.torn || res.records != 1 || res.validLen != len(good) {
			t.Errorf("%s: %+v, %v; want torn after the first record at %d bytes", name, res, err, len(good))
		}
	}
}

// TestRecoverReplaysOpenScan pins the one scan of a boot: the first
// Recover replays the last segment from the image Open read and
// verified, so emptying the file after Open does not reach it, while a
// second Recover reads the file again.
func TestRecoverReplaysOpenScan(t *testing.T) {
	const d, q = 3, 4
	opts := testOpts(t, d, q)
	opts.SegmentBytes = 1 << 20
	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		if err := st.AppendBatch(batchOf(d, q, 4, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := os.Truncate(st.segments[0].path, segHeaderSize); err != nil {
		t.Fatal(err)
	}
	count := func() int {
		info, err := st.Recover(nil, func(Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return info.Records
	}
	if got := count(); got != 5 {
		t.Fatalf("first Recover replayed %d records, want the 5 Open verified", got)
	}
	if got := count(); got != 0 {
		t.Fatalf("second Recover replayed %d records from an emptied segment, want 0", got)
	}
}

// TestPackedBatchOnlyInVersion2: a packed batch frame scans in a
// version-2 segment and stops the scan, as damage, in a version-1
// one, whose u16 batch frames still scan.
func TestPackedBatchOnlyInVersion2(t *testing.T) {
	const d, q = 3, 4
	rows := []uint16{1, 2, 3, 0, 1, 2}
	packed := packedBatchRecord(t, d, q, rows)
	for _, c := range []struct {
		header  []byte
		records int
		torn    bool
	}{
		{appendSegHeader(nil, d, q, 0), 2, false},
		{segHeaderV1(d, q, 0), 1, true},
	} {
		seg := appendFrame(appendFrame(c.header, encodeU16BatchRecord(nil, rows)), packed)
		res, err := scanSegment(seg)
		if err != nil || res.records != c.records || res.torn != c.torn {
			t.Errorf("version %d: %d records, torn %v, %v; want %d, %v", c.header[4], res.records, res.torn, err, c.records, c.torn)
		}
	}
}

// TestOpenRollsPastEarlierSegment: Open never appends to a segment of
// an earlier format version. One that holds records stays as it is,
// and the appends go to its successor; one that holds none is
// replaced by a current one under the same name.
func TestOpenRollsPastEarlierSegment(t *testing.T) {
	const d, q = 3, 4
	for _, records := range []int{0, 2} {
		opts := testOpts(t, d, q)
		seg := segHeaderV1(d, q, 0)
		for range records {
			seg = appendFrame(seg, encodeU16BatchRecord(nil, batchOf(d, q, 2, 1).Symbols()))
		}
		old := filepath.Join(opts.Dir, segmentName(0))
		if err := os.WriteFile(old, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendBatch(batchOf(d, q, 3, 2)); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(opts.Dir)
		if err != nil {
			t.Fatal(err)
		}
		wantSegs := 1 + min(records, 1)
		if len(segs) != wantSegs {
			t.Fatalf("%d records: segments %v, want %d", records, segs, wantSegs)
		}
		if records > 0 {
			if data, err := os.ReadFile(old); err != nil || !bytes.Equal(data, seg) {
				t.Fatalf("%d records: the version-1 segment changed (%v)", records, err)
			}
		}
		data, err := os.ReadFile(segs[len(segs)-1])
		if err != nil {
			t.Fatal(err)
		}
		if h, err := parseSegHeader(data); err != nil || h.version != walVersion || h.firstLSN != uint64(records) {
			t.Fatalf("%d records: the appended segment's header %+v, %v", records, h, err)
		}
		st, err = Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		_, info, recs := replayAll(t, st)
		st.Close()
		if info.Records != records+1 || info.Rows != int64(2*records+3) || recs[len(recs)-1].LSN != uint64(records) {
			t.Fatalf("%d records: replayed %+v", records, info)
		}
	}
}

// TestCheckpointSourcesRoundTrip: a version-2 checkpoint carries its
// source table through encode and decode, and writes it in name order,
// so equal tables encode to equal bytes.
func TestCheckpointSourcesRoundTrip(t *testing.T) {
	ck := &Checkpoint{
		LSN: 9, Next: 4, Rows: 31, Absorbs: 3,
		Shards:  [][]byte{[]byte("shard-0")},
		Sources: map[string][]byte{"h:/data/b.csv": []byte("blob-b"), "h:demo": {}, "http://peer:1": []byte("blob-p")},
	}
	data, err := ck.encode()
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 2 {
		t.Fatalf("checkpoint format version %d, want 2", data[4])
	}
	got, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 9 || got.Absorbs != 3 || len(got.Sources) != 3 {
		t.Fatalf("decoded %+v", got)
	}
	for name, blob := range ck.Sources {
		if b, ok := got.Sources[name]; !ok || !bytes.Equal(b, blob) {
			t.Fatalf("source %q decoded as %q (present %v), want %q", name, b, ok, blob)
		}
	}
	again, err := got.encode()
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-encoding the decoded checkpoint changed its bytes (%v)", err)
	}
}

// TestCheckpointV1Decodes: the committed golden checkpoint, of format
// version 1, decodes with its shards and no sources.
func TestCheckpointV1Decodes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "wal-golden", "ckpt-0000000000000003.pfqc"))
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 1 {
		t.Fatalf("committed checkpoint is of format version %d, want 1", data[4])
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if ck.LSN != 3 || len(ck.Shards) != 2 || len(ck.Subspaces) != 1 || ck.Sources != nil {
		t.Fatalf("decoded %d shards, %d subspaces, %d sources at LSN %d", len(ck.Shards), len(ck.Subspaces), len(ck.Sources), ck.LSN)
	}
}

// TestCheckpointSourceCountBounded: a source count the remaining
// payload cannot hold, or a repeated source name, is corruption, found
// before anything is allocated for the table.
func TestCheckpointSourceCountBounded(t *testing.T) {
	reseal := func(data []byte) []byte {
		binary.LittleEndian.PutUint32(data[12:], crc32.Checksum(data[ckptHeaderSize:], castagnoli))
		return data
	}
	ck := &Checkpoint{LSN: 1, Shards: [][]byte{[]byte("s")}}
	data, err := ck.encode()
	if err != nil {
		t.Fatal(err)
	}
	// The payload ends with the empty table's count.
	binary.LittleEndian.PutUint32(data[len(data)-4:], 1<<20)
	if _, err := decodeCheckpoint(reseal(data)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "source count") {
		t.Fatalf("oversized source count: %v", err)
	}
	ck.Sources = map[string][]byte{"a": []byte("x"), "b": []byte("y")}
	if data, err = ck.encode(); err != nil {
		t.Fatal(err)
	}
	// The table ends block("a") block("x") block("b") block("y"), each
	// a u32 length and one byte: name the first source "b" too.
	data[len(data)-16] = 'b'
	if _, err := decodeCheckpoint(reseal(data)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), `repeated name "b"`) {
		t.Fatalf("repeated source name: %v", err)
	}
}
