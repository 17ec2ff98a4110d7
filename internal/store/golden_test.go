package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/words"
)

var updateWALGolden = flag.Bool("update-wal-golden", false, "rewrite testdata/wal-golden with the current encoder")

// goldenDir holds a small data directory written by writeGoldenLog:
// six segments (batch, summary and subspace records; 53 to 2,151
// bytes, the last one the shortest) and one checkpoint whose cut lies
// inside the first segment.
const goldenDir = "testdata/wal-golden"

// The golden stream's shape: an odd alphabet, so symbols use neither
// a power of two nor a whole byte.
const goldenD, goldenQ = 5, 7

// goldenFileDigests pins the SHA-256 of every file writeGoldenLog
// produces, so the WAL and checkpoint encoders stay byte-identical.
var goldenFileDigests = map[string]string{
	"ckpt-0000000000000003.pfqc": "f823b1b0b4fd28c2fe846c0d45e293f62cf44f449ed0994a350adb5397a9ee52",
	"wal-0000000000000000.seg":   "6dea8e80fad42ef6444ded03ea21a9d241d1ed2364fa2e2e56438fdaa05b8421",
	"wal-0000000000000006.seg":   "95a2ebc75cf6efdd7b7ca70e52549a276e0066de83815e2f7e83c1a8dc2e26df",
	"wal-0000000000000008.seg":   "2d6edeae84a6127bfdc3c4925e0f4d5f774dea5907cc39f04e43367418490a39",
	"wal-000000000000000c.seg":   "c2447fd497938da7869cef9cdd99d4e56541205c60c074052dfd899d4668d1d5",
	"wal-0000000000000010.seg":   "52b11e760ecd28664657d044ec53633316157810754c150b870aa81830164cf0",
	"wal-0000000000000013.seg":   "e45e770a7e55d4efddddf7de0da1c174e2df40f1b4174d59a5ec591f13f978f3",
}

// goldenEncoderDigests pins the files the current encoder writes
// differently from the committed ones: their checkpoint and summary
// records carry the registered subspace, whose blob lost a KHLL block
// after the directory was written, and the exact catch-all, whose rows
// have since been shipped packed instead of as u16 symbols. The
// committed files stay as they are, so recovery still reads both
// earlier layouts. Batch records keep their u16 bodies.
var goldenEncoderDigests = map[string]string{
	"ckpt-0000000000000003.pfqc": "8ec924fa6f6a60f2f0d39a163c3bc7cfa537d9765be9c80ca3339fdf3c6dacbd",
	"wal-0000000000000006.seg":   "fbd5838dde5935a0ba17b6f49f822572ed21839452348a5edaaa019de913e05b",
}

// goldenRecoveredDigest pins the SHA-256 of the recovered engine's
// MarshalBinary (the merged registry's wire form), so the decoders
// read back the same stream — from the checkpoint plus the tail, and
// from the whole log without the checkpoint, and from the committed
// directory as from one the current encoder writes. It was regenerated
// once, when the exact catch-all came to ship its rows packed: the new
// digest is that of the earlier blob decoded and re-encoded.
const goldenRecoveredDigest = "84b5e4889d640616e024bfafe8238e828f72878b273abbdd34734ca0e119c83a"

// goldenSubspace is the one registered column set.
var goldenSubspace = words.MustColumnSet(goldenD, 0, 2)

func goldenCatchAll(int) (core.Summary, error) { return core.NewExact(goldenD, goldenQ) }

func goldenSub(int) (core.Summary, error) {
	return core.NewRegistered(goldenD, goldenQ, goldenSubspace, core.RegisteredConfig{Seed: 3})
}

// goldenEngine builds the golden engine shape over log (nil for none)
// with its subspace registered; appendSub logs the registration.
func goldenEngine(t *testing.T, log engine.Log, appendSub func() error) *engine.Sharded {
	t.Helper()
	eng, err := engine.NewSharded(goldenCatchAll, engine.Config{Shards: 2, BatchChunk: 4, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterSubspaceLogged(goldenSubspace, goldenSub, appendSub); err != nil {
		t.Fatal(err)
	}
	return eng
}

// goldenBatch is a deterministic batch of n rows that reaches every
// symbol of the alphabet, the largest included.
func goldenBatch(n, salt int) *words.Batch {
	b := words.NewBatch(goldenD, n)
	for i := 0; i < n; i++ {
		r := b.AppendRow()
		for j := range r {
			r[j] = uint16((i*31 + j*7 + salt*13) % goldenQ)
		}
	}
	return b
}

// writeGoldenLog writes the golden stream into dir through an engine
// teeing into the store, exactly as a durable daemon does: the
// subspace registration, two batches, a checkpoint, then batches of
// assorted sizes around one absorbed registry, rolling 256-byte
// segments.
func writeGoldenLog(t *testing.T, dir string) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Dim: goldenD, Alphabet: goldenQ, Fsync: store.FsyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := goldenEngine(t, st, func() error { return st.AppendSubspace(goldenSubspace.Mask(), "registered") })
	defer eng.Close()
	observe := func(n, salt int) {
		if err := eng.ObserveBatchDurable(goldenBatch(n, salt)); err != nil {
			t.Fatal(err)
		}
	}
	observe(3, 1)
	observe(2, 2)
	cs, err := eng.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteCheckpoint(&store.Checkpoint{
		LSN: cs.LSN, Next: cs.Next, Rows: cs.Rows, Absorbs: uint64(cs.Absorbs),
		Subspaces: []store.SubspaceMeta{{Mask: goldenSubspace.Mask(), Summary: "registered"}},
		Shards:    cs.Shards,
	}); err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{1, 7, 4, 13} {
		observe(n, 3+i)
	}
	donor := goldenEngine(t, nil, nil)
	donor.ObserveBatch(goldenBatch(6, 40))
	snap, err := donor.Flush()
	donor.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Absorb(snap); err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{2, 9, 5, 24, 3, 6, 11, 1, 17, 4, 8, 2} {
		observe(n, 10+i)
	}
	if _, err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
}

// fileDigests maps every file name in dir to its SHA-256.
func fileDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

// recoverGolden copies the data directory src (without its checkpoint
// when skipCheckpoint), recovers it the way the daemon boots, and
// returns the recovered engine's wire form.
func recoverGolden(t *testing.T, src string, skipCheckpoint bool) []byte {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if skipCheckpoint && strings.HasPrefix(e.Name(), "ckpt-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(store.Options{Dir: dir, Dim: goldenD, Alphabet: goldenQ, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng, err := engine.NewSharded(goldenCatchAll, engine.Config{Shards: 2, BatchChunk: 4, Log: st})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	register := func(meta store.SubspaceMeta) error {
		if meta.Mask != goldenSubspace.Mask() || meta.Summary != "registered" {
			return fmt.Errorf("unexpected subspace %#x %q", meta.Mask, meta.Summary)
		}
		return eng.RegisterSubspace(goldenSubspace, goldenSub)
	}
	info, err := st.Recover(func(ck *store.Checkpoint) error {
		for _, meta := range ck.Subspaces {
			if err := register(meta); err != nil {
				return err
			}
		}
		return eng.Restore(engine.CheckpointState{Next: ck.Next, Rows: ck.Rows, Absorbs: int(ck.Absorbs), Shards: ck.Shards})
	}, func(rec store.Record) error {
		switch rec.Kind {
		case store.RecordBatch:
			return eng.ReplayBatch(words.BatchOf(goldenD, rec.Rows))
		case store.RecordSummary:
			sum, err := core.UnmarshalSummary(rec.Blob)
			if err != nil {
				return err
			}
			return eng.ReplayAbsorb(sum)
		case store.RecordSubspace:
			return register(store.SubspaceMeta{Mask: rec.Mask, Summary: rec.Summary})
		default:
			return fmt.Errorf("unexpected record kind %v", rec.Kind)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Checkpoint == skipCheckpoint {
		t.Fatalf("recovery info %+v with skipCheckpoint=%v", info, skipCheckpoint)
	}
	blob, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestWALFormatGolden pins the WAL and checkpoint bytes of a small
// mixed stream and what recovery reads back from them. The committed
// directory was written by an earlier encoder: the current encoder
// must reproduce it byte for byte except for the files
// goldenEncoderDigests names, and the current decoder must recover the
// pinned state from it and from what the current encoder writes. Regenerate (only on a deliberate
// format change, with a version bump) with
//
//	go test ./internal/store -run TestWALFormatGolden -update-wal-golden
func TestWALFormatGolden(t *testing.T) {
	fresh := t.TempDir()
	writeGoldenLog(t, fresh)
	got := fileDigests(t, fresh)
	if *updateWALGolden {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.CopyFS(goldenDir, os.DirFS(fresh)); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%q: %q,", name, got[name])
	}
	segments, checkpoints := 0, 0
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "wal-"):
			segments++
		case strings.HasPrefix(name, "ckpt-"):
			checkpoints++
		}
	}
	if segments < 4 || checkpoints != 1 {
		t.Fatalf("golden stream wrote %d segments and %d checkpoints, want ≥ 4 and 1", segments, checkpoints)
	}
	committed := fileDigests(t, goldenDir)
	if len(got) != len(goldenFileDigests) || len(committed) != len(goldenFileDigests) {
		t.Errorf("%d files written, %d committed, %d pinned", len(got), len(committed), len(goldenFileDigests))
	}
	for name, want := range goldenFileDigests {
		if committed[name] != want {
			t.Errorf("%s: committed file has sha256 %s, pinned %s", name, committed[name], want)
		}
		if w, ok := goldenEncoderDigests[name]; ok {
			want = w
		}
		if got[name] != want {
			t.Errorf("%s: encoder wrote sha256 %s, pinned %s", name, got[name], want)
		}
	}

	withCkpt := recoverGolden(t, goldenDir, false)
	fullLog := recoverGolden(t, goldenDir, true)
	if !bytes.Equal(withCkpt, fullLog) {
		t.Errorf("checkpoint + tail recovered %d bytes, full log %d: they differ", len(withCkpt), len(fullLog))
	}
	if rewritten := recoverGolden(t, fresh, false); !bytes.Equal(withCkpt, rewritten) {
		t.Errorf("the committed directory recovered %d bytes, the current encoder's %d: they differ", len(withCkpt), len(rewritten))
	}
	sum := sha256.Sum256(withCkpt)
	if d := hex.EncodeToString(sum[:]); d != goldenRecoveredDigest {
		t.Errorf("recovered engine sha256 %s, pinned %s", d, goldenRecoveredDigest)
	}
}
