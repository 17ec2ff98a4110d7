package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/words"
)

var updateWALGolden = flag.Bool("update-wal-golden", false, "rewrite testdata/wal-golden with the current encoder")

// goldenDir holds a small data directory an earlier writeGoldenLog
// wrote, rolling 256-byte segments of format version 1: six segments
// (u16 batch, summary and subspace records; 53 to 2,151 bytes, the
// last one the shortest) and one checkpoint whose cut lies inside the
// first segment.
const goldenDir = "testdata/wal-golden"

// The golden stream's shape: an odd alphabet, so symbols use neither
// a power of two nor a whole byte.
const goldenD, goldenQ = 5, 7

// goldenFileDigests pins the SHA-256 of every file of the committed
// directory, which stays as it is, so recovery keeps reading the
// earlier layouts it holds.
var goldenFileDigests = map[string]string{
	"ckpt-0000000000000003.pfqc": "f823b1b0b4fd28c2fe846c0d45e293f62cf44f449ed0994a350adb5397a9ee52",
	"wal-0000000000000000.seg":   "6dea8e80fad42ef6444ded03ea21a9d241d1ed2364fa2e2e56438fdaa05b8421",
	"wal-0000000000000006.seg":   "95a2ebc75cf6efdd7b7ca70e52549a276e0066de83815e2f7e83c1a8dc2e26df",
	"wal-0000000000000008.seg":   "2d6edeae84a6127bfdc3c4925e0f4d5f774dea5907cc39f04e43367418490a39",
	"wal-000000000000000c.seg":   "c2447fd497938da7869cef9cdd99d4e56541205c60c074052dfd899d4668d1d5",
	"wal-0000000000000010.seg":   "52b11e760ecd28664657d044ec53633316157810754c150b870aa81830164cf0",
	"wal-0000000000000013.seg":   "e45e770a7e55d4efddddf7de0da1c174e2df40f1b4174d59a5ec591f13f978f3",
}

// goldenEncoderDigests pins the SHA-256 of every file writeGoldenLog
// writes now, so the WAL and checkpoint encoders stay byte-identical.
// It differs from the committed directory four ways. The checkpoint
// and the summary record carry the registered subspace, whose blob
// lost a KHLL block, and the exact catch-all, whose rows are shipped
// packed. The checkpoint is of format version 2, with an empty source
// table, and the summary is a named source record (kind 5) where the
// committed one is unnamed (kind 2). Segments are of format version
// 2, and their batch records are packed rows, 2 bytes a row where the
// u16 body took 10. And
// segments roll at 128 bytes, so the stream still spans five
// segments; the first three hold the committed ones' records. Each
// segment is the committed directory's records from its first LSN to
// the next one's, decoded and re-encoded.
var goldenEncoderDigests = map[string]string{
	"ckpt-0000000000000003.pfqc": "1e289f6cd1078c159a6e57578a9e0f785da6ed0d928b516e6b2f69f7efd79e0d",
	"wal-0000000000000000.seg":   "d5ff125c7aa3bdc6350f7d8224880bedad8f441c14c1c3dcee027c155475ec3c",
	"wal-0000000000000006.seg":   "75ebe942aad03ca5fc64aff20fe7420f27655ceb7efeb104acff50089635b69c",
	"wal-0000000000000008.seg":   "8793e286a92c54c015578e376773da9f942d273a3b67b9c44a8a16f597015dc0",
	"wal-000000000000000c.seg":   "36f177b4dd4ea0f89529872dcc3531e611960287d02a5067760bf86db0451ae2",
	"wal-0000000000000011.seg":   "479764449d00736015afe22e475452b17863c3f0cdde2f4ce74e84bf143b0183",
}

// goldenRecoveredDigest pins the SHA-256 of the recovered engine's
// MarshalBinary (the merged registry's wire form), so the decoders
// read back the same stream — from the checkpoint plus the tail, and
// from the whole log without the checkpoint, and from the committed
// directory as from one the current encoder writes. It was regenerated
// twice: when the exact catch-all came to ship its rows packed (the
// earlier blob decoded and re-encoded), and when the summary record
// came to replay as a source instead of folding into a shard: its rows
// now follow the shards' rows, and the batches logged after it route
// one shard over, since it no longer advances the routing counter.
// checkGoldenAnswers pins what that move must not change.
const goldenRecoveredDigest = "ade1b6fdc7b89c7e23e38452442630ab86a019aabf4343e7f5deaceeac52daa0"

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
// assorted sizes around one logged source registry, rolling 128-byte
// segments.
func writeGoldenLog(t *testing.T, dir string) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Dim: goldenD, Alphabet: goldenQ, Fsync: store.FsyncNever, SegmentBytes: 128})
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
		Shards:    cs.Shards, Sources: cs.Sources,
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
	blob, err := core.MarshalSummary(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AbsorbSource("donor", snap); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSource("donor", blob); err != nil {
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

// copyGolden copies the data directory src, without its checkpoint
// when skipCheckpoint, into a fresh directory and returns it.
func copyGolden(t *testing.T, src string, skipCheckpoint bool) string {
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
	return dir
}

// recoverGolden copies the data directory src (without its checkpoint
// when skipCheckpoint), recovers it the way the daemon boots, and
// returns the recovered engine's wire form.
func recoverGolden(t *testing.T, src string, skipCheckpoint bool) []byte {
	t.Helper()
	st, eng, info := openGolden(t, copyGolden(t, src, skipCheckpoint))
	defer st.Close()
	defer eng.Close()
	if info.Checkpoint == skipCheckpoint {
		t.Fatalf("recovery info %+v with skipCheckpoint=%v", info, skipCheckpoint)
	}
	blob, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// openGolden opens the golden-shaped data directory dir and recovers
// an engine teeing into it, the way the daemon boots. The caller
// closes both.
func openGolden(t *testing.T, dir string) (*store.Store, *engine.Sharded, store.RecoverInfo) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Dim: goldenD, Alphabet: goldenQ, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewSharded(goldenCatchAll, engine.Config{Shards: 2, BatchChunk: 4, Log: st})
	if err != nil {
		t.Fatal(err)
	}
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
		return eng.Restore(engine.CheckpointState{Next: ck.Next, Rows: ck.Rows, Absorbs: int(ck.Absorbs), Shards: ck.Shards, Sources: ck.Sources})
	}, func(rec store.Record) error {
		switch rec.Kind {
		case store.RecordBatch:
			if rec.Packed != nil {
				return eng.ReplayPacked(rec.Packed)
			}
			return eng.ReplayBatch(words.BatchOf(goldenD, rec.Rows))
		case store.RecordSource:
			sum, err := core.UnmarshalSummary(rec.Blob)
			if err != nil {
				return err
			}
			return eng.AbsorbSource(rec.Source, sum)
		case store.RecordSubspace:
			return register(store.SubspaceMeta{Mask: rec.Mask, Summary: rec.Summary})
		default:
			return fmt.Errorf("unexpected record kind %v", rec.Kind)
		}
	})
	if err != nil {
		eng.Close()
		st.Close()
		t.Fatal(err)
	}
	return st, eng, info
}

// TestWALFormatGolden pins the WAL and checkpoint bytes of a small
// mixed stream and what recovery reads back from them. The committed
// directory was written by an earlier encoder and is pinned by
// goldenFileDigests; the current encoder must write the files
// goldenEncoderDigests pins, and the current decoder must recover the
// pinned state from both. Regenerate the committed directory (only on
// a deliberate format change, with a version bump) with
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
	if len(got) != len(goldenEncoderDigests) || len(committed) != len(goldenFileDigests) {
		t.Errorf("%d files written, %d pinned; %d committed, %d pinned", len(got), len(goldenEncoderDigests), len(committed), len(goldenFileDigests))
	}
	for name, want := range goldenFileDigests {
		if committed[name] != want {
			t.Errorf("%s: committed file has sha256 %s, pinned %s", name, committed[name], want)
		}
	}
	for name, want := range goldenEncoderDigests {
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
	checkGoldenAnswers(t, withCkpt)
}

// The answers the golden stream recovers to, pinned from the encoder
// that wrote the committed directory, whose summary record was folded
// into a shard instead of kept as a source. goldenBatch writes one
// symbol across a row (j·7 ≡ 0 mod 7), so every non-empty C projects
// the stream alike: 7 patterns, F₂ 2,362 and F₀.₅ 29.898… over 128
// rows, 6 of them the source's.
const (
	goldenF0, goldenF2, goldenF05 = 7, 2362, 29.89889196773466
	goldenRows                    = 128
)

// checkGoldenAnswers decodes a recovered engine's wire form and checks
// F0, F₂ and F₀.₅ on every non-empty C ⊆ [5] against the catch-all,
// the registered subspace's F0 and the row count against the pins.
func checkGoldenAnswers(t *testing.T, blob []byte) {
	t.Helper()
	sum, err := core.UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	reg := sum.(*registry.Registry)
	full := reg.Full().(*core.Exact)
	for mask := uint64(1); mask < 1<<goldenD; mask++ {
		c, err := words.ColumnSetFromMask(mask, goldenD)
		if err != nil {
			t.Fatal(err)
		}
		f0, err0 := full.F0(c)
		f2, err2 := full.Fp(c, 2)
		f05, err05 := full.Fp(c, 0.5)
		if err := errors.Join(err0, err2, err05); err != nil || f0 != goldenF0 || f2 != goldenF2 || f05 != goldenF05 {
			t.Errorf("%v: F0 %v, F2 %v, F0.5 %v (%v); pinned %v, %v, %v", c, f0, f2, f05, err, goldenF0, goldenF2, goldenF05)
		}
	}
	cols, sub := reg.Subspace(0)
	if f0, err := sub.(core.F0Querier).F0(cols); err != nil || !cols.Equal(goldenSubspace) || f0 != goldenF0 {
		t.Errorf("subspace %v F0 %v (%v); pinned %v on %v", cols, f0, err, goldenF0, goldenSubspace)
	}
	if reg.Rows() != goldenRows {
		t.Errorf("recovered %d rows, pinned %d", reg.Rows(), goldenRows)
	}
}

// goldenLogRows is the number of rows the golden stream's batch
// records hold.
const goldenLogRows = 122

// TestAppendAfterEarlierSegments boots on a copy of the committed
// directory, whose segments are of format version 1, and ingests more
// rows, as a daemon upgraded in place does. The new records land in a
// fresh version-2 segment and every committed file keeps its bytes,
// so a decoder of version 1 alone refuses the directory by that
// segment's header instead of truncating a packed frame as a torn
// tail. The mixed directory recovers to the state the first boot
// reached, and Inspect counts the rows of both batch bodies. A packed
// batch frame inside a version-1 segment is damage.
func TestAppendAfterEarlierSegments(t *testing.T) {
	dir := copyGolden(t, goldenDir, false)
	st, eng, _ := openGolden(t, dir)
	for i, n := range []int{9, 3} {
		if err := eng.ObserveBatchDurable(goldenBatch(n, 70+i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	got := fileDigests(t, dir)
	for name, digest := range goldenFileDigests {
		if got[name] != digest {
			t.Errorf("%s changed: sha256 %s, committed %s", name, got[name], digest)
		}
	}
	const next = "wal-0000000000000014.seg" // the log ended at LSN 20
	if len(got) != len(goldenFileDigests)+1 || got[next] == "" {
		t.Fatalf("after appending, the directory holds %v; want the committed files and %s", got, next)
	}
	seg, err := os.ReadFile(filepath.Join(dir, next))
	if err != nil {
		t.Fatal(err)
	}
	if seg[4] != 2 {
		t.Fatalf("%s is of format version %d, want 2", next, seg[4])
	}

	st2, eng2, info := openGolden(t, dir)
	blob, err := eng2.MarshalBinary()
	eng2.Close()
	st2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("the mixed directory recovered %d bytes, unlike the %d the first boot served", len(blob), len(want))
	}
	if !info.Checkpoint || info.Records != 17+2 {
		t.Errorf("recovery info %+v, want the checkpoint and 19 records", info)
	}

	rep, err := store.Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, s := range rep.Segments {
		if s.Err != "" || s.Torn {
			t.Errorf("%s reported damaged: %+v", s.Name, s)
		}
		rows += s.Rows
		if s.Name == next && (s.Rows != 12 || s.Records != 2) {
			t.Errorf("%s: %d records of %d rows, want 2 of 12", s.Name, s.Records, s.Rows)
		}
	}
	if rows != goldenLogRows+12 {
		t.Errorf("Inspect counted %d rows, want %d", rows, goldenLogRows+12)
	}

	// A middle version-1 segment whose last batch record is rewritten
	// as the same rows packed, in a CRC-valid frame: the log would
	// recover were packed frames read there.
	bad := copyGolden(t, goldenDir, false)
	path := filepath.Join(bad, "wal-0000000000000008.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := 24 // the segment header's length
	for off := last; off < len(data); off += 8 + int(binary.LittleEndian.Uint32(data[off:])) {
		last = off
	}
	if data[last+8] != byte(store.RecordBatch) {
		t.Fatalf("the last record of %s is of kind %d, want a batch", path, data[last+8])
	}
	syms := make([]uint16, (len(data)-last-9)/2)
	words.DecodeSymbolsLE(syms, data[last+9:], goldenQ)
	pk := words.NewPacking(goldenD, goldenQ)
	payload := make([]byte, 1+len(syms)/goldenD*pk.Stride())
	payload[0] = 4
	pk.Pack(payload[1:], syms)
	frame := binary.LittleEndian.AppendUint32(data[:last:last], uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, append(frame, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := store.Open(store.Options{Dir: bad, Dim: goldenD, Alphabet: goldenQ, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if _, err := st3.Recover(nil, func(store.Record) error { return nil }); !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "wal-0000000000000008.seg") {
		t.Fatalf("a packed batch in a version-1 segment recovered with %v, want ErrCorrupt naming the segment", err)
	}
}
