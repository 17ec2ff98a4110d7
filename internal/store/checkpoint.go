package store

import (
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/wire"
)

// This file is the checkpoint format: a point-in-time image of the
// engine that makes every WAL record below its LSN redundant.
//
// Checkpoint file layout (little-endian, see ARCHITECTURE.md):
//
//	offset size field
//	0      4    magic "PFQC"
//	4      1    format version (ckptVersion, or 1 from earlier encoders)
//	5      3    reserved, must be zero
//	8      4    payload length (u32)
//	12     4    CRC32C of the payload
//	16     …    payload
//
// Payload:
//
//	u64 lsn     — the WAL cut: every record with LSN < lsn is inside
//	u64 next    — the engine's round-robin routing counter at the cut
//	i64 rows    — the engine's accepted-row clock at the cut
//	u64 absorbs — the engine's source install/removal count at the cut
//	u32 nsubs, then per subspace: u64 mask + block(kind string)
//	u32 nshards, then per shard: block(summary wire blob)
//	u32 nsources, then per source in name order: block(name) +
//	    block(summary wire blob) — version 2 only (version 1 ends above)
//
// The per-shard blobs are ordinary core/registry wire envelopes
// (ARCHITECTURE.md "Wire format") — the checkpoint adds only the cut
// metadata around them. Shard state is stored per shard, not merged,
// because recovery must restore the exact sharded state: replayed
// records re-route with the restored counter, so the recovered engine
// is bit-identical to one that never crashed.

// ckptVersion is the checkpoint file format version. Version 2 added
// the source table; version 1 is still read.
const ckptVersion = 2

// ckptHeaderSize is the magic+version+length+CRC prefix.
const ckptHeaderSize = 16

// ckptMagic opens every checkpoint file.
var ckptMagic = [4]byte{'P', 'F', 'Q', 'C'}

// SubspaceMeta records one subspace registration inside a checkpoint:
// enough for the daemon to re-provision the same subspace summary
// before restoring shard state.
type SubspaceMeta struct {
	// Mask is the registered column set as a bitmask (words.ColumnSet.Mask).
	Mask uint64
	// Summary is the provisioning kind string the daemon's subspace
	// builder understands ("registered"; the daemon refuses any other).
	Summary string
}

// Checkpoint is a decoded checkpoint: the engine's durable image at
// one exact WAL cut.
type Checkpoint struct {
	// LSN is the WAL cut point: every record with a smaller LSN is
	// reflected in Shards; recovery replays from here.
	LSN uint64
	// Next is the engine's round-robin routing counter at the cut.
	Next uint64
	// Rows is the engine's accepted-row clock at the cut.
	Rows int64
	// Absorbs is the engine's source install/removal count at the cut
	// (it gates late subspace registration, so it must survive it).
	Absorbs uint64
	// Subspaces lists the registrations the shards were built with, in
	// registration order.
	Subspaces []SubspaceMeta
	// Shards holds one wire blob (core/registry envelope) per ingest
	// shard, in shard order.
	Shards [][]byte
	// Sources maps each source's name to its summary's wire blob.
	Sources map[string][]byte
}

// encode serializes the checkpoint file image.
func (c *Checkpoint) encode() ([]byte, error) {
	p := &wire.Writer{}
	p.U64(c.LSN)
	p.U64(c.Next)
	p.I64(c.Rows)
	p.U64(c.Absorbs)
	p.U32(uint32(len(c.Subspaces)))
	for _, s := range c.Subspaces {
		p.U64(s.Mask)
		p.Block([]byte(s.Summary))
	}
	p.U32(uint32(len(c.Shards)))
	for _, blob := range c.Shards {
		p.Block(blob)
	}
	p.U32(uint32(len(c.Sources)))
	for _, name := range slices.Sorted(maps.Keys(c.Sources)) {
		p.Block([]byte(name))
		p.Block(c.Sources[name])
	}
	payload := p.Bytes()
	if int64(len(payload)) > int64(^uint32(0)) {
		return nil, fmt.Errorf("store: checkpoint payload of %d bytes exceeds the 4 GiB frame limit", len(payload))
	}
	w := wire.NewWriter(ckptHeaderSize + len(payload))
	w.Raw(ckptMagic[:])
	w.U8(ckptVersion)
	w.U8(0)
	w.U16(0)
	w.U32(uint32(len(payload)))
	w.U32(crc32.Checksum(payload, castagnoli))
	w.Raw(payload)
	return w.Bytes(), nil
}

// decodeCheckpoint validates and parses a checkpoint file image.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < ckptHeaderSize {
		return nil, fmt.Errorf("%w: checkpoint of %d bytes is shorter than the %d-byte header", ErrCorrupt, len(data), ckptHeaderSize)
	}
	h := wire.NewReader(data[:ckptHeaderSize], ErrCorrupt)
	var magic [4]byte
	magic[0], magic[1], magic[2], magic[3] = h.U8(), h.U8(), h.U8(), h.U8()
	if magic != ckptMagic {
		return nil, fmt.Errorf("%w: bad checkpoint magic %q", ErrCorrupt, magic[:])
	}
	version := h.U8()
	if version < 1 || version > ckptVersion {
		return nil, fmt.Errorf("%w: unsupported checkpoint version %d (have %d)", ErrCorrupt, version, ckptVersion)
	}
	if h.U8() != 0 || h.U16() != 0 {
		return nil, fmt.Errorf("%w: non-zero reserved checkpoint bytes", ErrCorrupt)
	}
	plen := int(h.U32())
	sum := h.U32()
	if plen != len(data)-ckptHeaderSize {
		return nil, fmt.Errorf("%w: checkpoint payload length %d does not match %d remaining bytes", ErrCorrupt, plen, len(data)-ckptHeaderSize)
	}
	payload := data[ckptHeaderSize:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fmt.Errorf("%w: checkpoint CRC mismatch", ErrCorrupt)
	}
	r := wire.NewReader(payload, ErrCorrupt)
	c := &Checkpoint{LSN: r.U64(), Next: r.U64(), Rows: r.I64()}
	c.Absorbs = r.U64()
	if c.Rows < 0 {
		return nil, fmt.Errorf("%w: negative checkpoint row count %d", ErrCorrupt, c.Rows)
	}
	nsubs := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Each subspace costs at least its mask plus a block prefix; the
	// claimed count is validated against the remaining payload before
	// anything is allocated (the same rule the summary codecs follow).
	if nsubs < 0 || 12*nsubs > r.Remaining() {
		return nil, fmt.Errorf("%w: checkpoint subspace count %d in %d payload bytes", ErrCorrupt, nsubs, r.Remaining())
	}
	for i := 0; i < nsubs; i++ {
		mask := r.U64()
		name := r.Block()
		if err := r.Err(); err != nil {
			return nil, err
		}
		c.Subspaces = append(c.Subspaces, SubspaceMeta{Mask: mask, Summary: string(name)})
	}
	nshards := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nshards < 1 || 4*nshards > r.Remaining() {
		return nil, fmt.Errorf("%w: checkpoint shard count %d in %d payload bytes", ErrCorrupt, nshards, r.Remaining())
	}
	for i := 0; i < nshards; i++ {
		blob := r.Block()
		if err := r.Err(); err != nil {
			return nil, err
		}
		// Copy out of the file image: shard blobs outlive the decode.
		c.Shards = append(c.Shards, append([]byte(nil), blob...))
	}
	if version >= 2 {
		n := int(r.U32()) // each source costs at least two block prefixes
		if r.Err() == nil && 8*n > r.Remaining() {
			return nil, fmt.Errorf("%w: checkpoint source count %d in %d payload bytes", ErrCorrupt, n, r.Remaining())
		}
		c.Sources = make(map[string][]byte, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			name, blob := string(r.Block()), r.Block()
			if _, dup := c.Sources[name]; r.Err() == nil && (dup || name == "") {
				return nil, fmt.Errorf("%w: checkpoint source %d has an empty or repeated name %q", ErrCorrupt, i, name)
			}
			c.Sources[name] = append([]byte(nil), blob...)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
}

// checkpointName formats a checkpoint file name from its cut LSN.
func checkpointName(lsn uint64) string {
	return fmt.Sprintf("ckpt-%016x.pfqc", lsn)
}

// parseCheckpointName extracts the cut LSN from a checkpoint file name.
func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".pfqc") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".pfqc")
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listCheckpoints returns the directory's checkpoint files ascending
// by cut LSN.
func listCheckpoints(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseCheckpointName(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(dir, n)
	}
	return paths, nil
}

// WriteFileAtomic writes data to path so that a crash at any moment
// leaves either the old content (or no file) or the complete new
// content — never a torn prefix. It stages the bytes in a temporary
// file in the target's directory, fsyncs it, renames it over path, and
// fsyncs the directory so the rename itself is durable. Checkpoint
// files and cmd/projfreq's -save blobs both go through it.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making renames and removals in it
// durable. Failures to open the directory are returned; platforms
// where directories cannot be fsynced surface their error too, so
// callers on such systems see the gap instead of assuming durability.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
