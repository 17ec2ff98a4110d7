// Package store is the durability subsystem: a log-structured store
// that makes an engine's ingested stream survive a process crash. It
// pairs a segmented write-ahead log of ingestion records (length-
// prefixed, CRC32C-framed, tolerant of a torn final frame) with
// periodic checkpoint files that wrap the summaries' existing wire
// envelopes, and recovers by loading the newest usable checkpoint and
// replaying the WAL records after its cut.
//
// # Division of labor
//
// The store knows files, frames, and sequence numbers; it does not
// know summaries. Ingestion records carry opaque row data and wire
// blobs; checkpoints carry per-shard wire blobs plus the engine's
// routing clock at the cut. The engine (internal/engine) decides what
// the cut means — it captures checkpoint state under its quiesce
// barrier so the shard blobs and the WAL cut agree exactly — and the
// daemon (internal/node) glues the two together at boot and shutdown.
//
// # Log sequence numbers
//
// Every appended record gets the next LSN, starting at 0. A segment
// file named wal-<firstLSN>.seg holds the records [firstLSN,
// firstLSN+frames); a checkpoint named ckpt-<lsn>.pfqc covers every
// record with LSN < lsn. Recovery = newest usable checkpoint +
// in-order replay of records with LSN ≥ its cut. WriteCheckpoint
// compacts: it prunes to the two newest checkpoints and deletes the
// segments wholly below the oldest retained cut — the older
// checkpoint plus the log from its cut onward stay intact, so it
// remains a usable fallback if the newest checkpoint rots.
//
// # Fsync policy
//
// FsyncAlways syncs after every append: an acknowledged record is on
// disk even across power loss. FsyncInterval syncs on a timer
// (Options.FsyncEvery): a crash loses at most the last interval.
// FsyncNever leaves syncing to the OS: process crashes lose nothing
// (the data is in the page cache), power loss may lose the unsynced
// tail. All policies sync on Close and before a checkpoint compacts.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/words"
)

// ErrCorrupt is the sentinel wrapped by every corruption-shaped
// failure: damaged segment headers, mid-log frame damage, undecodable
// checkpoints, and recovery gaps.
var ErrCorrupt = errors.New("store: corrupt data")

// ErrShapeMismatch reports opening a directory whose segments were
// written for a different (d, Q) shape than the caller's.
var ErrShapeMismatch = errors.New("store: directory shape mismatch")

// Policy selects when appended records are fsynced.
type Policy uint8

// The fsync policies.
const (
	// FsyncInterval syncs on a timer (Options.FsyncEvery); a crash
	// loses at most the last interval. The default.
	FsyncInterval Policy = iota
	// FsyncAlways syncs after every append before it returns.
	FsyncAlways
	// FsyncNever leaves syncing to the OS (and to Close/checkpoints).
	FsyncNever
)

// String names the policy as spelled on the projfreqd -fsync flag.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ParsePolicy maps the projfreqd -fsync flag spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "", "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// Options configures Open; zero values select defaults.
type Options struct {
	// Dir is the data directory (created if missing). Required.
	Dir string
	// Dim and Alphabet are the stream shape (d, Q); segments record
	// them, and reopening with a different shape fails with
	// ErrShapeMismatch. Required.
	Dim, Alphabet int
	// Fsync selects the append sync policy (default FsyncInterval).
	Fsync Policy
	// FsyncEvery is the FsyncInterval period (default 100ms).
	FsyncEvery time.Duration
	// SegmentBytes rolls the active segment once it exceeds this size
	// (default 1 MiB). The size sets what a boot reads: Recover never
	// reads a segment wholly below the cut it restores, and it reads
	// each replayed segment into one image sized once for the largest,
	// so smaller segments waste less of the log below the cut and keep
	// that image cache-resident rather than faulting in fresh pages.
	// The cost is a roll per SegmentBytes of log, three fsyncs (the old
	// segment, the new header, the directory). Nothing on disk records
	// the size; a directory written at another one opens as it is, and
	// its active segment rolls at the next append once it is past this
	// one.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	return o
}

// segmentInfo tracks one on-disk segment.
type segmentInfo struct {
	path     string
	firstLSN uint64
	bytes    int64
}

// verifiedSegment is the last segment as Open read and verified it:
// its image cut to the whole frames, and their scan. Open keeps it for
// the first Recover, which replays it without reading it again; an
// append or Close drops it.
type verifiedSegment struct {
	path  string
	image []byte
	res   scanResult
}

// Store is an open WAL + checkpoint directory. Appends are safe for
// concurrent callers (serialized internally); Recover must run before
// the first append, as the daemon's boot sequence does.
type Store struct {
	opts Options
	pk   words.Packing // the batch records' row layout

	mu        sync.Mutex
	seg       *os.File // active segment
	segments  []segmentInfo
	lsn       uint64 // next LSN to assign
	dirty     bool   // unsynced appends (FsyncInterval bookkeeping)
	appended  bool   // any append since Open (Recover guard)
	closed    bool
	failed    error  // latched unrecoverable-tail error; fails all appends
	buf       []byte // frame staging buffer, reused across appends
	tail      *verifiedSegment
	ckptCount int
	ckptLSN   uint64 // newest checkpoint's cut, 0 if none

	flushStop chan struct{} // interval flusher lifecycle
	flushDone chan struct{}
}

// Open opens (or initializes) a data directory for appending: it
// scans the existing segments, truncates a torn final frame so the
// log ends on a whole record, and positions the next LSN after the
// last valid record. The directory's shape must match the caller's.
//
// Open owns the directory: one Store at a time, and no other writer.
// It repairs what a crash can leave behind in it, removing files no
// acknowledged record lives in: a final segment that holds no header
// (a stub shorter than one, or all zero bytes, as a file system that
// persists a file's size before its data leaves a segment created
// mid-roll), a torn final frame, and checkpoint temp files a crash
// left before their rename.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if opts.Dim < 1 || opts.Alphabet < 2 || opts.Alphabet > words.MaxAlphabet {
		return nil, fmt.Errorf("store: degenerate shape d=%d q=%d", opts.Dim, opts.Alphabet)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := removeCheckpointTemps(opts.Dir); err != nil {
		return nil, err
	}
	st := &Store{opts: opts, pk: words.NewPacking(opts.Dim, opts.Alphabet)}
	if err := st.scan(); err != nil {
		return nil, err
	}
	if err := st.openActive(); err != nil {
		return nil, err
	}
	if opts.Fsync == FsyncInterval {
		st.flushStop = make(chan struct{})
		st.flushDone = make(chan struct{})
		go st.flushLoop()
	}
	return st, nil
}

// scan inventories the directory (readTail) and applies Open's repairs
// to what it found, so appends continue from a clean end: it drops the
// trailing stubs and cuts the last segment's torn tail. It sets the
// segment list, the next LSN and the checkpoint count.
func (st *Store) scan() error {
	t, err := readTail(st.opts.Dir)
	if err != nil {
		return err
	}
	for i := len(t.paths) - 1; i >= len(t.segments); i-- {
		// A crash between creating a segment and writing its header
		// leaves a stub with no records in it: shorter than the header,
		// or, on a file system that persists a file's size before its
		// data, zero bytes of any length. Drop it; the next roll takes
		// its name again.
		if err := os.Remove(t.paths[i]); err != nil {
			return err
		}
	}
	if n := len(t.segments); n > 0 {
		last := &t.segments[n-1]
		if err := st.checkShape(last.path, t.last.header); err != nil {
			return err
		}
		if t.last.torn {
			// The torn final frame is the crash's half-written append;
			// the record was never acknowledged, so cutting the file back
			// to the last whole frame loses nothing that was promised.
			if err := os.Truncate(last.path, int64(t.last.validLen)); err != nil {
				return err
			}
			last.bytes, t.last.torn = int64(t.last.validLen), false
		}
		st.segments, st.lsn = t.segments, t.end()
		st.tail = &verifiedSegment{path: last.path, image: t.image[:t.last.validLen], res: t.last}
	}
	ckpts, err := listCheckpoints(st.opts.Dir)
	if err != nil {
		return err
	}
	st.ckptCount = len(ckpts)
	if len(ckpts) > 0 {
		st.ckptLSN, _ = parseCheckpointName(filepath.Base(ckpts[len(ckpts)-1]))
	}
	return nil
}

// logTail is the end of a directory's log as Open finds it, before it
// repairs anything: every segment, the ones Open keeps — all but the
// trailing stubs (isStub) — and the scan of the last one it keeps.
// Open drops the stubs and cuts the last segment's torn tail (scan);
// Inspect reports from the same reading and changes nothing.
type logTail struct {
	paths    []string      // every segment, ascending by first LSN
	segments []segmentInfo // paths[:len(segments)], the ones Open keeps, sized as on disk
	last     scanResult    // the last kept segment's scan
	image    []byte        // the last kept segment's image
}

// end returns the LSN after the last kept segment's last whole record:
// the next LSN Open assigns.
func (t *logTail) end() uint64 {
	if len(t.segments) == 0 {
		return 0
	}
	return t.last.header.firstLSN + uint64(t.last.records)
}

// readTail reads dir's log tail, reading the segments it looks at into
// one image buffer, and writes nothing. When the last kept segment's
// header does not parse, it returns the tail read so far, without the
// scan, and an error wrapping ErrCorrupt that names the segment.
func readTail(dir string) (logTail, error) {
	paths, err := listSegments(dir)
	if err != nil {
		return logTail{}, err
	}
	t := logTail{paths: paths}
	var image []byte
	kept := len(paths)
	for ; kept > 0; kept-- {
		if image, err = readSegment(paths[kept-1], image); err != nil {
			return logTail{}, err
		}
		if !isStub(image) {
			break
		}
	}
	t.image = image
	for _, p := range paths[:kept] {
		info, err := os.Stat(p)
		if err != nil {
			return logTail{}, err
		}
		first, _ := parseSegmentName(filepath.Base(p))
		t.segments = append(t.segments, segmentInfo{path: p, firstLSN: first, bytes: info.Size()})
	}
	if kept > 0 {
		if t.last, err = scanSegment(image); err != nil {
			return t, fmt.Errorf("%s: %w", filepath.Base(paths[kept-1]), err)
		}
	}
	return t, nil
}

// isStub reports whether a final segment's image holds no header:
// shorter than one, or all zero bytes. Open drops such a segment.
func isStub(data []byte) bool {
	if len(data) < segHeaderSize {
		return true
	}
	for _, b := range data {
		if b != 0 {
			return false
		}
	}
	return true
}

// checkShape validates a segment header against the open options.
func (st *Store) checkShape(path string, h segHeader) error {
	if h.dim != st.opts.Dim || h.alphabet != st.opts.Alphabet {
		return fmt.Errorf("%w: %s was written for shape %d/[%d], store opened with %d/[%d]",
			ErrShapeMismatch, filepath.Base(path), h.dim, h.alphabet, st.opts.Dim, st.opts.Alphabet)
	}
	return nil
}

// openActive opens the last segment for appending, or creates the
// next one: the first, or the successor of a segment of an earlier
// format version, which is never appended to. An earlier segment that
// holds no record goes first, since its successor takes its name.
func (st *Store) openActive() error {
	n := len(st.segments)
	if n > 0 && st.tail.res.header.version != walVersion {
		if st.tail.res.records == 0 {
			if err := os.Remove(st.tail.path); err != nil {
				return err
			}
			st.segments, st.tail = st.segments[:n-1], nil
		}
		n = 0
	}
	if n == 0 {
		return st.rollLocked()
	}
	active := &st.segments[n-1]
	f, err := os.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st.seg = f
	return nil
}

// rollLocked closes the active segment and starts a new one whose
// first LSN is the current next-LSN. Callers hold st.mu (or are the
// single-threaded Open path).
func (st *Store) rollLocked() error {
	if st.seg != nil {
		if err := st.seg.Sync(); err != nil {
			return err
		}
		if err := st.seg.Close(); err != nil {
			return err
		}
		st.seg = nil
		st.dirty = false
	}
	path := filepath.Join(st.opts.Dir, segmentName(st.lsn))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	header := appendSegHeader(nil, st.opts.Dim, st.opts.Alphabet, st.lsn)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return err
	}
	// The header must be durable before any frame relies on it, and
	// the directory entry before compaction deletes predecessors.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(st.opts.Dir); err != nil {
		f.Close()
		return err
	}
	st.seg = f
	st.segments = append(st.segments, segmentInfo{path: path, firstLSN: st.lsn, bytes: segHeaderSize})
	return nil
}

// append frames one record, writes it, and applies the fsync policy;
// enc encodes the record payload directly into the reused frame
// buffer (after its reserved header), so the hot durable-ingest path
// stages no per-record intermediate buffer. An enc error is returned
// with nothing written. The segment roll runs
// BEFORE the write, not after: once a frame is durably on disk the
// append must report success (an error would make the caller refuse
// rows that recovery later resurrects, double-counting the client's
// retry), so nothing fallible may follow the write except the
// record's own fsync — whose failure leaves the record un-synced
// exactly as if the write had not happened.
func (st *Store) append(enc func(dst []byte) ([]byte, error)) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return errors.New("store: append after Close")
	}
	if st.failed != nil {
		return st.failed
	}
	if st.segments[len(st.segments)-1].bytes >= st.opts.SegmentBytes {
		if err := st.rollLocked(); err != nil {
			return err
		}
	}
	active := &st.segments[len(st.segments)-1]
	buf, err := enc(beginFrame(st.buf[:0]))
	if err != nil {
		return err
	}
	st.buf = buf
	finishFrame(st.buf)
	if n, err := st.seg.Write(st.buf); err != nil || n != len(st.buf) {
		if err == nil {
			err = fmt.Errorf("store: short write (%d of %d bytes)", n, len(st.buf))
		}
		// Claw the partial frame back so the file still ends on a whole
		// frame; otherwise a later successful append would write past
		// the garbage and recovery would truncate (or refuse) records
		// that were acknowledged after this failure. If even the
		// truncate fails, the segment's tail state is unknown — latch
		// the store so no further append can be acknowledged.
		if terr := st.seg.Truncate(active.bytes); terr != nil {
			st.failed = fmt.Errorf("store: segment tail unrecoverable after failed append (%v; truncate: %v)", err, terr)
			return st.failed
		}
		return err
	}
	switch st.opts.Fsync {
	case FsyncAlways:
		if err := st.seg.Sync(); err != nil {
			// The record is written but not provably durable, and the
			// caller will refuse the request — so the record must leave
			// the logical log too, or a retry would double-count on
			// replay. (A crash before the truncate reaches disk can
			// still resurrect it as a valid tail frame; that is the
			// same unacknowledged-append window a crash mid-request
			// always has.)
			if terr := st.seg.Truncate(active.bytes); terr != nil {
				st.failed = fmt.Errorf("store: segment tail unrecoverable after failed sync (%v; truncate: %v)", err, terr)
				return st.failed
			}
			return err
		}
	default:
		st.dirty = true
	}
	st.appended = true
	st.tail = nil
	st.lsn++
	active.bytes += int64(len(st.buf))
	return nil
}

// AppendBatch logs one batch of ingested rows, packed. The batch is
// encoded into the frame before the call returns; b is not retained. A
// batch with a symbol outside the store's alphabet, which no packed
// row can hold, is refused with nothing logged.
func (st *Store) AppendBatch(b *words.Batch) error {
	if b.Dim() != st.opts.Dim {
		return fmt.Errorf("store: batch dimension %d != store dimension %d", b.Dim(), st.opts.Dim)
	}
	rows := b.Symbols()
	return st.append(func(dst []byte) ([]byte, error) {
		dst, bad := encodeBatchRecord(dst, st.pk, rows)
		if bad >= 0 {
			return nil, fmt.Errorf("store: batch row %d symbol %d outside alphabet [%d]", bad/st.opts.Dim, rows[bad], st.opts.Alphabet)
		}
		return dst, nil
	})
}

// AppendSource logs one source's summary under its name; replay
// installs it in place of any earlier summary of that source.
func (st *Store) AppendSource(name string, blob []byte) error {
	return st.append(func(dst []byte) ([]byte, error) { return encodeSourceRecord(dst, name, blob), nil })
}

// AppendSummary logs an unnamed summary's wire blob, which replays as
// a source named "wal-<lsn>". No daemon path writes it; it stays only
// because the benchmark module's engine.Log wrapper forwards to it.
func (st *Store) AppendSummary(blob []byte) error {
	return st.append(func(dst []byte) ([]byte, error) { return encodeSummaryRecord(dst, blob), nil })
}

// AppendSubspace logs one subspace registration: the column-set mask
// and the provisioning kind string replay hands back to the daemon's
// subspace builder.
func (st *Store) AppendSubspace(mask uint64, summary string) error {
	return st.append(func(dst []byte) ([]byte, error) { return encodeSubspaceRecord(dst, mask, summary), nil })
}

// LSN returns the next log sequence number — the number of records
// ever appended (and survived recovery) in this directory.
func (st *Store) LSN() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lsn
}

// Sync flushes the active segment to disk regardless of policy.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.syncLocked()
}

func (st *Store) syncLocked() error {
	if st.seg == nil || !st.dirty {
		return nil
	}
	if err := st.seg.Sync(); err != nil {
		return err
	}
	st.dirty = false
	return nil
}

// flushLoop is the FsyncInterval timer.
func (st *Store) flushLoop() {
	defer close(st.flushDone)
	t := time.NewTicker(st.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-st.flushStop:
			return
		case <-t.C:
			st.mu.Lock()
			if !st.closed && st.failed == nil {
				// A failed background fsync cannot be retried safely:
				// the kernel may have dropped the dirty pages, so a
				// later "successful" sync would clear dirty with the
				// data gone. Latch the store instead — every further
				// append fails loudly and the daemon stops
				// acknowledging rows it cannot promise.
				if err := st.syncLocked(); err != nil {
					st.failed = fmt.Errorf("store: background fsync failed; acknowledged-durability can no longer be promised: %w", err)
				}
			}
			st.mu.Unlock()
		}
	}
}

// Close syncs and closes the active segment. The store must not be
// used afterwards.
func (st *Store) Close() error {
	if st.flushStop != nil {
		close(st.flushStop)
		<-st.flushDone
		st.flushStop = nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	st.tail = nil
	if st.seg == nil {
		return nil
	}
	err := st.seg.Sync()
	if cerr := st.seg.Close(); err == nil {
		err = cerr
	}
	st.seg = nil
	return err
}

// RecoverInfo reports what Recover did.
type RecoverInfo struct {
	// CheckpointLSN is the cut of the checkpoint recovery restored
	// from; 0 with Checkpoint == false means a full-log replay.
	CheckpointLSN uint64
	// Checkpoint reports whether a checkpoint was restored.
	Checkpoint bool
	// Records and Rows count the replayed WAL records and the rows
	// they carried.
	Records int
	// Rows is the total row count of replayed batch records, packed
	// and u16 alike.
	Rows int64
	// SegmentsRead counts the segments this boot verified: the ones
	// Recover read and the last one, which Open read and kept.
	// SegmentsSkipped counts the retained segments wholly below the
	// restored cut, which nothing reads.
	SegmentsRead, SegmentsSkipped int
}

// Recover rebuilds state from the directory: it loads the newest
// checkpoint that decodes cleanly and whose replay range is still
// covered by the retained segments, hands it to restore (if one was
// found), then calls apply for every record with LSN ≥ the cut, in
// LSN order — the ordering the engine's Restore/Replay pair needs.
// With no usable checkpoint the whole log replays. Recover must run
// before the first append (the boot sequence: Open, Recover, then
// serve).
//
// Damage is handled by layer: a checkpoint that fails its CRC is
// skipped in favor of an older covered one; a torn final WAL frame
// was already truncated by Open; frame damage anywhere else in the
// log — and a checkpoint/segment configuration that leaves a gap in
// the replay range — is real corruption and fails with ErrCorrupt. A
// valid checkpoint whose cut lies BEYOND the recovered log end (the
// tail truncation ate records the checkpoint had already captured)
// supersedes the log: it is restored with nothing to replay, and the
// log is realigned to start at its cut so new appends can never reuse
// LSNs the checkpoint covers — without that, a later recovery would
// replay the new records as if they were the old ones.
func (st *Store) Recover(restore func(*Checkpoint) error, apply func(Record) error) (RecoverInfo, error) {
	st.mu.Lock()
	if st.appended {
		st.mu.Unlock()
		return RecoverInfo{}, errors.New("store: Recover after appends")
	}
	segments := append([]segmentInfo(nil), st.segments...)
	end := st.lsn
	// Open's verified image of the last segment serves this replay
	// only; a later Recover reads the file again.
	tail := st.tail
	st.tail = nil
	st.mu.Unlock()

	plan, err := planReplay(st.opts.Dir, segments, end)
	if err != nil {
		return RecoverInfo{}, err
	}
	info := RecoverInfo{SegmentsRead: len(segments) - plan.first, SegmentsSkipped: plan.first}
	if ck := plan.ck; ck != nil {
		info.CheckpointLSN = ck.LSN
		info.Checkpoint = true
		if restore != nil {
			if err := restore(ck); err != nil {
				return RecoverInfo{}, fmt.Errorf("store: restoring checkpoint at LSN %d: %w", ck.LSN, err)
			}
		}
		if ck.LSN > end {
			// Checkpoint-supersedes-log: everything retained is below
			// the cut, so there is nothing to replay — but the next LSN
			// must continue from the cut, not from the truncated end.
			if err := st.realignTo(ck.LSN); err != nil {
				return RecoverInfo{}, err
			}
			return info, nil
		}
	}
	// The last segment may already be in memory from Open.
	held := func(seg segmentInfo) bool { return tail != nil && tail.path == seg.path }
	// One segment image and one set of record buffers serve the whole
	// replay. The image is sized for the largest segment to read up
	// front, so it is allocated (and zeroed) once, not once per segment.
	var largest int64
	for _, seg := range segments[plan.first:] {
		if !held(seg) {
			largest = max(largest, seg.bytes)
		}
	}
	image := make([]byte, 0, largest)
	var bufs recordBufs
	for i := plan.first; i < len(segments); i++ {
		seg := segments[i]
		var data []byte
		var res scanResult
		if held(seg) {
			data, res = tail.image, tail.res
		} else {
			if image, err = readSegment(seg.path, image); err != nil {
				return RecoverInfo{}, err
			}
			// The whole segment is verified before any of its records
			// is applied: a damaged frame fails recovery with nothing of
			// its segment replayed.
			if res, err = scanSegment(image); err != nil {
				return RecoverInfo{}, fmt.Errorf("%s: %w", filepath.Base(seg.path), err)
			}
			if err := st.checkShape(seg.path, res.header); err != nil {
				return RecoverInfo{}, err
			}
			data = image
		}
		// Open truncated the final segment's torn tail; any other torn
		// scan means damage in the middle of the log.
		if res.torn {
			return RecoverInfo{}, fmt.Errorf("%w: %s holds a damaged frame mid-log", ErrCorrupt, filepath.Base(seg.path))
		}
		if end := res.header.firstLSN + uint64(res.records); i+1 < len(segments) && segments[i+1].firstLSN != end {
			return RecoverInfo{}, fmt.Errorf("%w: %s ends at LSN %d but the next segment starts at %d",
				ErrCorrupt, filepath.Base(seg.path), end, segments[i+1].firstLSN)
		}
		for lsn, payload := range res.frames(data) {
			if lsn < plan.from {
				continue
			}
			rec := decodeRecord(lsn, payload, st.pk, &bufs)
			if err := apply(rec); err != nil {
				return RecoverInfo{}, fmt.Errorf("store: replaying record %d (%s): %w", rec.LSN, rec.Kind, err)
			}
			info.Records++
			info.Rows += int64(batchRows(payload, res.header))
		}
	}
	return info, nil
}

// realignTo discards every retained segment (all of whose records the
// restored checkpoint already covers) and starts a fresh one whose
// first LSN is the checkpoint's cut, so the LSN space stays dense and
// never reuses a covered position. Only Recover calls it, before any
// append.
func (st *Store) realignTo(cut uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.seg != nil {
		if err := st.seg.Close(); err != nil {
			return err
		}
		st.seg = nil
	}
	for _, seg := range st.segments {
		if err := os.Remove(seg.path); err != nil {
			return err
		}
	}
	st.segments = nil
	st.lsn = cut
	st.dirty = false
	if err := st.rollLocked(); err != nil {
		return err
	}
	return syncDir(st.opts.Dir)
}

// firstAvailable returns the oldest retained LSN for error messages.
func firstAvailable(segments []segmentInfo) uint64 {
	if len(segments) == 0 {
		return 0
	}
	return segments[0].firstLSN
}

// replayPlan is what a boot of a directory restores and reads.
type replayPlan struct {
	// ck is the checkpoint to restore, nil for a full-log replay.
	ck *Checkpoint
	// from is the first LSN to replay: ck's cut, or 0.
	from uint64
	// first indexes the first segment a boot reads. The ones before it
	// lie wholly below the cut and are never read; the last one is
	// always read, by Open.
	first int
}

// planReplay is Recover's selection rule, which Inspect shares. Given
// the retained segments and the log end, it picks the newest
// checkpoint that decodes and whose cut is covered by the segments (so
// replay has no gap), and the segments replay must read. Undecodable
// newer checkpoints are tolerated — the previous one is retained
// exactly for that — but only while an older usable one (or a full
// log back to LSN 0) exists.
func planReplay(dir string, segments []segmentInfo, end uint64) (replayPlan, error) {
	ck, err := loadCheckpoint(dir, segments, end)
	if err != nil {
		return replayPlan{}, err
	}
	plan := replayPlan{ck: ck}
	if ck != nil {
		plan.from = ck.LSN
	}
	if plan.from < end && (len(segments) == 0 || segments[0].firstLSN > plan.from) {
		return replayPlan{}, fmt.Errorf("%w: replay needs records from LSN %d but the oldest segment starts at %d",
			ErrCorrupt, plan.from, firstAvailable(segments))
	}
	// A segment whose successor starts at or below the cut holds no
	// record to replay; it survives only until the next compaction.
	for plan.first+1 < len(segments) && segments[plan.first+1].firstLSN <= plan.from {
		plan.first++
	}
	return plan, nil
}

// loadCheckpoint returns planReplay's checkpoint.
func loadCheckpoint(dir string, segments []segmentInfo, end uint64) (*Checkpoint, error) {
	paths, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for i := len(paths) - 1; i >= 0; i-- {
		data, err := os.ReadFile(paths[i])
		if err != nil {
			return nil, err
		}
		ck, err := decodeCheckpoint(data)
		if err != nil {
			lastErr = fmt.Errorf("%s: %w", filepath.Base(paths[i]), err)
			continue
		}
		// A cut beyond the log end is usable: the checkpoint provably
		// contains every record the truncated log lost, and Recover
		// realigns the LSN space to the cut (see realignTo).
		if ck.LSN < end && (len(segments) == 0 || segments[0].firstLSN > ck.LSN) {
			lastErr = fmt.Errorf("%w: %s needs replay from LSN %d but the oldest segment starts at %d",
				ErrCorrupt, filepath.Base(paths[i]), ck.LSN, firstAvailable(segments))
			continue
		}
		return ck, nil
	}
	if lastErr != nil {
		// Every checkpoint was unusable. Falling back to a full-log
		// replay is sound only if the log provably contains everything
		// any of those checkpoints could have covered: it must reach
		// back to LSN 0 AND extend past the newest checkpoint's claimed
		// cut (known from its file name even when the content does not
		// decode). Otherwise — segments compacted or deleted while a
		// checkpoint names state beyond the log — acknowledged data has
		// genuinely been lost, and booting fresh would hide that.
		covered0 := len(segments) > 0 && segments[0].firstLSN == 0
		newestCut, _ := parseCheckpointName(filepath.Base(paths[len(paths)-1]))
		if !covered0 || newestCut > end {
			return nil, lastErr
		}
	}
	return nil, nil
}

// WriteCheckpoint durably writes ck (atomically: temp file + rename),
// then compacts: all but the two newest checkpoints are pruned and
// the segments wholly below the oldest retained cut are deleted. The
// caller provides a cut captured under the engine's quiesce barrier;
// the store only checks it is within the log. Callers serialize
// checkpoints (the daemon's ckptMu); concurrent APPENDS are fine —
// the slow part (encoding and fsyncing a whole engine image) runs
// outside the append mutex, so ingestion does not stall for the
// checkpoint's I/O.
func (st *Store) WriteCheckpoint(ck *Checkpoint) error {
	// Records at or above the cut survive only in the WAL; they must
	// be on disk before compaction deletes anything they depended on —
	// and the checkpoint itself must be durable before older segments
	// (its only substitute) go away.
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return errors.New("store: checkpoint after Close")
	}
	if ck.LSN > st.lsn {
		end := st.lsn
		st.mu.Unlock()
		return fmt.Errorf("store: checkpoint cut %d beyond the log end %d", ck.LSN, end)
	}
	err := st.syncLocked()
	st.mu.Unlock()
	if err != nil {
		return err
	}
	data, err := ck.encode()
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(filepath.Join(st.opts.Dir, checkpointName(ck.LSN)), data, 0o644); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if ck.LSN > st.ckptLSN {
		st.ckptLSN = ck.LSN
	}
	// compactLocked recounts the checkpoint files it leaves behind.
	return st.compactLocked()
}

// compactLocked prunes checkpoints to the newest two, then deletes
// the segments wholly below the OLDEST retained checkpoint's cut (the
// active segment always survives). Compacting to the oldest retained
// cut — not the newest — is what keeps the previous checkpoint
// usable: it is the fallback when the newest one rots, and a fallback
// whose replay range [its cut, newest cut) has been deleted would be
// unloadable exactly when it is needed.
func (st *Store) compactLocked() error {
	ckpts, err := listCheckpoints(st.opts.Dir)
	if err != nil {
		return err
	}
	for len(ckpts) > 2 {
		if err := os.Remove(ckpts[0]); err != nil {
			return err
		}
		ckpts = ckpts[1:]
	}
	// Recount from the directory: a rewrite at an existing cut LSN
	// replaces a file rather than adding one.
	st.ckptCount = len(ckpts)
	if len(ckpts) > 0 {
		cut, _ := parseCheckpointName(filepath.Base(ckpts[0]))
		keep := st.segments[:0]
		for i, seg := range st.segments {
			wholeBelow := i+1 < len(st.segments) && st.segments[i+1].firstLSN <= cut
			if wholeBelow {
				if err := os.Remove(seg.path); err != nil {
					return err
				}
				continue
			}
			keep = append(keep, seg)
		}
		st.segments = keep
	}
	return syncDir(st.opts.Dir)
}

// Stats is a point-in-time view of the directory, served as it is by
// the daemon's /v1/stats (its "store" block) and checkpoint endpoint.
type Stats struct {
	// Segments is the number of retained WAL segment files.
	Segments int `json:"segments"`
	// LogBytes totals the retained segments' sizes.
	LogBytes int64 `json:"log_bytes"`
	// LSN is the next log sequence number.
	LSN uint64 `json:"lsn"`
	// Checkpoints is the number of retained checkpoint files.
	Checkpoints int `json:"checkpoints"`
	// CheckpointLSN is the newest checkpoint's cut (0 if none).
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
}

// Stats reports the store's current shape.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Stats{
		Segments:      len(st.segments),
		LSN:           st.lsn,
		Checkpoints:   st.ckptCount,
		CheckpointLSN: st.ckptLSN,
	}
	for _, seg := range st.segments {
		s.LogBytes += seg.bytes
	}
	return s
}
