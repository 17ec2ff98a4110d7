package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/wire"
	"repro/internal/words"
)

// This file is the WAL segment format: how records are framed on disk
// and how a segment's byte image is verified and walked back into
// records during recovery (and by Inspect and the fuzzer, which share
// the scanner).
//
// Segment file layout (little-endian, see ARCHITECTURE.md):
//
//	offset size field
//	0      4    magic "PFQW"
//	4      1    format version (walVersion, or 1 from earlier encoders)
//	5      3    reserved, must be zero
//	8      4    dimension d
//	12     4    alphabet size Q
//	16     8    first LSN (the log sequence number of frame 0)
//	24     …    frames
//
// Frame layout:
//
//	offset size field
//	0      4    payload length (u32)
//	4      4    CRC32C (Castagnoli) of the payload
//	8      …    payload: record type byte + type-specific body
//
// Frames are the unit of atomicity: a record either scans back whole
// (length in bounds, CRC matches) or the scan stops at it. A torn
// final frame — the expected shape of a crash mid-append — is
// therefore indistinguishable from a clean end-of-log at the previous
// frame, which is exactly the recovery semantics we want.

// walVersion is the format version of the segments Open writes.
// Version 2 added the packed batch record (recordPackedBatch); a
// version-1 segment, which earlier encoders wrote, holds u16 batch
// records only. Both versions are read, and a decoder of version 1
// alone refuses a version-2 segment by its header rather than mistake
// a packed batch frame for a torn tail.
const walVersion = 2

// segHeaderSize is the fixed byte length of the segment header.
const segHeaderSize = 24

// frameHeaderSize is the length+CRC prefix of every frame.
const frameHeaderSize = 8

// walMagic opens every WAL segment file.
var walMagic = [4]byte{'P', 'F', 'Q', 'W'}

// castagnoli is the CRC32C table shared by frames and checkpoints.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecordKind identifies a WAL record's type byte.
type RecordKind uint8

// The WAL record kinds.
const (
	// RecordBatch is a batch of ingested rows. Its body takes one of
	// two encodings, each under its own type byte: this one's, 1, is
	// flat row-major little-endian u16 symbols (words.AppendSymbolsLE),
	// which earlier encoders wrote; recordPackedBatch is the packed
	// rows the current encoder writes. Either way the row count follows
	// from the segment's shape, and either decodes to a Record of this
	// kind.
	RecordBatch RecordKind = 1
	// recordSummary is an unnamed summary's wire blob, the record of
	// a push folded into a shard. It decodes to a RecordSource named
	// "wal-<lsn>", so each replays as a source of its own.
	recordSummary RecordKind = 2
	// RecordSubspace is a subspace registration: the column-set mask
	// and the provisioning kind string the daemon maps back to a
	// factory on replay.
	RecordSubspace RecordKind = 3
	// recordPackedBatch is a RecordBatch whose body is its rows in
	// words.Packing's layout for the segment's shape, ⌈d·⌈log₂Q⌉/8⌉
	// bytes a row. Only version-2 segments hold it.
	recordPackedBatch RecordKind = 4
	// RecordSource is a named source's summary (engine.AbsorbSource):
	// block(name) then the summary's wire blob.
	RecordSource RecordKind = 5
)

// String names the kind as printed by Inspect.
func (k RecordKind) String() string {
	switch k {
	case RecordBatch:
		return "batch"
	case RecordSource:
		return "source"
	case RecordSubspace:
		return "subspace"
	default:
		return fmt.Sprintf("RecordKind(%d)", uint8(k))
	}
}

// Record is one decoded WAL record. Rows and Blob alias buffers that
// recovery reuses for the next record and the next segment: they are
// valid only inside the replay callback and must not be retained.
type Record struct {
	// LSN is the record's log sequence number.
	LSN uint64
	// Kind selects which of the remaining fields apply.
	Kind RecordKind
	// Rows is the flat row-major symbol data (RecordBatch). The store
	// checks its shape, and the symbols of a packed body against the
	// alphabet; the consumer checks every batch's symbols against the
	// alphabet (engine.ReplayBatch does), since a u16 body's are not.
	Rows []uint16
	// Source is the source's name (RecordSource).
	Source string
	// Blob is the source summary's wire form (RecordSource).
	Blob []byte
	// Mask and Summary are the registered column-set mask and the
	// provisioning kind string (RecordSubspace).
	Mask uint64
	// Summary is the subspace's provisioning kind string
	// (RecordSubspace).
	Summary string
}

// segHeader is a decoded segment header.
type segHeader struct {
	version       uint8
	dim, alphabet int
	firstLSN      uint64
}

// packing returns the packed row layout of the segment's shape.
func (h segHeader) packing() words.Packing { return words.NewPacking(h.dim, h.alphabet) }

// appendSegHeader writes the 24-byte segment header.
func appendSegHeader(dst []byte, d, q int, firstLSN uint64) []byte {
	w := wire.NewWriter(segHeaderSize)
	w.Raw(walMagic[:])
	w.U8(walVersion)
	w.U8(0)
	w.U16(0)
	w.U32(uint32(d))
	w.U32(uint32(q))
	w.U64(firstLSN)
	return append(dst, w.Bytes()...)
}

// parseSegHeader validates a segment's leading bytes.
func parseSegHeader(data []byte) (segHeader, error) {
	r := wire.NewReader(data, ErrCorrupt)
	var magic [4]byte
	magic[0], magic[1], magic[2], magic[3] = r.U8(), r.U8(), r.U8(), r.U8()
	version := r.U8()
	rsv1, rsv2 := r.U8(), r.U16()
	d := int(r.U32())
	q := int(r.U32())
	first := r.U64()
	if err := r.Err(); err != nil {
		return segHeader{}, fmt.Errorf("%w: segment header truncated", ErrCorrupt)
	}
	if magic != walMagic {
		return segHeader{}, fmt.Errorf("%w: bad segment magic %q", ErrCorrupt, magic[:])
	}
	if version < 1 || version > walVersion {
		return segHeader{}, fmt.Errorf("%w: unsupported segment version %d (have %d)", ErrCorrupt, version, walVersion)
	}
	if rsv1 != 0 || rsv2 != 0 {
		return segHeader{}, fmt.Errorf("%w: non-zero reserved segment bytes", ErrCorrupt)
	}
	if d < 1 || q < 2 || q > words.MaxAlphabet {
		return segHeader{}, fmt.Errorf("%w: degenerate segment shape d=%d q=%d", ErrCorrupt, d, q)
	}
	return segHeader{version: version, dim: d, alphabet: q, firstLSN: first}, nil
}

// appendFrame wraps payload in the length+CRC frame.
func appendFrame(dst, payload []byte) []byte {
	w := wire.NewWriter(frameHeaderSize)
	w.U32(uint32(len(payload)))
	w.U32(crc32.Checksum(payload, castagnoli))
	return append(append(dst, w.Bytes()...), payload...)
}

// beginFrame reserves the 8-byte frame header in dst so the payload
// can be encoded directly after it (no staging buffer); finishFrame
// backfills the length and CRC once the payload is in place. buf must
// be the beginFrame result with the payload appended.
func beginFrame(dst []byte) []byte {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

func finishFrame(buf []byte) {
	payload := buf[frameHeaderSize:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
}

// scanResult is what verifying a segment image yields: the number of
// records (whole valid frames), the byte length of the valid prefix
// (header + those frames), and whether verification stopped at a
// damaged or truncated frame before the end of the image.
type scanResult struct {
	header   segHeader
	records  int
	validLen int
	torn     bool
}

// scanSegment verifies a segment image frame by frame: the length is
// in bounds, the CRC matches, and the payload is a record of a known
// kind whose body has its kind's shape: whole rows for a batch, and
// for a packed one every padding bit zero and every symbol in the
// alphabet (words.Packing.Verify). It keeps the verified bytes where
// they are and decodes nothing; frames walks them afterwards. It never
// fails on frame-level damage — a bad length, a CRC mismatch, a
// truncated tail, or a misshapen payload stops the scan and sets
// torn, so the caller decides whether that is
// a tolerable torn tail (last segment) or mid-log corruption (any
// earlier segment). Only a damaged segment header is an outright
// error: without it, not even the first LSN is known.
func scanSegment(data []byte) (scanResult, error) {
	h, err := parseSegHeader(data)
	if err != nil {
		return scanResult{}, err
	}
	res := scanResult{header: h, validLen: segHeaderSize}
	pk := h.packing()
	for off := segHeaderSize; off < len(data); {
		n, ok := verifyFrame(data[off:], h, pk)
		if !ok {
			res.torn = true
			break
		}
		off += frameHeaderSize + n
		res.records++
		res.validLen = off
	}
	return res, nil
}

// verifyFrame checks the frame at the front of data, in a segment with
// header h and row layout pk, and returns its payload length.
func verifyFrame(data []byte, h segHeader, pk words.Packing) (int, bool) {
	if len(data) < frameHeaderSize {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < 1 || n > len(data)-frameHeaderSize {
		return 0, false
	}
	payload := data[frameHeaderSize : frameHeaderSize+n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return 0, false
	}
	body := payload[1:]
	switch RecordKind(payload[0]) {
	case RecordBatch:
		return n, len(body)%(2*h.dim) == 0
	case recordPackedBatch:
		return n, h.version >= 2 && pk.Verify(body) == nil
	case recordSummary:
		return n, true
	case RecordSource:
		_, _, err := parseSourceRecord(body)
		return n, err == nil
	case RecordSubspace:
		_, _, err := parseSubspaceRecord(body)
		return n, err == nil
	default:
		return n, false
	}
}

// frames yields the LSN and payload of each frame scanSegment
// verified in data, in log order. It trusts the framing: every length
// was checked by the scan.
func (res scanResult) frames(data []byte) iter.Seq2[uint64, []byte] {
	return func(yield func(uint64, []byte) bool) {
		off := segHeaderSize
		for i := range res.records {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			payload := data[off+frameHeaderSize : off+frameHeaderSize+n]
			off += frameHeaderSize + n
			if !yield(res.header.firstLSN+uint64(i), payload) {
				return
			}
		}
	}
}

// decodeRecord turns a verified frame payload, of a segment whose rows
// are in pk's layout, into a Record. A batch's symbols are decoded into
// rows, grown as needed and returned for the next record; Blob aliases
// the payload.
func decodeRecord(lsn uint64, payload []byte, pk words.Packing, rows []uint16) (Record, []uint16) {
	rec := Record{LSN: lsn, Kind: RecordKind(payload[0])}
	body := payload[1:]
	switch rec.Kind {
	case RecordBatch:
		rows = slices.Grow(rows[:0], len(body)/2)[:len(body)/2]
		// No alphabet check here: the replay consumer checks every
		// symbol once, before it reaches a shard (engine.ReplayBatch).
		words.DecodeSymbolsLE(rows, body, words.MaxAlphabet)
		rec.Rows = rows
	case recordPackedBatch:
		n := len(body) / pk.Stride() * pk.Dim()
		rows = slices.Grow(rows[:0], n)[:n]
		pk.Unpack(rows, body)
		rec.Kind, rec.Rows = RecordBatch, rows
	case recordSummary:
		rec.Kind, rec.Source, rec.Blob = RecordSource, fmt.Sprintf("wal-%d", lsn), body
	case RecordSource:
		name, blob, _ := parseSourceRecord(body)
		rec.Source, rec.Blob = string(name), blob
	case RecordSubspace:
		mask, name, _ := parseSubspaceRecord(body)
		rec.Mask, rec.Summary = mask, string(name)
	}
	return rec, rows
}

// parseSubspaceRecord reads a subspace record's body: the column-set
// mask and the provisioning kind string.
func parseSubspaceRecord(body []byte) (uint64, []byte, error) {
	r := wire.NewReader(body, ErrCorrupt)
	mask := r.U64()
	name := r.Block()
	return mask, name, r.Done()
}

// parseSourceRecord reads a source record's body: name, then blob.
func parseSourceRecord(body []byte) ([]byte, []byte, error) {
	r := wire.NewReader(body, ErrCorrupt)
	name := r.Block()
	if r.Err() == nil && len(name) == 0 {
		return nil, nil, fmt.Errorf("%w: source record without a name", ErrCorrupt)
	}
	return name, r.Rest(), r.Err()
}

// readSegment reads the segment file at path into buf's storage,
// growing it only when the file is larger than its capacity, and
// returns the image.
func readSegment(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return buf, err
	}
	if size := int(fi.Size()); cap(buf) < size {
		buf = make([]byte, size)
	} else {
		buf = buf[:size]
	}
	n, err := io.ReadFull(f, buf)
	if err == io.ErrUnexpectedEOF {
		// The file shrank after Stat; the shorter image is what is on
		// disk.
		err = nil
	}
	return buf[:n], err
}

// encodeBatchRecord appends a batch record's frame payload to dst:
// the packed type byte, then the rows packed in pk's layout in place.
// It returns the index in rows of the first symbol outside pk's
// alphabet, or -1; when there is one, the payload holds garbage.
func encodeBatchRecord(dst []byte, pk words.Packing, rows []uint16) ([]byte, int) {
	dst = append(dst, byte(recordPackedBatch))
	off := len(dst)
	n := len(rows) / pk.Dim() * pk.Stride()
	dst = slices.Grow(dst, n)[:off+n]
	return dst, pk.Pack(dst[off:], rows)
}

// batchRows returns the rows a verified batch payload holds, in a
// segment with header h, or 0 for any other record.
func batchRows(payload []byte, h segHeader) int {
	switch RecordKind(payload[0]) {
	case RecordBatch:
		return (len(payload) - 1) / (2 * h.dim)
	case recordPackedBatch:
		return (len(payload) - 1) / h.packing().Stride()
	}
	return 0
}

func encodeSummaryRecord(dst, blob []byte) []byte {
	return append(append(dst, byte(recordSummary)), blob...)
}

func encodeSourceRecord(dst []byte, name string, blob []byte) []byte {
	w := &wire.Writer{}
	w.U8(uint8(RecordSource))
	w.Block([]byte(name))
	return append(append(dst, w.Bytes()...), blob...)
}

func encodeSubspaceRecord(dst []byte, mask uint64, summary string) []byte {
	w := &wire.Writer{}
	w.U8(uint8(RecordSubspace))
	w.U64(mask)
	w.Block([]byte(summary))
	return append(dst, w.Bytes()...)
}

// segmentName formats a segment file name from its first LSN; the
// zero-padded hex keeps lexical and numeric order identical.
func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%016x.seg", firstLSN)
}

// parseSegmentName extracts the first LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSegments returns the directory's segment files ascending by
// first LSN.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok && !e.IsDir() {
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
