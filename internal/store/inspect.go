package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// SegmentReport describes one WAL segment file for Inspect.
type SegmentReport struct {
	// Name is the file name within the directory.
	Name string
	// FirstLSN is the header's first log sequence number.
	FirstLSN uint64
	// Records is the number of whole, CRC-valid frames.
	Records int
	// Rows totals the rows across the segment's batch records.
	Rows int64
	// Bytes is the file size on disk.
	Bytes int64
	// Torn reports trailing bytes after the last valid frame (a torn
	// final append, tolerated on the last segment; corruption earlier).
	Torn bool
	// Err is a header-level failure message ("" when the segment
	// scanned); a segment with Err set contributes no records.
	Err string
}

// CheckpointReport describes one checkpoint file for Inspect.
type CheckpointReport struct {
	// Name is the file name within the directory.
	Name string
	// LSN, Rows, Shards, and Subspaces echo the decoded cut metadata.
	LSN uint64
	// Rows is the engine's accepted-row clock at the cut.
	Rows int64
	// Shards is the number of per-shard blobs the checkpoint carries.
	Shards int
	// Subspaces is the number of recorded subspace registrations.
	Subspaces int
	// Sources is the number of absorbed sources the checkpoint carries.
	Sources int
	// Bytes is the file size on disk.
	Bytes int64
	// Err is the decode failure message ("" when the checkpoint is
	// valid, CRC included).
	Err string
}

// Report is Inspect's inventory of one data directory.
type Report struct {
	// Dim and Alphabet are the shape recorded by the first readable
	// segment (0 when the directory holds no readable segment).
	Dim, Alphabet int
	// Segments and Checkpoints list the directory's files ascending by
	// LSN, each individually verified (frame CRCs, checkpoint CRC).
	Segments    []SegmentReport
	Checkpoints []CheckpointReport
}

// Inspect verifies a data directory without opening it for appending:
// every segment's frames are scanned and CRC-checked, every
// checkpoint is decoded, and nothing is modified — torn tails are
// reported, not truncated. It is the library face of the projfreq
// -inspect-dir mode.
func Inspect(dir string) (*Report, error) {
	rep := &Report{}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	var image []byte // one segment image, reused
	for _, path := range segs {
		sr := SegmentReport{Name: filepath.Base(path)}
		if first, ok := parseSegmentName(sr.Name); ok {
			sr.FirstLSN = first
		}
		image, err = readSegment(path, image)
		if err != nil {
			return nil, err
		}
		sr.Bytes = int64(len(image))
		res, err := scanSegment(image)
		if err != nil {
			sr.Err = err.Error()
		} else {
			if rep.Dim == 0 {
				rep.Dim, rep.Alphabet = res.header.dim, res.header.alphabet
			}
			sr.FirstLSN = res.header.firstLSN
			sr.Records = res.records
			sr.Torn = res.torn
			for _, payload := range res.frames(image) {
				sr.Rows += int64(batchRows(payload, res.header))
			}
		}
		rep.Segments = append(rep.Segments, sr)
	}
	ckpts, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	for _, path := range ckpts {
		cr := CheckpointReport{Name: filepath.Base(path)}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		cr.Bytes = int64(len(data))
		ck, err := decodeCheckpoint(data)
		if err != nil {
			cr.Err = err.Error()
		} else {
			cr.LSN = ck.LSN
			cr.Rows = ck.Rows
			cr.Shards = len(ck.Shards)
			cr.Subspaces = len(ck.Subspaces)
			cr.Sources = len(ck.Sources)
		}
		rep.Checkpoints = append(rep.Checkpoints, cr)
	}
	if len(rep.Segments) == 0 && len(rep.Checkpoints) == 0 {
		return nil, fmt.Errorf("store: %s holds no WAL segments or checkpoints", dir)
	}
	return rep, nil
}
