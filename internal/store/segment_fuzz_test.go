package store

import (
	"bytes"
	"testing"

	"repro/internal/words"
)

// FuzzReadSegment throws arbitrary bytes at the WAL segment scanner —
// the code that parses files straight off a possibly crashed disk.
// The invariants: no panic, records only from CRC-valid frames, LSNs
// dense from the header's first LSN, every kept batch body whole rows
// that decode and re-encode to the same bytes, and validLen a
// consistent byte count.
func FuzzReadSegment(f *testing.F) {
	// Seed with a well-formed two-record segment plus truncations of it.
	valid := appendSegHeader(nil, 3, 4, 7)
	b := words.NewBatch(3, 2)
	copy(b.AppendRow(), words.Word{1, 2, 3})
	copy(b.AppendRow(), words.Word{0, 1, 0})
	valid = appendFrame(valid, encodeBatchRecord(nil, b.Symbols()))
	valid = appendFrame(valid, encodeSubspaceRecord(nil, 0b101, "mirror"))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:segHeaderSize])
	f.Add([]byte{})
	f.Add(appendFrame(appendSegHeader(nil, 1, 2, 0), encodeSummaryRecord(nil, []byte("blob"))))
	// CRC-valid frames whose batch bodies are not whole rows of 3.
	f.Add(appendFrame(appendSegHeader(nil, 3, 4, 0), encodeBatchRecord(nil, []uint16{1, 2})))
	f.Add(appendFrame(appendSegHeader(nil, 3, 4, 0), []byte{byte(RecordBatch), 1, 0, 2, 0, 3}))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := scanSegment(data)
		if err != nil {
			return // header-level rejection is a valid outcome
		}
		if res.validLen < segHeaderSize || res.validLen > len(data) {
			t.Fatalf("validLen %d outside [%d, %d]", res.validLen, segHeaderSize, len(data))
		}
		if !res.torn && res.validLen != len(data) {
			t.Fatalf("clean scan consumed %d of %d bytes", res.validLen, len(data))
		}
		i := 0
		for lsn, payload := range res.frames(data) {
			if lsn != res.header.firstLSN+uint64(i) {
				t.Fatalf("record %d has LSN %d, first is %d", i, lsn, res.header.firstLSN)
			}
			i++
			if RecordKind(payload[0]) != RecordBatch {
				continue
			}
			body := payload[1:]
			if len(body)%(2*res.header.dim) != 0 {
				t.Fatalf("record %d: %d body bytes not whole rows of %d", lsn, len(body), res.header.dim)
			}
			rec, _ := decodeRecord(lsn, payload, nil)
			if got := encodeBatchRecord(nil, rec.Rows); !bytes.Equal(got, payload) {
				t.Fatalf("record %d: batch body does not re-encode to its bytes", lsn)
			}
		}
		if i != res.records {
			t.Fatalf("walked %d frames of %d", i, res.records)
		}
		// The valid prefix must rescan to the identical records: what
		// recovery truncates to is what a later recovery will read.
		res2, err := scanSegment(data[:res.validLen])
		if err != nil || res2.torn || res2.records != res.records {
			t.Fatalf("rescan of valid prefix: %d records torn=%v err=%v (want %d)",
				res2.records, res2.torn, err, res.records)
		}
	})
}
