package store

import (
	"bytes"
	"testing"

	"repro/internal/words"
)

// encodeU16BatchRecord builds the batch payload earlier encoders
// wrote: the u16 type byte followed by the rows in the flat symbol
// codec.
func encodeU16BatchRecord(dst []byte, rows []uint16) []byte {
	return words.AppendSymbolsLE(append(dst, byte(RecordBatch)), rows)
}

// packedBatchRecord builds a packed batch payload of rows over [q].
func packedBatchRecord(t testing.TB, d, q int, rows []uint16) []byte {
	t.Helper()
	payload, bad := encodeBatchRecord(nil, words.NewPacking(d, q), rows)
	if bad >= 0 {
		t.Fatalf("symbol %d outside [%d]", rows[bad], q)
	}
	return payload
}

// segHeaderV1 is a segment header of format version 1, which earlier
// encoders wrote.
func segHeaderV1(d, q int, firstLSN uint64) []byte {
	h := appendSegHeader(nil, d, q, firstLSN)
	h[4] = 1
	return h
}

// FuzzReadSegment throws arbitrary bytes at the WAL segment scanner —
// the code that parses files straight off a possibly crashed disk.
// The invariants: no panic, records only from CRC-valid frames, LSNs
// dense from the header's first LSN, every kept batch body whole rows
// that decode and re-encode to the same bytes (a packed body only in
// a version-2 segment, with every symbol in the alphabet), every kept
// source record named and re-encoding to its bytes, and validLen a
// consistent byte count.
func FuzzReadSegment(f *testing.F) {
	// Seed with a well-formed two-record segment plus truncations of it.
	valid := appendSegHeader(nil, 3, 4, 7)
	b := words.NewBatch(3, 2)
	b.Append(words.Word{1, 2, 3})
	b.Append(words.Word{0, 1, 0})
	valid = appendFrame(valid, encodeU16BatchRecord(nil, b.Symbols()))
	valid = appendFrame(valid, encodeSubspaceRecord(nil, 0b101, "mirror"))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:segHeaderSize])
	f.Add([]byte{})
	f.Add(appendFrame(appendSegHeader(nil, 1, 2, 0), encodeSummaryRecord(nil, []byte("blob"))))
	// Source records: one named, one whose name block overruns the body,
	// and one with an empty name.
	f.Add(appendFrame(appendFrame(appendSegHeader(nil, 3, 4, 5), encodeSourceRecord(nil, "peer", []byte("blob"))), encodeSourceRecord(nil, "h:/a.csv", nil)))
	f.Add(appendFrame(appendSegHeader(nil, 3, 4, 0), []byte{byte(RecordSource), 9, 0, 0, 0, 'p'}))
	f.Add(appendFrame(appendSegHeader(nil, 3, 4, 0), encodeSourceRecord(nil, "", []byte("blob"))))
	// CRC-valid frames whose batch bodies are not whole rows of 3.
	f.Add(appendFrame(appendSegHeader(nil, 3, 4, 0), encodeU16BatchRecord(nil, []uint16{1, 2})))
	f.Add(appendFrame(appendSegHeader(nil, 3, 4, 0), []byte{byte(RecordBatch), 1, 0, 2, 0, 3}))
	// Packed batch records at a power-of-two alphabet and an odd one,
	// where a field can lie outside the alphabet.
	rows := []uint16{1, 2, 3, 0, 1, 0, 3, 3, 3}
	f.Add(appendFrame(appendSegHeader(nil, 3, 4, 0), packedBatchRecord(f, 3, 4, rows)))
	odd := appendFrame(appendSegHeader(nil, 3, 7, 2), packedBatchRecord(f, 3, 7, []uint16{6, 5, 4, 0, 1, 2}))
	f.Add(appendFrame(odd, packedBatchRecord(f, 3, 7, rows)))
	f.Add(appendFrame(appendSegHeader(nil, 3, 7, 0), []byte{byte(recordPackedBatch), 0xff, 0x01}))
	// An earlier segment: u16 batches only, so a packed one stops it.
	v1 := appendFrame(segHeaderV1(3, 4, 0), encodeU16BatchRecord(nil, rows))
	f.Add(appendFrame(v1, packedBatchRecord(f, 3, 4, rows)))

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
		h := res.header
		pk := h.packing()
		i := 0
		for lsn, payload := range res.frames(data) {
			if lsn != h.firstLSN+uint64(i) {
				t.Fatalf("record %d has LSN %d, first is %d", i, lsn, h.firstLSN)
			}
			i++
			body := payload[1:]
			var again []byte
			switch RecordKind(payload[0]) {
			case RecordBatch:
				if len(body)%(2*h.dim) != 0 {
					t.Fatalf("record %d: %d body bytes not whole rows of %d", lsn, len(body), h.dim)
				}
				rec := decodeRecord(lsn, payload, pk, &recordBufs{})
				again = encodeU16BatchRecord(nil, rec.Rows)
			case recordPackedBatch:
				if h.version < 2 || len(body)%pk.Stride() != 0 {
					t.Fatalf("record %d: packed body of %d bytes in a version-%d segment of %d-byte rows", lsn, len(body), h.version, pk.Stride())
				}
				rec := decodeRecord(lsn, payload, pk, &recordBufs{})
				if rec.Kind != RecordBatch || rec.Rows != nil || rec.Packed.Packing() != pk {
					t.Fatalf("record %d: packed batch decoded to kind %v, u16 rows %v, layout %v", lsn, rec.Kind, rec.Rows != nil, rec.Packed.Packing())
				}
				rows := make([]uint16, rec.Packed.Len()*h.dim)
				pk.Unpack(rows, rec.Packed.Rows())
				var bad int
				if again, bad = encodeBatchRecord(nil, pk, rows); bad >= 0 {
					t.Fatalf("record %d: symbol %d outside [%d] kept", lsn, rows[bad], h.alphabet)
				}
			case RecordSource, recordSummary:
				rec := decodeRecord(lsn, payload, pk, &recordBufs{})
				if rec.Kind != RecordSource || rec.Source == "" {
					t.Fatalf("record %d: kind-%d payload decoded to %v named %q", lsn, payload[0], rec.Kind, rec.Source)
				}
				if again = encodeSourceRecord(nil, rec.Source, rec.Blob); payload[0] == byte(recordSummary) {
					again = encodeSummaryRecord(nil, rec.Blob)
				}
			default:
				continue
			}
			if !bytes.Equal(again, payload) {
				t.Fatalf("record %d: body does not re-encode to its bytes", lsn)
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
