package core

import (
	"runtime"
	"testing"

	"repro/internal/words"
	"repro/internal/workload"
)

// coldRows is exact-coldquery's final row count: 237,568 rows of
// d = 16 over [4], 4 bytes a row packed.
const coldRows = 237_568

// coldTable draws coldRows Zipf rows of d = 16 over [4] from a
// 4,096-pattern catalog, the workload's shape.
func coldTable(tb testing.TB) *words.Table {
	tb.Helper()
	return words.Collect(workload.ZipfPatterns(16, 4, coldRows, 4096, 1.1, 1), -1)
}

// TestExactIngestDoesNotRegrow feeds coldRows rows in 4,096-row
// batches, as the workload's writer sends them, and bounds what the
// summary allocates by the packed rows it keeps: each row is packed
// once into a run of fixed capacity, and no run is ever regrown. A
// tail run regrown by append allocates several times the rows.
func TestExactIngestDoesNotRegrow(t *testing.T) {
	const batch = 4096
	rows := coldTable(t).Batch()
	e := mustExact(t, 16, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for lo := 0; lo < coldRows; lo += batch {
		e.ObserveBatch(rows.Slice(lo, min(lo+batch, coldRows)))
	}
	runtime.ReadMemStats(&after)
	packed := e.SizeBytes()
	if packed != 4*coldRows {
		t.Fatalf("%d rows hold %d bytes, want 4 a row", coldRows, packed)
	}
	// The runs, plus the growing list of their headers and one run of
	// slack for the tail's spare room.
	limit := uint64(packed + packed/8 + runBytes)
	got := after.TotalAlloc - before.TotalAlloc
	if got > limit {
		t.Fatalf("ingesting %d packed bytes allocated %d bytes, limit %d", packed, got, limit)
	}
	t.Logf("ingesting %d packed bytes allocated %d bytes (limit %d)", packed, got, limit)
}

// BenchmarkExactVectorCold times the cold half of an exact query at
// exact-coldquery's final shape: one pass over every retained row into
// a fresh frequency vector, for |C| = 2, 4 and 6. The memo is dropped
// before each pass, so no iteration reads a memoized vector.
func BenchmarkExactVectorCold(b *testing.B) {
	e := mustExact(b, 16, 4)
	e.ObserveBatch(coldTable(b).Batch())
	for _, cols := range [][]int{{0, 5}, {1, 3, 7, 9}, {0, 2, 4, 6, 8, 10}} {
		c := words.MustColumnSet(16, cols...)
		b.Run(c.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				e.memo = nil
				if e.Vector(c).Total() != coldRows {
					b.Fatal("lost rows")
				}
			}
		})
	}
}
