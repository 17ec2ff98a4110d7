package words

import "fmt"

// Batch is a flat buffer of rows: n rows of a fixed dimension d stored
// row-major in one []uint16 backing array with stride d. It is the
// unit of ingestion — building rows into a Batch and feeding it to
// core.Summary.ObserveBatch costs one allocation, one clone, and one
// handoff per batch rather than per row.
//
// A Batch is a mutable builder (Append/AppendRow/Reset) whose row
// views alias its storage; consumers of a Batch must therefore not
// retain rows across the producer's next mutation — the same contract
// RowSource already states for streamed rows.
type Batch struct {
	d    int
	data []uint16
}

// NewBatch returns an empty batch of rows with d columns, with
// capacity preallocated for capacityRows rows. It panics if d < 1,
// matching the summary shapes the batch feeds.
func NewBatch(d, capacityRows int) *Batch {
	if d < 1 {
		panic(fmt.Sprintf("words: batch dimension %d < 1", d))
	}
	if capacityRows < 0 {
		capacityRows = 0
	}
	return &Batch{d: d, data: make([]uint16, 0, d*capacityRows)}
}

// BatchOf wraps an existing flat row-major symbol slice as a batch
// without copying. It panics if d < 1 or len(symbols) is not a
// multiple of d — both programmer errors, like Table's shape panics.
func BatchOf(d int, symbols []uint16) *Batch {
	if d < 1 {
		panic(fmt.Sprintf("words: batch dimension %d < 1", d))
	}
	if len(symbols)%d != 0 {
		panic(fmt.Sprintf("words: %d symbols do not form whole rows of %d", len(symbols), d))
	}
	return &Batch{d: d, data: symbols}
}

// RowBatch returns the one-row batch aliasing w (no copy): how a
// single row enters the batch-only ingest path. It panics on an empty
// row. It is small enough to inline, so the batch stays on the caller's
// stack when the consumer does not retain it.
func RowBatch(w Word) *Batch {
	if len(w) == 0 {
		panic("words: empty row")
	}
	return &Batch{d: len(w), data: w}
}

// Dim returns the number of columns d.
func (b *Batch) Dim() int { return b.d }

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return len(b.data) / b.d }

// Append adds a copy of row w. It panics if len(w) != Dim().
func (b *Batch) Append(w Word) {
	if len(w) != b.d {
		panic(fmt.Sprintf("words: row length %d != batch dimension %d", len(w), b.d))
	}
	b.data = append(b.data, w...)
}

// AppendRow extends the batch by one zeroed row and returns it as a
// writable view into the batch's storage, so decoders can fill rows
// in place without a per-row staging slice. The view is invalidated
// by the next Append/AppendRow (the backing array may be regrown).
func (b *Batch) AppendRow() Word {
	n := len(b.data)
	for i := 0; i < b.d; i++ {
		b.data = append(b.data, 0)
	}
	return Word(b.data[n : n+b.d])
}

// Row returns row i as a view aliasing the batch's storage; callers
// must not modify it or retain it across batch mutations.
func (b *Batch) Row(i int) Word {
	return Word(b.data[i*b.d : (i+1)*b.d])
}

// Slice returns the sub-batch of rows [lo, hi) sharing b's storage.
func (b *Batch) Slice(lo, hi int) *Batch {
	return &Batch{d: b.d, data: b.data[lo*b.d : hi*b.d]}
}

// Symbols returns the flat row-major backing array (length Len()·Dim()).
// It aliases the batch's storage; callers must treat it as read-only.
func (b *Batch) Symbols() []uint16 { return b.data }

// Reset empties the batch, retaining its backing capacity for reuse.
func (b *Batch) Reset() { b.data = b.data[:0] }

// Bind rebinds b to wrap an existing flat row-major symbol slice
// without copying, with the same shape checks as BatchOf. It lets a
// long-lived Batch (an engine worker's, or a pooled decoder's) adopt a
// recycled arena instead of allocating a fresh *Batch per chunk.
func (b *Batch) Bind(d int, symbols []uint16) {
	if d < 1 {
		panic(fmt.Sprintf("words: batch dimension %d < 1", d))
	}
	if len(symbols)%d != 0 {
		panic(fmt.Sprintf("words: %d symbols do not form whole rows of %d", len(symbols), d))
	}
	b.d = d
	b.data = symbols
}

// Clone returns a copy of the batch sharing no storage with b.
func (b *Batch) Clone() *Batch {
	return &Batch{d: b.d, data: append([]uint16(nil), b.data...)}
}
