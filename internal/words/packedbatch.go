package words

import "fmt"

// PackedBatch is n rows in one Packing's layout, n = len(rows)/stride:
// the unit every summary an engine builds ingests
// (core.PackedObserver). Its consumers trust its bytes — none checks a
// symbol against the alphabet again — so a PackedBatch comes from one
// of exactly two places:
//
//   - a packer: Pack, which packs u16 rows with Packing.Pack and
//     checks every symbol against [q] in the same pass (the engine's
//     ingest door, and each summary's u16 ObserveBatch);
//   - the WAL's segment scan (internal/store), which binds a batch
//     record's body with Bind only after Packing.Verify has checked
//     its padding and symbols and the segment's shape has been checked
//     against the store's.
//
// An engine's workers Bind the chunks of such a batch that its door
// copied into their arenas.
//
// Like a Batch, a PackedBatch is a view: its rows alias the storage it
// was packed into or bound to, and a consumer must not retain them.
type PackedBatch struct {
	pk   Packing
	rows []byte
	own  []byte // Pack's storage; Bind never writes into the rows it binds
}

// Len returns the number of rows.
func (b *PackedBatch) Len() int {
	if b.pk.stride == 0 {
		return 0
	}
	return len(b.rows) / b.pk.stride
}

// Packing returns the rows' layout.
func (b *PackedBatch) Packing() Packing { return b.pk }

// Rows returns the packed rows, Len()·Stride() bytes. They alias the
// batch's storage; callers must treat them as read-only.
func (b *PackedBatch) Rows() []byte { return b.rows }

// Row returns packed row i, Stride() bytes aliasing the batch.
func (b *PackedBatch) Row(i int) []byte {
	s := b.pk.stride
	return b.rows[i*s : (i+1)*s : (i+1)*s]
}

// Slice returns the sub-batch of rows [lo, hi) sharing b's storage.
func (b *PackedBatch) Slice(lo, hi int) *PackedBatch {
	s := b.pk.stride
	return &PackedBatch{pk: b.pk, rows: b.rows[lo*s : hi*s]}
}

// Bind rebinds b to rows already in pk's layout, without copying or
// checking them: the caller vouches for every byte (see the type's
// doc). It panics if rows are not whole rows.
func (b *PackedBatch) Bind(pk Packing, rows []byte) {
	pk.rowsOf(rows)
	b.pk, b.rows = pk, rows
}

// Pack packs the rows of src in pk's layout into b's own storage,
// reusing it when it is large enough (never rows an earlier Bind
// bound), and binds b to them. It checks every symbol against pk's
// alphabet in the same pass and returns the index in src.Symbols() of
// the first one outside, or -1; when there is one, b holds garbage.
// It panics if src's dimension is not pk's.
func (b *PackedBatch) Pack(pk Packing, src *Batch) int {
	if src.Dim() != pk.d {
		panic(fmt.Sprintf("words: batch dimension %d packed into a layout of dimension %d", src.Dim(), pk.d))
	}
	n := src.Len() * pk.stride
	if cap(b.own) < n {
		b.own = make([]byte, n)
	}
	b.pk, b.rows = pk, b.own[:n]
	return pk.Pack(b.rows, src.Symbols())
}
