package registry

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/words"
)

// This file puts the registry on the summary wire: a registry with
// subspaces serializes behind the standard 36-byte envelope under its
// own kind byte (KindRegistry), with a payload that is a container of
// ordinary summary blobs —
//
//	u32 k                                 subspace count (k ≥ 1)
//	u32 len | bytes                       catch-all summary blob
//	k × ( u32 m | m×u32 col (ascending)   the registered column set
//	      u32 len | bytes )               that subspace's summary blob
//
// — entries in registration order, so planner IDs survive the trip.
// Each inner blob is a complete core wire blob of a non-registry kind
// (nesting is rejected before recursing, bounding decode depth), must
// match the envelope's shape, and must carry the envelope's row count:
// the members-see-the-same-stream invariant is checked at decode time,
// not assumed. A registry with no subspaces serializes transparently
// as its catch-all's own blob, so wrapping a summary in a registry
// never changes what existing readers receive.

// KindRegistry is the registry container's summary kind byte on the
// wire, registered with the core envelope codec at package init.
const KindRegistry = core.SummaryKind(6)

func init() {
	core.RegisterWireKind(KindRegistry, "registry", decodeRegistry)
}

// badEncoding mirrors core's typed decode failure.
func badEncoding(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", core.ErrBadEncoding, fmt.Sprintf(format, args...))
}

// MarshalBinary implements encoding.BinaryMarshaler. With no
// registered subspaces the registry is wire-transparent and emits the
// catch-all summary's own blob; otherwise it emits the KindRegistry
// container documented above.
func (r *Registry) MarshalBinary() ([]byte, error) {
	if len(r.entries) == 0 {
		return core.MarshalSummary(r.full)
	}
	w := &wire.Writer{}
	w.U32(uint32(len(r.entries)))
	fullBlob, err := core.MarshalSummary(r.full)
	if err != nil {
		return nil, fmt.Errorf("registry: encoding catch-all: %w", err)
	}
	w.Block(fullBlob)
	for i := range r.entries {
		e := &r.entries[i]
		w.U32(uint32(e.cols.Len()))
		for j := 0; j < e.cols.Len(); j++ {
			w.U32(uint32(e.cols.At(j)))
		}
		blob, err := core.MarshalSummary(e.sum)
		if err != nil {
			return nil, fmt.Errorf("registry: encoding subspace %v: %w", e.cols, err)
		}
		w.Block(blob)
	}
	return core.AppendEnvelope(KindRegistry, r.Dim(), r.Alphabet(), 0, r.Rows(), w.Bytes())
}

// innerBlobKind peeks a contained blob's envelope kind byte without
// decoding it, so nested registries are refused before any recursion.
func innerBlobKind(blob []byte) (core.SummaryKind, error) {
	if len(blob) < 6 {
		return 0, badEncoding("registry member blob of %d bytes has no envelope", len(blob))
	}
	return core.SummaryKind(blob[5]), nil
}

// decodeMember decodes one contained summary blob and checks it
// against the registry envelope: non-registry kind, matching shape,
// and the envelope's row count.
func decodeMember(role string, blob []byte, env core.Envelope) (core.Summary, error) {
	kind, err := innerBlobKind(blob)
	if err != nil {
		return nil, err
	}
	if kind == KindRegistry {
		return nil, badEncoding("registry %s is itself a registry blob (nesting is not supported)", role)
	}
	sum, err := core.UnmarshalSummary(blob)
	if err != nil {
		return nil, fmt.Errorf("registry %s: %w", role, err)
	}
	if sum.Dim() != env.Dim || sum.Alphabet() != env.Alphabet {
		return nil, badEncoding("registry %s shape %d/[%d] contradicts envelope %d/[%d]",
			role, sum.Dim(), sum.Alphabet(), env.Dim, env.Alphabet)
	}
	if sum.Rows() != env.Rows {
		return nil, badEncoding("registry %s carries %d rows, envelope says %d", role, sum.Rows(), env.Rows)
	}
	return sum, nil
}

// decodeRegistry rebuilds a registry from a KindRegistry envelope; it
// is the decoder core.UnmarshalSummary dispatches to for kind 6.
func decodeRegistry(env core.Envelope) (core.Summary, error) {
	// The container carries no randomness of its own (member seeds
	// travel in the member blobs), so a non-zero envelope seed is
	// spec-violating — and accepting it would let a blob decode to a
	// registry that re-encodes to different bytes.
	if env.Seed != 0 {
		return nil, badEncoding("registry envelope seed %#x, must be zero", env.Seed)
	}
	r := wire.NewReader(env.Payload, core.ErrBadEncoding)
	k := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	// A subspace-free registry never emits this kind, and each entry
	// costs at least 4 (column count) + 4 (one column) + 4 (blob
	// length prefix) payload bytes, so the claimed count bounds the
	// loop before anything is allocated.
	if k < 1 || 12*k > r.Remaining() {
		return nil, badEncoding("registry subspace count %d in %d payload bytes", k, r.Remaining())
	}
	full, err := decodeMember("catch-all", r.Block(), env)
	if err != nil {
		if rerr := r.Err(); rerr != nil {
			return nil, rerr
		}
		return nil, err
	}
	reg, err := New(full)
	if err != nil {
		return nil, badEncoding("rebuilding registry: %v", err)
	}
	for i := 0; i < k; i++ {
		m := int(r.U32())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if m < 1 || m > env.Dim || 4*m > r.Remaining() {
			return nil, badEncoding("registry subspace %d claims %d columns in dimension %d (%d payload bytes left)",
				i, m, env.Dim, r.Remaining())
		}
		cols := make([]int, m)
		prev := -1
		for j := range cols {
			col := int(r.U32())
			if rerr := r.Err(); rerr != nil {
				return nil, rerr
			}
			if col <= prev || col >= env.Dim {
				return nil, badEncoding("registry subspace %d columns not strictly ascending within [0, %d)", i, env.Dim)
			}
			cols[j], prev = col, col
		}
		c, err := words.NewColumnSet(env.Dim, cols...)
		if err != nil {
			return nil, badEncoding("registry subspace %d: %v", i, err)
		}
		if _, dup := reg.index[colsKey(c)]; dup {
			return nil, badEncoding("registry subspace %v appears twice", c)
		}
		sum, err := decodeMember(fmt.Sprintf("subspace %v", c), r.Block(), env)
		if err != nil {
			if rerr := r.Err(); rerr != nil {
				return nil, rerr
			}
			return nil, err
		}
		if _, ok := sum.(core.PackedObserver); !ok {
			return nil, badEncoding("registry subspace %v: %s summary does not ingest packed rows", c, sum.Name())
		}
		reg.add(c, sum)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return reg, nil
}
