package core_test

import (
	"bytes"
	"encoding"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/words"
)

// TestObserveRefusesOutsideAlphabet: every summary's u16 door, and a
// registry's, refuses a batch with a symbol outside [Q] in a later row.
// It panics naming the summary, the row and the symbol, and keeps none
// of the batch: the row count and the wire bytes are as before, and
// rows observed afterwards leave the summary as they leave a twin that
// never saw the refused batch. The batch holds more rows than one of
// the exact summary's 128 KiB runs (2 bytes a row here), so a summary
// that appended as it checked would have filled its tail and started a
// run before the symbol came up. The sampler checks only a batch in
// which some slot accepts; one this long, after a short stream, always
// has one.
func TestObserveRefusesOutsideAlphabet(t *testing.T) {
	const d, q, n = 8, 4, 70_000
	kinds := core.BatchSummaryKinds(t, d, q)
	kinds["registry"] = func() core.Summary {
		full, err := core.NewExact(d, q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := registry.New(full)
		if err != nil {
			t.Fatal(err)
		}
		c := words.MustColumnSet(d, 1, 4)
		sub, err := core.NewRegistered(d, q, c, core.RegisteredConfig{Epsilon: 0.1, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RegisterSubspace(c, sub); err != nil {
			t.Fatal(err)
		}
		return r
	}
	names := map[string]string{
		"exact":      "core: exact summary",
		"sample-wr":  "sample: sampler",
		"net":        "core: net summary",
		"registered": "core: registered summary",
		"registry":   "registry",
	}
	first, more := randomBatch(d, q, 300, 1), randomBatch(d, q, 30, 3)
	bad := randomBatch(d, q, n, 2)
	bad.Row(n - 2)[3] = q
	for name, fresh := range kinds {
		t.Run(name, func(t *testing.T) {
			s := fresh()
			s.ObserveBatch(first)
			rows, blob := s.Rows(), marshal(t, s)
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if want := fmt.Sprintf("%s: batch row %d symbol %d outside alphabet [%d]", names[name], n-2, q, q); msg != want {
						t.Fatalf("panic %q, want %q", msg, want)
					}
				}()
				s.ObserveBatch(bad)
			}()
			if s.Rows() != rows || !bytes.Equal(marshal(t, s), blob) {
				t.Fatalf("the refused batch left rows behind: %d rows, was %d", s.Rows(), rows)
			}
			s.ObserveBatch(more)
			twin := fresh()
			twin.ObserveBatch(first)
			twin.ObserveBatch(more)
			if !bytes.Equal(marshal(t, s), marshal(t, twin)) {
				t.Fatal("rows observed after the refusal differ from a twin that never saw it")
			}
		})
	}
}

// randomBatch returns n rows of d uniform symbols over [q].
func randomBatch(d, q, n int, seed uint64) *words.Batch {
	src := rng.New(seed)
	b := words.NewBatch(d, n)
	row := make(words.Word, d)
	for range n {
		for j := range row {
			row[j] = uint16(src.Intn(q))
		}
		b.Append(row)
	}
	return b
}

func marshal(t *testing.T, s core.Summary) []byte {
	t.Helper()
	blob, err := s.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
