package engine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/words"
)

// TestReplayPackedMatchesLiveIngest is the differential test of WAL
// replay on the packed path: a durable engine ingests batches live
// (packed at its door), and a fresh engine recovers the log by routing
// each record's packed body as it lies in the segment (ReplayPacked).
// The two engines' summaries must be byte-equal, for every summary
// kind an engine builds and for a registered subspace, at d = 16,
// q = 4 (2-bit symbols, no padding) and d = 5, q = 7 (3-bit symbols,
// one padding bit a row).
func TestReplayPackedMatchesLiveIngest(t *testing.T) {
	for _, shape := range []struct{ d, q int }{{16, 4}, {5, 7}} {
		d, q := shape.d, shape.q
		sub := words.MustColumnSet(d, 0, 2, d-1)
		kinds := []struct {
			name    string
			factory Factory
			sub     Factory
		}{
			{"exact", exactFactory(d, q), nil},
			{"sample", func(shard int) (core.Summary, error) {
				return StandardSummary("sample", d, q, 0.2, 0.1, 0, 7, shard)
			}, nil},
			{"net", netFactory(d, q, core.NetConfig{Alpha: 0.45, Epsilon: 0.5, Moments: []float64{2}, StableReps: 4, Seed: 5}), nil},
			{"registered", exactFactory(d, q), func(int) (core.Summary, error) {
				return core.NewRegistered(d, q, sub, core.RegisteredConfig{Seed: 3})
			}},
		}
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/d=%d,q=%d", kind.name, d, q), func(t *testing.T) {
				cfg := Config{Shards: 2, BatchChunk: 16}
				build := func(log Log) *Sharded {
					c := cfg
					c.Log = log
					eng, err := NewSharded(kind.factory, c)
					if err != nil {
						t.Fatal(err)
					}
					if kind.sub != nil {
						if err := eng.RegisterSubspace(sub, kind.sub); err != nil {
							t.Fatal(err)
						}
					}
					return eng
				}
				dir := t.TempDir()
				log := openLog(t, dir, d, q)
				live := build(log)
				src := rng.New(uint64(d*q + len(kind.name)))
				var rows int64
				for i := range 24 {
					b := words.NewBatch(d, 0)
					for range 1 + i*i%97 {
						row := make(words.Word, d)
						for j := range row {
							row[j] = uint16(src.Intn(q))
						}
						b.Append(row)
					}
					if err := live.ObserveBatchDurable(b); err != nil {
						t.Fatal(err)
					}
					rows += int64(b.Len())
				}
				want := engineBytes(t, live)
				live.Close()
				if err := log.Close(); err != nil {
					t.Fatal(err)
				}

				st := openLog(t, dir, d, q)
				defer st.Close()
				replayed := build(nil)
				defer replayed.Close()
				info, err := st.Recover(nil, func(rec store.Record) error {
					if rec.Kind != store.RecordBatch || rec.Packed == nil || rec.Rows != nil {
						return fmt.Errorf("record %d: kind %v, packed %v, u16 rows %v; want a packed batch", rec.LSN, rec.Kind, rec.Packed != nil, rec.Rows != nil)
					}
					return replayed.ReplayPacked(rec.Packed)
				})
				if err != nil {
					t.Fatal(err)
				}
				if info.Records != 24 || info.Rows != rows || replayed.Rows() != rows {
					t.Fatalf("replayed %d records of %d rows into an engine of %d, want 24 of %d", info.Records, info.Rows, replayed.Rows(), rows)
				}
				if got := engineBytes(t, replayed); !bytes.Equal(got, want) {
					t.Fatalf("replayed engine differs from the live one: %d vs %d bytes", len(got), len(want))
				}
			})
		}
	}
}

// TestReplayPackedRefusesOtherLayout: a packed batch of another
// dimension or another alphabet's layout is refused with nothing
// routed — [4]'s layout too, whose rows are as wide as [3]'s but whose
// verification lets the field 3 through — and one in the engine's
// layout is routed whole.
func TestReplayPackedRefusesOtherLayout(t *testing.T) {
	const d, q = 4, 3
	eng, err := NewSharded(exactFactory(d, q), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, pk := range []words.Packing{words.NewPacking(d, 5), words.NewPacking(d+1, q), words.NewPacking(d, 4)} {
		var b words.PackedBatch
		b.Bind(pk, make([]byte, 2*pk.Stride()))
		if err := eng.ReplayPacked(&b); err == nil {
			t.Fatalf("a batch of %d columns over [%d] replayed into a %d-column engine over [%d]", pk.Dim(), pk.Alphabet(), d, q)
		}
	}
	if eng.Rows() != 0 {
		t.Fatalf("refused replays accepted %d rows", eng.Rows())
	}
	var b words.PackedBatch
	if i := b.Pack(words.NewPacking(d, q), words.BatchOf(d, []uint16{0, 1, 2, 0, 2, 2, 1, 0})); i >= 0 {
		t.Fatalf("symbol %d refused", i)
	}
	if err := eng.ReplayPacked(&b); err != nil {
		t.Fatal(err)
	}
	if eng.Rows() != 2 {
		t.Fatalf("replayed batch accepted %d rows, want 2", eng.Rows())
	}
}

// TestObserveBatchDurableRefusesOutsideAlphabet: a batch with one
// symbol outside the alphabet, in its last chunk, is refused whole, by
// the door's pack, with a durability log and without one: the log
// gains no record, no chunk reaches a shard, and the row clock stays
// put; ObserveBatch panics in the caller instead. A valid batch
// afterwards is logged and routed as usual.
func TestObserveBatchDurableRefusesOutsideAlphabet(t *testing.T) {
	const d, q = 4, 3
	for _, durable := range []bool{true, false} {
		cfg := Config{Shards: 2, BatchChunk: 8}
		var log *store.Store
		if durable {
			log = openLog(t, t.TempDir(), d, q)
			defer log.Close()
			cfg.Log = log
		}
		records := func() uint64 {
			if log == nil {
				return 0
			}
			return log.LSN()
		}
		eng, err := NewSharded(exactFactory(d, q), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		bad := words.NewBatch(d, 40)
		for i := range 40 {
			row := make(words.Word, bad.Dim())
			for j := range row {
				row[j] = uint16((i + j) % q)
			}
			bad.Append(row)
		}
		bad.Row(38)[1] = q
		if err := eng.ObserveBatchDurable(bad); err == nil {
			t.Fatalf("durable %v: a batch with a symbol outside the alphabet was accepted", durable)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("durable %v: ObserveBatch of a batch with a symbol outside the alphabet must panic", durable)
				}
			}()
			eng.ObserveBatch(bad)
		}()
		snap, err := eng.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if eng.Rows() != 0 || snap.Rows() != 0 || records() != 0 {
			t.Fatalf("durable %v: refused batches left %d accepted rows, %d in the shards and %d log records", durable, eng.Rows(), snap.Rows(), records())
		}
		bad.Row(38)[1] = 0
		if err := eng.ObserveBatchDurable(bad); err != nil {
			t.Fatal(err)
		}
		if snap, err = eng.Flush(); err != nil || eng.Rows() != 40 || snap.Rows() != 40 {
			t.Fatalf("durable %v: valid batch: %d accepted rows, %d in the shards (%v)", durable, eng.Rows(), snap.Rows(), err)
		}
		if durable && records() != 1 {
			t.Fatalf("valid batch: %d log records, want 1", records())
		}
	}
}
