package engine

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/words"
)

// TestEpochMixedStress hammers one engine with concurrent batch
// writers, query readers, snapshot pollers, and checkpoint cuts — the
// full mixed workload the epoch read path serves. It exists to run
// under -race: correctness here is "no data race, no error, every read
// reflects every row accepted before it started, and Flush reflects
// every accepted row once the writers stop".
func TestEpochMixedStress(t *testing.T) {
	const d, q = 6, 3
	dir := t.TempDir()
	log := openLog(t, dir, d, q)
	defer log.Close()
	eng, err := NewSharded(exactFactory(d, q), Config{
		Shards: 3,
		Queue:  8,
		Log:    log,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const (
		writers       = 3
		batchesPerW   = 40
		rowsPerBatch  = 5
		readers       = 2
		readsPerR     = 60
		checkpoints   = 8
		snapshotPolls = 60
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rng.New(uint64(g) + 1)
			for i := 0; i < batchesPerW; i++ {
				b := words.NewBatch(d, rowsPerBatch)
				for r := 0; r < rowsPerBatch; r++ {
					row := make(words.Word, b.Dim())
					for j := range row {
						row[j] = uint16(src.Intn(q))
					}
					b.Append(row)
				}
				eng.ObserveBatch(b)
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := words.MustColumnSet(d, g, g+1)
			var lastSeq uint64
			for i := 0; i < readsPerR; i++ {
				before := eng.Rows()
				res, info := eng.QueryBatchInfo([]Query{
					{Kind: KindF0, Cols: c},
					{Kind: KindFrequency, Cols: c, Pattern: words.Word{1, 1}},
				})
				for _, x := range res {
					if x.Err != nil {
						t.Error(x.Err)
						return
					}
				}
				// Epochs a single reader observes never move backwards.
				if info.Seq < lastSeq {
					t.Errorf("epoch seq went backwards: %d after %d", info.Seq, lastSeq)
					return
				}
				lastSeq = info.Seq
				if info.StalenessRows < 0 {
					t.Errorf("negative staleness %d", info.StalenessRows)
					return
				}
				// The one read contract: the serving cut covers every row
				// accepted before the read started.
				if info.Rows < before {
					t.Errorf("read served a cut of %d rows, %d were accepted before it started", info.Rows, before)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < snapshotPolls; i++ {
			if _, _, err := eng.SnapshotInfo(); err != nil {
				t.Error(err)
				return
			}
			_ = eng.SizeBytes()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < checkpoints; i++ {
			if _, err := eng.CheckpointState(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	snap, err := eng.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(writers * batchesPerW * rowsPerBatch)
	if snap.Rows() != want {
		t.Fatalf("flushed snapshot rows %d, want %d", snap.Rows(), want)
	}
	_, info, err := eng.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != want || info.StalenessRows != 0 {
		t.Fatalf("post-Flush epoch rows=%d staleness=%d, want %d/0", info.Rows, info.StalenessRows, want)
	}
	// An epoch covering every accepted row is served as long as no row
	// arrives: idle polls never rebuild.
	_, again, err := eng.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	if again.Seq != info.Seq {
		t.Fatalf("idle poll rebuilt the epoch (seq %d then %d)", info.Seq, again.Seq)
	}
}

// TestCheckpointCutExactUnderEpochReads is the durable regression for
// the epoch read path: checkpoints cut while writers hammer the engine
// AND readers rebuild and serve epochs must still restore + replay to
// the exact final state. The epoch path must not leak into the cut —
// reads publish epochs, the log cut stays exact.
func TestCheckpointCutExactUnderEpochReads(t *testing.T) {
	const d, q = 4, 3
	dir := t.TempDir()
	cfg := Config{Shards: 3, BatchChunk: 2, Queue: 4}
	log := openLog(t, dir, d, q)
	cfgA := cfg
	cfgA.Log = log
	eng, err := NewSharded(exactFactory(d, q), cfgA)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				b := words.NewBatch(d, 3)
				for r := 0; r < 3; r++ {
					row := make(words.Word, b.Dim())
					for j := range row {
						row[j] = uint16((g + i + r + j) % q)
					}
					b.Append(row)
				}
				eng.ObserveBatch(b)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := words.MustColumnSet(d, g, g+1)
			for i := 0; i < 40; i++ {
				res := eng.QueryBatch([]Query{{Kind: KindF0, Cols: c}})
				if res[0].Err != nil {
					t.Error(res[0].Err)
					return
				}
			}
		}(g)
	}
	for k := 0; k < 5; k++ {
		cs, err := eng.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		if err := log.WriteCheckpoint(&store.Checkpoint{LSN: cs.LSN, Next: cs.Next, Rows: cs.Rows, Absorbs: uint64(cs.Absorbs), Shards: cs.Shards}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	// A checkpoint on the now-quiet engine publishes its piggybacked
	// epoch: the very next read must reflect the full cut without a
	// rebuild of its own (same seq, zero staleness).
	if _, err := eng.CheckpointState(); err != nil {
		t.Fatal(err)
	}
	_, info, err := eng.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 300 || info.StalenessRows != 0 {
		t.Fatalf("post-checkpoint epoch rows=%d staleness=%d, want 300/0", info.Rows, info.StalenessRows)
	}
	_, again, err := eng.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	if again.Seq != info.Seq {
		t.Fatalf("read after checkpoint rebuilt instead of serving the piggybacked epoch (seq %d then %d)", info.Seq, again.Seq)
	}

	want := engineBytes(t, eng)
	if eng.Rows() != 300 {
		t.Fatalf("engine rows %d", eng.Rows())
	}
	eng.Close()
	log.Close()

	eng2, log2 := recoverEngine(t, dir, exactFactory(d, q), cfg, d, q)
	defer eng2.Close()
	defer log2.Close()
	if eng2.Rows() != 300 {
		t.Fatalf("recovered rows %d", eng2.Rows())
	}
	if got := engineBytes(t, eng2); !bytes.Equal(got, want) {
		t.Fatal("checkpoint cut under epoch reads lost or duplicated records")
	}
}
