package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/words"
)

// expectWake parks an AwaitChange on the engine's current epoch, checks
// that it stays parked while the epoch stands, applies change, and
// fails unless the waiter then returns nil promptly.
func expectWake(t *testing.T, eng *Sharded, name string, change func() error) {
	t.Helper()
	_, info, err := eng.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eng.AwaitChange(ctx, info.Seq) }()
	select {
	case err := <-done:
		t.Fatalf("%s: AwaitChange returned %v before the change", name, err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := change(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: AwaitChange = %v, want nil", name, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: AwaitChange still parked 2s after the change", name)
	}
}

// TestAwaitChange pins the engine's change signal: every mutation that
// retires the serving epoch — rows, a source absorbed, replaced or
// removed, a subspace registration, a checkpoint restore — wakes a
// waiter parked on it, nothing else does, and the wake path holds up
// under concurrent writers and waiters.
func TestAwaitChange(t *testing.T) {
	t.Run("wakes", testAwaitChangeWakes)
	t.Run("concurrent", testAwaitChangeConcurrent)
}

func testAwaitChangeWakes(t *testing.T) {
	eng := sourceTestEngine(t, Config{})
	row := words.BatchOf(4, []uint16{1, 2, 0, 1})
	expectWake(t, eng, "ObserveBatch", func() error { eng.ObserveBatch(row); return nil })
	expectWake(t, eng, "AbsorbSource", func() error { return eng.AbsorbSource("peer", sourceDonor(t, 3, 2)) })
	expectWake(t, eng, "AbsorbSource replacing", func() error { return eng.AbsorbSource("peer", sourceDonor(t, 5, 1)) })
	expectWake(t, eng, "RemoveSource", func() error {
		if !eng.RemoveSource("peer") {
			return errors.New("source not present")
		}
		return nil
	})

	// Registration and restore need an engine that has accepted nothing.
	sub, err := NewSharded(exactFactory(10, 2), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	c := words.MustColumnSet(10, 0, 1)
	expectWake(t, sub, "RegisterSubspace", func() error { return sub.RegisterSubspace(c, registeredFactory(c)) })

	fresh := sourceTestEngine(t, Config{})
	blobs := make([][]byte, 2)
	for i := range blobs {
		if blobs[i], err = core.MarshalSummary(sourceDonor(t, 4, uint16(i))); err != nil {
			t.Fatal(err)
		}
	}
	expectWake(t, fresh, "Restore", func() error { return fresh.Restore(CheckpointState{Rows: 8, Shards: blobs}) })

	// While the epoch stands — reads, a refused donor — the waiter stays
	// parked and reports its context's end.
	_, info, err := eng.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eng.AwaitChange(ctx, info.Seq) }()
	bad, err := core.NewExact(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AbsorbSource("bad", bad); err == nil {
		t.Fatal("a mis-shaped source was absorbed")
	}
	for i := 0; i < 10; i++ {
		if _, err := eng.F0(words.FullColumnSet(4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AwaitChange on a standing epoch = %v, want %v", err, context.DeadlineExceeded)
	}
	// A seq that is no longer served returns at once, even on a done
	// context: the change wins.
	if err := eng.AwaitChange(ctx, info.Seq+1); err != nil {
		t.Fatalf("AwaitChange on a retired seq = %v, want nil", err)
	}
}

// testAwaitChangeConcurrent runs 4 writers against 4 waiters; under
// -race it proves the wake path is race-free, and every wake it sees is
// real: the epoch resolved after a nil return is a later one.
func testAwaitChangeConcurrent(t *testing.T) {
	const d, q, writers, waiters, batches = 4, 3, 4, 4, 200
	eng := sourceTestEngine(t, Config{Shards: 2, Queue: 4})
	stop, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wakes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop.Err() == nil {
				_, before, err := eng.SnapshotInfo()
				if err != nil {
					t.Error(err)
					return
				}
				if err := eng.AwaitChange(stop, before.Seq); err != nil {
					return
				}
				wakes.Add(1)
				_, after, err := eng.SnapshotInfo()
				if err != nil {
					t.Error(err)
					return
				}
				if after.Seq <= before.Seq {
					t.Errorf("woken on epoch %d, but the next read serves epoch %d", before.Seq, after.Seq)
					return
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for g := 0; g < writers; g++ {
		ww.Add(1)
		go func(g int) {
			defer ww.Done()
			src := rng.New(uint64(g) + 1)
			b := words.NewBatch(d, 3)
			for i := 0; i < batches; i++ {
				b.Reset()
				for r := 0; r < 3; r++ {
					row := b.AppendRow()
					for j := range row {
						row[j] = uint16(src.Intn(q))
					}
				}
				eng.ObserveBatch(b)
			}
		}(g)
	}
	ww.Wait()
	cancel()
	wg.Wait()
	if wakes.Load() == 0 {
		t.Fatal("no waiter was ever woken")
	}
	if got := eng.Rows(); got != writers*batches*3 {
		t.Fatalf("rows %d, want %d", got, writers*batches*3)
	}
}
