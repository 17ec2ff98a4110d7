package engine

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/words"
	"repro/internal/workload"
)

// freshMergeEpoch is the oracle of a net epoch cut: a registry fresh
// from the factories into which every shard merges in order, and then
// every source in name order. It returns the registry's wire form.
func (s *Sharded) freshMergeEpoch(tb testing.TB) []byte {
	tb.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	reg, err := s.buildShard(len(s.shards))
	if err != nil {
		tb.Fatal(err)
	}
	err = s.quiesce(func() error {
		for _, sh := range s.shards {
			if err := reg.MergeTrusted(sh); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(s.sources)) {
		if err := reg.MergeTrusted(s.sources[name]); err != nil {
			tb.Fatal(err)
		}
	}
	blob, err := core.MarshalSummary(reg)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// checkNetEpoch fails unless eng's next epoch starts from a clone of
// shard 0 and serializes to the oracle's bytes.
func checkNetEpoch(t *testing.T, eng *Sharded) {
	t.Helper()
	want := eng.freshMergeEpoch(t)
	// The oracle's barrier has drained the shard queues: shard 0 is
	// idle until the next write.
	if _, ok := eng.shards[0].Clone(); !ok {
		t.Fatal("a net shard's registry must clone")
	}
	got, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cloned epoch (%d bytes) differs from the fresh-merge oracle (%d bytes)", len(got), len(want))
	}
}

// zipfRows returns n Zipf rows of dimension d over [4].
func zipfRows(d, n int, seed uint64) *words.Batch {
	return words.Collect(workload.ZipfPatterns(d, 4, n, 512, 1.1, seed), -1).Batch()
}

// netEpochConfig is the net of the clone tests: few repetitions, so
// that d = 12 stays quick.
func netEpochConfig(moments ...float64) core.NetConfig {
	return core.NetConfig{Alpha: 0.3, Epsilon: 0.1, Moments: moments, StableReps: 20, Seed: 5}
}

// TestNetEpochCloneMatchesFreshMerge pins the cloned epoch cut to the
// one it replaced, byte for byte: over dimensions, moment sets and
// shard counts, with absorbed source donors, and with registered
// subspaces.
func TestNetEpochCloneMatchesFreshMerge(t *testing.T) {
	for _, d := range []int{4, 8, 12} {
		for _, moments := range [][]float64{nil, {2}, {0.5, 2}} {
			for shards := 1; shards <= 3; shards++ {
				t.Run(fmt.Sprintf("d=%d/moments=%v/shards=%d", d, moments, shards), func(t *testing.T) {
					eng, err := NewSharded(netFactory(d, 4, netEpochConfig(moments...)), Config{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					eng.ObserveBatch(zipfRows(d, 1500, uint64(d)))
					checkNetEpoch(t, eng)
				})
			}
		}
	}
	t.Run("sources", func(t *testing.T) {
		cfg := netEpochConfig(0.5, 2)
		eng, err := NewSharded(netFactory(8, 4, cfg), Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		eng.ObserveBatch(zipfRows(8, 1000, 1))
		for i, name := range []string{"b", "a"} {
			donor, err := core.NewNet(8, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			donor.ObserveBatch(zipfRows(8, 700, uint64(2+i)))
			if err := eng.AbsorbSource(name, donor); err != nil {
				t.Fatal(err)
			}
		}
		checkNetEpoch(t, eng)
	})
	t.Run("subspaces", func(t *testing.T) {
		eng, err := NewSharded(netFactory(8, 4, netEpochConfig(2)), Config{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		for _, cols := range [][]int{{0, 2, 5}, {1, 3}} {
			c := words.MustColumnSet(8, cols...)
			err := eng.RegisterSubspace(c, func(int) (core.Summary, error) {
				return core.NewRegistered(8, 4, c, core.RegisteredConfig{Seed: 3})
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		eng.ObserveBatch(zipfRows(8, 1500, 4))
		checkNetEpoch(t, eng)
	})
}

// TestNetEpochCloneIsolatedFromShards cuts an epoch and keeps feeding
// the shards while it reads the epoch: its bytes must not move. Under
// -race it also shows that the epoch shares no memory the shard
// workers write.
func TestNetEpochCloneIsolatedFromShards(t *testing.T) {
	eng, err := NewSharded(netFactory(8, 4, netEpochConfig(0.5, 2)), Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c := words.MustColumnSet(8, 0, 2, 5)
	err = eng.RegisterSubspace(c, func(int) (core.Summary, error) {
		return core.NewRegistered(8, 4, c, core.RegisteredConfig{Seed: 3})
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := zipfRows(8, 4096, 6)
	eng.ObserveBatch(rows.Slice(0, 1024))
	snap, err := eng.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MarshalSummary(snap)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := 1024; lo < rows.Len(); lo += 256 {
			eng.ObserveBatch(rows.Slice(lo, lo+256))
		}
	}()
	check := func(when string) {
		got, err := core.MarshalSummary(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("the published epoch changed %s", when)
		}
	}
	for range 8 {
		check("while its shards ingested")
	}
	<-done
	if next, err := eng.Flush(); err != nil || next.Rows() != int64(rows.Len()) {
		t.Fatalf("next epoch: %v rows, %v", next.Rows(), err)
	}
	check("after the next cut")
}
