package engine

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/words"
)

// sourceTestEngine builds a small exact-summary engine for the
// AbsorbSource tests.
func sourceTestEngine(t *testing.T, cfg Config) *Sharded {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	eng, err := NewSharded(func(int) (core.Summary, error) {
		return core.NewExact(4, 3)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// sourceDonor builds an exact summary holding n copies of the row
// (sym, sym, sym, sym).
func sourceDonor(t *testing.T, n int, sym uint16) core.Summary {
	t.Helper()
	sum, err := core.NewExact(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := words.Word{sym, sym, sym, sym}
	for i := 0; i < n; i++ {
		sum.Observe(w)
	}
	return sum
}

// TestAbsorbSourceReplaces pins the anti-entropy semantics: absorbing
// the same source twice supersedes the first summary instead of
// accumulating it, because peers ship cumulative snapshots.
func TestAbsorbSourceReplaces(t *testing.T) {
	eng := sourceTestEngine(t, Config{})
	if err := eng.AbsorbSource("peer-a", sourceDonor(t, 10, 1)); err != nil {
		t.Fatal(err)
	}
	if got, err := eng.Frequency(words.FullColumnSet(4), words.Word{1, 1, 1, 1}); err != nil || got != 10 {
		t.Fatalf("after first absorb: freq %v, err %v (want 10)", got, err)
	}
	// The peer's next snapshot is cumulative: 10 old rows + 5 new.
	if err := eng.AbsorbSource("peer-a", sourceDonor(t, 15, 1)); err != nil {
		t.Fatal(err)
	}
	if got, err := eng.Frequency(words.FullColumnSet(4), words.Word{1, 1, 1, 1}); err != nil || got != 15 {
		t.Fatalf("after replacing absorb: freq %v, err %v (want 15, not 25)", got, err)
	}
	_, info, err := eng.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.MergedRows != 15 || info.Rows != 0 {
		t.Fatalf("epoch rows: merged %d local %d, want 15/0", info.MergedRows, info.Rows)
	}
}

// TestAbsorbSourceComposesWithLocalIngest checks sources and local
// rows add up in served answers and in the epoch's merged row count.
func TestAbsorbSourceComposesWithLocalIngest(t *testing.T) {
	eng := sourceTestEngine(t, Config{})
	w := words.Word{2, 2, 2, 2}
	for i := 0; i < 7; i++ {
		eng.Observe(w)
	}
	if err := eng.AbsorbSource("peer-a", sourceDonor(t, 3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := eng.AbsorbSource("peer-b", sourceDonor(t, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if got, err := eng.Frequency(words.FullColumnSet(4), w); err != nil || got != 14 {
		t.Fatalf("freq %v, err %v (want 7 local + 3 + 4 = 14)", got, err)
	}
	_, info, err := eng.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.MergedRows != 14 || info.Rows != 7 {
		t.Fatalf("epoch rows: merged %d local %d, want 14/7", info.MergedRows, info.Rows)
	}
	infos := eng.Sources()
	if len(infos) != 2 || infos[0].Name != "peer-a" || infos[1].Name != "peer-b" {
		t.Fatalf("sources: %+v", infos)
	}
	if infos[0].Rows != 3 || infos[1].Rows != 4 {
		t.Fatalf("source rows: %+v", infos)
	}
}

// TestAbsorbSourceRefusesBadDonor checks validation happens before any
// state changes: an incompatible donor leaves the engine untouched.
func TestAbsorbSourceRefusesBadDonor(t *testing.T) {
	eng := sourceTestEngine(t, Config{})
	if err := eng.AbsorbSource("peer-a", sourceDonor(t, 5, 1)); err != nil {
		t.Fatal(err)
	}
	wrong, err := core.NewExact(6, 3) // wrong dimension
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AbsorbSource("peer-a", wrong); !errors.Is(err, core.ErrIncompatibleMerge) {
		t.Fatalf("wrong-shape donor: %v, want ErrIncompatibleMerge", err)
	}
	if err := eng.AbsorbSource("", sourceDonor(t, 1, 0)); err == nil {
		t.Fatal("empty source name accepted")
	}
	// The failed absorbs changed nothing: the old peer-a state serves.
	if got, err := eng.Frequency(words.FullColumnSet(4), words.Word{1, 1, 1, 1}); err != nil || got != 5 {
		t.Fatalf("after refused absorb: freq %v, err %v (want 5)", got, err)
	}
}

// TestAbsorbSourceNeverServedStale checks that source changes cannot
// hide behind an epoch that still covers every accepted row: sources
// do not move the row clock, so the epoch drops on AbsorbSource and on
// RemoveSource, and the very next read reflects the change.
func TestAbsorbSourceNeverServedStale(t *testing.T) {
	eng := sourceTestEngine(t, Config{})
	w := words.Word{0, 1, 2, 0}
	eng.Observe(w)
	if got, err := eng.Frequency(words.FullColumnSet(4), w); err != nil || got != 1 {
		t.Fatalf("warmup read: %v, %v", got, err)
	}
	if err := eng.AbsorbSource("peer-a", sourceDonor(t, 9, 1)); err != nil {
		t.Fatal(err)
	}
	if got, err := eng.Frequency(words.FullColumnSet(4), words.Word{1, 1, 1, 1}); err != nil || got != 9 {
		t.Fatalf("read after absorb: freq %v, err %v (want 9)", got, err)
	}
	if !eng.RemoveSource("peer-a") {
		t.Fatal("RemoveSource of present source reported absent")
	}
	if got, err := eng.Frequency(words.FullColumnSet(4), words.Word{1, 1, 1, 1}); err != nil || got != 0 {
		t.Fatalf("read after removal: freq %v, err %v (want 0)", got, err)
	}
}

// TestRemoveSourceDropsAbsorbedState pins the membership-change
// counterpart of AbsorbSource: once a departed peer's rows travel via
// its hand-off successor, removing the direct source must drop its
// absorbed summary from every served answer — keeping it would count
// the slice twice.
func TestRemoveSourceDropsAbsorbedState(t *testing.T) {
	eng := sourceTestEngine(t, Config{})
	w := words.Word{2, 2, 2, 2}
	for i := 0; i < 2; i++ {
		eng.Observe(w)
	}
	if err := eng.AbsorbSource("peer-a", sourceDonor(t, 5, 2)); err != nil {
		t.Fatal(err)
	}
	if got, err := eng.Frequency(words.FullColumnSet(4), w); err != nil || got != 7 {
		t.Fatalf("before removal: freq %v, err %v (want 7)", got, err)
	}
	if !eng.RemoveSource("peer-a") {
		t.Fatal("RemoveSource of present source reported absent")
	}
	if got, err := eng.Frequency(words.FullColumnSet(4), w); err != nil || got != 2 {
		t.Fatalf("after removal: freq %v, err %v (want 2 local rows only)", got, err)
	}
	_, info, err := eng.SnapshotInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.MergedRows != 2 || info.Rows != 2 {
		t.Fatalf("epoch rows after removal: merged %d local %d, want 2/2", info.MergedRows, info.Rows)
	}
	if srcs := eng.Sources(); len(srcs) != 0 {
		t.Fatalf("sources after removal: %+v", srcs)
	}
	// Removing an absent or never-absorbed source is a reported no-op.
	if eng.RemoveSource("peer-a") || eng.RemoveSource("ghost") {
		t.Fatal("RemoveSource of absent source reported present")
	}
	// Re-absorbing after removal works (the hand-off retry path).
	if err := eng.AbsorbSource("peer-a", sourceDonor(t, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if got, err := eng.Frequency(words.FullColumnSet(4), w); err != nil || got != 6 {
		t.Fatalf("after re-absorb: freq %v, err %v (want 6)", got, err)
	}
}

// TestAbsorbSourceBlocksLateRegistration checks absorbed source state
// gates subspace registration the way Absorb does.
func TestAbsorbSourceBlocksLateRegistration(t *testing.T) {
	eng := sourceTestEngine(t, Config{})
	if err := eng.AbsorbSource("peer-a", sourceDonor(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	err := eng.RegisterSubspace(words.MustColumnSet(4, 0, 1), func(int) (core.Summary, error) {
		return core.NewExact(4, 3)
	})
	if !errors.Is(err, ErrRowsAccepted) {
		t.Fatalf("late registration after source absorb: %v", err)
	}
}
