package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/words"
)

const testDim, testQ = 8, 3

func newExact(t *testing.T) *core.Exact {
	t.Helper()
	e, err := core.NewExact(testDim, testQ)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newRegisteredFor(t *testing.T, c words.ColumnSet) *core.Registered {
	t.Helper()
	r, err := core.NewRegistered(testDim, testQ, c, core.RegisteredConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// testRows streams n deterministic rows into every summary given.
func testRows(n int, sums ...core.Summary) {
	w := make(words.Word, testDim)
	for i := 0; i < n; i++ {
		for j := range w {
			w[j] = uint16((i*(j+2) + i>>3) % testQ)
		}
		for _, s := range sums {
			s.Observe(w)
		}
	}
}

func TestTransparentWithoutSubspaces(t *testing.T) {
	base := newExact(t)
	reg, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Name() != base.Name() {
		t.Fatalf("empty registry name %q, want the catch-all's %q", reg.Name(), base.Name())
	}
	testRows(50, reg)
	if reg.Rows() != 50 || base.Rows() != 50 {
		t.Fatalf("rows %d/%d", reg.Rows(), base.Rows())
	}
	blob, err := reg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, isReg := dec.(*Registry); isReg {
		t.Fatal("subspace-free registry must serialize as its catch-all, not as a registry container")
	}
	if dec.Rows() != 50 {
		t.Fatalf("decoded rows %d", dec.Rows())
	}
	// A bare summary merges into a transparent registry.
	donor := newExact(t)
	testRows(10, donor)
	if err := reg.Merge(donor); err != nil {
		t.Fatal(err)
	}
	if reg.Rows() != 60 {
		t.Fatalf("merged rows %d", reg.Rows())
	}
}

func TestRegisterSubspaceValidation(t *testing.T) {
	reg, err := New(newExact(t))
	if err != nil {
		t.Fatal(err)
	}
	hot := words.MustColumnSet(testDim, 0, 1)
	if err := reg.RegisterSubspace(hot, newRegisteredFor(t, hot)); err != nil {
		t.Fatal(err)
	}
	// Duplicate.
	if err := reg.RegisterSubspace(hot, newRegisteredFor(t, hot)); !errors.Is(err, ErrDuplicateSubspace) {
		t.Fatalf("duplicate registration: %v", err)
	}
	// Empty column set.
	if err := reg.RegisterSubspace(words.ColumnSet{}, newExact(t)); err == nil {
		t.Fatal("empty subspace column set must be rejected")
	}
	// Dimension mismatch between cols and registry.
	if err := reg.RegisterSubspace(words.MustColumnSet(testDim+1, 0), newExact(t)); err == nil {
		t.Fatal("foreign-dimension subspace must be rejected")
	}
	// Shape mismatch between summary and registry.
	other, err := core.NewExact(testDim+1, testQ)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterSubspace(words.MustColumnSet(testDim, 2), other); err == nil {
		t.Fatal("mismatched subspace summary shape must be rejected")
	}
	// Nesting.
	inner, err := New(newExact(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterSubspace(words.MustColumnSet(testDim, 2), inner); err == nil {
		t.Fatal("nested registry must be rejected")
	}
	if _, err := New(inner); err == nil {
		t.Fatal("registry catch-all must not be a registry")
	}
	// Registration after rows.
	testRows(1, reg)
	if err := reg.RegisterSubspace(words.MustColumnSet(testDim, 3), newExact(t)); !errors.Is(err, ErrRowsObserved) {
		t.Fatalf("post-observation registration: %v", err)
	}
	if reg.NumSubspaces() != 1 {
		t.Fatalf("registered %d subspaces, want 1", reg.NumSubspaces())
	}
}

func TestPlanDecisionOrder(t *testing.T) {
	reg, err := New(newExact(t))
	if err != nil {
		t.Fatal(err)
	}
	wide := words.MustColumnSet(testDim, 0, 1, 2, 3)
	tight := words.MustColumnSet(testDim, 0, 1, 2)
	pair := words.MustColumnSet(testDim, 0, 1)
	for _, c := range []words.ColumnSet{wide, tight, pair} {
		if err := reg.RegisterSubspace(c, newExact(t)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		c     words.ColumnSet
		match Match
		id    int
	}{
		{"exact wide", wide, MatchExact, 1},
		{"exact tight", tight, MatchExact, 2},
		{"exact pair", pair, MatchExact, 3},
		{"strict subset of two entries routes full", words.MustColumnSet(testDim, 1, 2), MatchFull, 0},
		{"strict subset of one entry routes full", words.MustColumnSet(testDim, 2, 3), MatchFull, 0},
		{"strict superset routes full", words.MustColumnSet(testDim, 0, 1, 2, 3, 4), MatchFull, 0},
		{"uncovered falls through", words.MustColumnSet(testDim, 6, 7), MatchFull, 0},
		{"partial overlap is not coverage", words.MustColumnSet(testDim, 0, 7), MatchFull, 0},
		{"empty set routes full", words.ColumnSet{}, MatchFull, 0},
		{"foreign dimension routes full", words.MustColumnSet(testDim+2, 0), MatchFull, 0},
	}
	for _, tc := range cases {
		got := reg.Plan(tc.c)
		if got.Match != tc.match || got.ID != tc.id {
			t.Errorf("%s: planned %v/ID %d, want %v/ID %d", tc.name, got.Match, got.ID, tc.match, tc.id)
		}
		wantRoute := RouteFull
		if tc.match == MatchExact {
			wantRoute = "subspace" + tc.c.String()
		}
		if got.Route != wantRoute {
			t.Errorf("%s: route %q, want %q", tc.name, got.Route, wantRoute)
		}
	}
	// Any summary kind serves exactly its own set: a core.Registered
	// entry wins {4,5}, and {4} still goes to the catch-all.
	sketched := words.MustColumnSet(testDim, 4, 5)
	if err := reg.RegisterSubspace(sketched, newRegisteredFor(t, sketched)); err != nil {
		t.Fatal(err)
	}
	testRows(200, reg)
	if got := reg.Plan(sketched); got.Match != MatchExact || got.ID != 4 {
		t.Fatalf("registered entry must win its exact set: %v/ID %d", got.Match, got.ID)
	}
	if got := reg.Plan(words.MustColumnSet(testDim, 4)); got.Match != MatchFull || got.ID != 0 {
		t.Fatalf("strict subset of a registered set: planned %v/ID %d, want full", got.Match, got.ID)
	}
}

func TestRoutedAnswersMatchDirectOnes(t *testing.T) {
	full := newExact(t)
	reg, err := New(full)
	if err != nil {
		t.Fatal(err)
	}
	hot := words.MustColumnSet(testDim, 0, 1, 2)
	sameKind := newExact(t) // answers must be bit-identical
	if err := reg.RegisterSubspace(hot, sameKind); err != nil {
		t.Fatal(err)
	}
	sketched := words.MustColumnSet(testDim, 3, 4)
	if err := reg.RegisterSubspace(sketched, newRegisteredFor(t, sketched)); err != nil {
		t.Fatal(err)
	}
	ref := newExact(t)
	testRows(3000, reg, ref)

	for _, c := range []words.ColumnSet{hot, words.MustColumnSet(testDim, 0, 2), words.MustColumnSet(testDim, 5, 6)} {
		want, err := ref.F0(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reg.F0(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("F0(%v) routed %v != direct %v", c, got, want)
		}
		wantF2, _ := ref.Fp(c, 2)
		gotF2, err := reg.Fp(c, 2)
		if err != nil || gotF2 != wantF2 {
			t.Fatalf("Fp(%v) routed %v (%v) != direct %v", c, gotF2, err, wantF2)
		}
	}
	// The sketch-backed subspace answers F0 within its (1±ε) bound and
	// falls back to the catch-all for classes it cannot serve.
	want, _ := ref.F0(sketched)
	got, err := reg.F0(sketched)
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 || got < 0.7*want || got > 1.3*want {
		t.Fatalf("sketched F0 %v outside bounds of exact %v", got, want)
	}
	wantFreq, _ := ref.Frequency(sketched, words.Word{0, 0})
	gotFreq, err := reg.Frequency(sketched, words.Word{0, 0})
	if err != nil || gotFreq != wantFreq {
		t.Fatalf("fallback Frequency %v (%v) != direct %v", gotFreq, err, wantFreq)
	}
}

func TestMergeRegistries(t *testing.T) {
	build := func() *Registry {
		reg, err := New(newExact(t))
		if err != nil {
			t.Fatal(err)
		}
		hot := words.MustColumnSet(testDim, 0, 1)
		if err := reg.RegisterSubspace(hot, newRegisteredFor(t, hot)); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	a, b := build(), build()
	testRows(100, a)
	w := make(words.Word, testDim)
	for i := 0; i < 40; i++ {
		w[0], w[1] = uint16(i%testQ), uint16((i+1)%testQ)
		b.Observe(w)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Rows() != 140 {
		t.Fatalf("merged rows %d", a.Rows())
	}
	_, sub := a.Subspace(0)
	if sub.Rows() != 140 {
		t.Fatalf("merged subspace rows %d: entries must merge alongside the catch-all", sub.Rows())
	}
	// A bare summary cannot merge into a registry with subspaces.
	if err := a.Merge(newExact(t)); !errors.Is(err, core.ErrIncompatibleMerge) {
		t.Fatalf("bare merge into subspaced registry: %v", err)
	}
	// Structural mismatch is refused up front.
	other, err := New(newExact(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(other); !errors.Is(err, core.ErrIncompatibleMerge) {
		t.Fatalf("structural mismatch merge: %v", err)
	}
	if err := a.Merge(a); !errors.Is(err, core.ErrIncompatibleMerge) {
		t.Fatalf("self merge: %v", err)
	}
}

// TestMergeIsAtomicAcrossMembers: a donor whose structure matches but
// whose subspace summaries are config-incompatible (different seeds)
// must be refused with NO receiver state mutated — in particular the
// catch-all, which merges fine on its own, must not absorb the
// donor's rows before the subspace pair is found incompatible.
func TestMergeIsAtomicAcrossMembers(t *testing.T) {
	hot := words.MustColumnSet(testDim, 0, 1)
	build := func(seed uint64) *Registry {
		reg, err := New(newExact(t))
		if err != nil {
			t.Fatal(err)
		}
		sub, err := core.NewRegistered(testDim, testQ, hot, core.RegisteredConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterSubspace(hot, sub); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	recv, donor := build(1), build(2) // seedless catch-alls, mismatched subspace seeds
	testRows(100, recv)
	testRows(40, donor)
	beforeF0, err := recv.Full().(core.F0Querier).F0(hot)
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Merge(donor); !errors.Is(err, core.ErrIncompatibleMerge) {
		t.Fatalf("mismatched-seed merge: %v", err)
	}
	if recv.Rows() != 100 {
		t.Fatalf("failed merge advanced receiver to %d rows", recv.Rows())
	}
	afterF0, err := recv.Full().(core.F0Querier).F0(hot)
	if err != nil {
		t.Fatal(err)
	}
	if afterF0 != beforeF0 {
		t.Fatalf("failed merge mutated the catch-all: F0 %v -> %v", beforeF0, afterF0)
	}
	_, sub := recv.Subspace(0)
	if sub.Rows() != 100 {
		t.Fatalf("failed merge mutated the subspace: %d rows", sub.Rows())
	}
}

// buildWireRegistry assembles a registry with one sketch-backed and
// one exact subspace and streams rows through it.
func buildWireRegistry(t *testing.T, rows int) *Registry {
	t.Helper()
	reg, err := New(newExact(t))
	if err != nil {
		t.Fatal(err)
	}
	hot := words.MustColumnSet(testDim, 0, 1)
	if err := reg.RegisterSubspace(hot, newRegisteredFor(t, hot)); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterSubspace(words.MustColumnSet(testDim, 2, 3, 4), newExact(t)); err != nil {
		t.Fatal(err)
	}
	testRows(rows, reg)
	return reg
}

func TestWireRoundTrip(t *testing.T) {
	reg := buildWireRegistry(t, 500)
	blob, err := reg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.UnmarshalSummary(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := dec.(*Registry)
	if !ok {
		t.Fatalf("decoded %T, want *Registry", dec)
	}
	if got.NumSubspaces() != 2 || got.Rows() != 500 {
		t.Fatalf("decoded %d subspaces, %d rows", got.NumSubspaces(), got.Rows())
	}
	for _, c := range []words.ColumnSet{
		words.MustColumnSet(testDim, 0, 1),
		words.MustColumnSet(testDim, 2, 3),
		words.MustColumnSet(testDim, 5, 6, 7),
	} {
		want := reg.Plan(c)
		gp := got.Plan(c)
		if gp.ID != want.ID || gp.Match != want.Match {
			t.Fatalf("Plan(%v) decoded to %v/%d, want %v/%d", c, gp.Match, gp.ID, want.Match, want.ID)
		}
		a, err1 := reg.F0(c)
		b, err2 := got.F0(c)
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("F0(%v): original %v (%v), decoded %v (%v)", c, a, err1, b, err2)
		}
	}
	// Deterministic re-encoding.
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatal("re-encoding a decoded registry changed bytes")
	}
	// A subspace-free registry emits its bare summary's blob, which
	// decodes to that bare summary; New wraps it back into a
	// transparent registry of the same rows.
	bareSum := newExact(t)
	testRows(5, bareSum)
	bareReg, err := New(bareSum)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := core.MarshalSummary(bareReg)
	if err != nil {
		t.Fatal(err)
	}
	decBare, err := core.UnmarshalSummary(bare)
	if err != nil {
		t.Fatal(err)
	}
	if _, isReg := decBare.(*Registry); isReg {
		t.Fatal("a subspace-free registry blob decoded to a registry, want the bare summary")
	}
	transparent, err := New(decBare)
	if err != nil {
		t.Fatal(err)
	}
	if transparent.NumSubspaces() != 0 || transparent.Rows() != 5 {
		t.Fatalf("bare blob decoded to %d subspaces, %d rows", transparent.NumSubspaces(), transparent.Rows())
	}
}

func TestMergeOfDecodedEqualsDecodeOfMerged(t *testing.T) {
	a := buildWireRegistry(t, 200)
	b := buildWireRegistry(t, 0)
	w := make(words.Word, testDim)
	for i := 0; i < 80; i++ {
		for j := range w {
			w[j] = uint16((i + j) % testQ)
		}
		b.Observe(w)
	}
	blobA, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decA, err := core.UnmarshalSummary(blobA)
	if err != nil {
		t.Fatal(err)
	}
	decB, err := core.UnmarshalSummary(blobB)
	if err != nil {
		t.Fatal(err)
	}
	if err := decA.(core.Mergeable).Merge(decB); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	mergedBlob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	decMerged, err := core.UnmarshalSummary(mergedBlob)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []words.ColumnSet{
		words.MustColumnSet(testDim, 0, 1),
		words.MustColumnSet(testDim, 2, 3, 4),
		words.MustColumnSet(testDim, 5, 7),
	} {
		x, err1 := decA.(core.F0Querier).F0(c)
		y, err2 := decMerged.(core.F0Querier).F0(c)
		if err1 != nil || err2 != nil || x != y {
			t.Fatalf("F0(%v): merge-of-decoded %v (%v) != decode-of-merged %v (%v)", c, x, err1, y, err2)
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	reg := buildWireRegistry(t, 60)
	blob, err := reg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Truncations anywhere fail typed, never panic.
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := core.UnmarshalSummary(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		} else if !errors.Is(err, core.ErrBadEncoding) && !errors.Is(err, core.ErrInvalidParam) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), blob...)
		mutate(b)
		_, err := core.UnmarshalSummary(b)
		return err
	}
	// Envelope row count contradicting the members.
	if err := corrupt(func(b []byte) { b[24]++ }); !errors.Is(err, core.ErrBadEncoding) {
		t.Fatalf("row-count lie: %v", err)
	}
	// Non-zero envelope seed (the container carries no randomness, and
	// accepting one would break deterministic re-encoding).
	if err := corrupt(func(b []byte) { b[16] = 1 }); !errors.Is(err, core.ErrBadEncoding) {
		t.Fatalf("non-zero container seed: %v", err)
	}
	// Claimed subspace count beyond the payload.
	if err := corrupt(func(b []byte) { b[36] = 0xFF; b[37] = 0xFF }); !errors.Is(err, core.ErrBadEncoding) {
		t.Fatalf("subspace count lie: %v", err)
	}
	// Zero subspaces under the registry kind (never emitted).
	if err := corrupt(func(b []byte) { b[36], b[37], b[38], b[39] = 0, 0, 0, 0 }); !errors.Is(err, core.ErrBadEncoding) {
		t.Fatalf("zero-subspace container: %v", err)
	}
}

func TestDecodeRejectsNestedRegistry(t *testing.T) {
	// Hand-build a registry blob whose catch-all block is itself a
	// registry blob: the decoder must refuse before recursing.
	inner, err := buildWireRegistry(t, 0).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	outer := buildWireRegistry(t, 0)
	good, err := outer.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Splice: keep the envelope and entry count, replace the catch-all
	// block with the inner registry blob, drop the rest. The payload
	// length field must be patched to match.
	var evil []byte
	evil = append(evil, good[:36+4]...) // envelope + subspace count
	var lenPrefix [4]byte
	lenPrefix[0] = byte(len(inner))
	lenPrefix[1] = byte(len(inner) >> 8)
	lenPrefix[2] = byte(len(inner) >> 16)
	lenPrefix[3] = byte(len(inner) >> 24)
	evil = append(evil, lenPrefix[:]...)
	evil = append(evil, inner...)
	plen := len(evil) - 36
	evil[32] = byte(plen)
	evil[33] = byte(plen >> 8)
	evil[34] = byte(plen >> 16)
	evil[35] = byte(plen >> 24)
	_, err = core.UnmarshalSummary(evil)
	if !errors.Is(err, core.ErrBadEncoding) {
		t.Fatalf("nested registry blob: %v", err)
	}
}

// goldenRegistryDigest is the SHA-256 of the wire form of the registry
// TestObserveSplitInvariant builds, after its 600 rows went in one
// Observe call at a time at commit 50dbadb — through the per-row bodies
// Registry, core.Exact and core.Registered still had there. It was
// regenerated twice, when core.Registered dropped its KHLL and when
// core.Exact came to ship its rows packed: each new digest is that of
// the earlier blob decoded and re-encoded.
const goldenRegistryDigest = "31ed67782dd58f2b4f3c70a4f10ee07f26a1f4c1b31b422244c49c655286fa20"

// TestObserveSplitInvariant is the registry's side of the ingest
// contract (core's TestObserveBatchEquivalentToRows covers the bare
// summaries on the same stream): members stay in lockstep and the wire
// form depends on the row sequence only, however it is split into
// ObserveBatch and Observe calls.
func TestObserveSplitInvariant(t *testing.T) {
	const d, q, n = 8, 4, 600
	// core's batchTestRows(d, q, n, 1), which this package cannot import.
	src := rng.New(1)
	rows := make([]words.Word, n)
	for i := range rows {
		w := make(words.Word, d)
		lo := 0
		if src.Float64() < 0.4 {
			lo = d / 2
		}
		for j := lo; j < d; j++ {
			w[j] = uint16(src.Intn(q))
		}
		rows[i] = w
	}
	build := func() *Registry {
		full, err := core.NewExact(d, q)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := New(full)
		if err != nil {
			t.Fatal(err)
		}
		cols := words.MustColumnSet(d, 0, 1)
		sub, err := core.NewRegistered(d, q, cols, core.RegisteredConfig{Epsilon: 0.1, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterSubspace(cols, sub); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	digest := func(reg *Registry) string {
		blob, err := core.MarshalSummary(reg)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		return hex.EncodeToString(sum[:])
	}

	rowWise := build()
	for _, w := range rows {
		rowWise.Observe(w)
	}
	if got := digest(rowWise); got != goldenRegistryDigest {
		t.Fatalf("row-at-a-time digest %s, golden %s", got, goldenRegistryDigest)
	}

	split := build()
	i := 0
	for _, size := range []int{3, 0, 1, -1, 97, 64, -1, -1, 200, n} {
		if size < 0 {
			split.Observe(rows[i])
			i++
			continue
		}
		if i+size > n {
			size = n - i
		}
		b := words.NewBatch(d, size)
		for _, w := range rows[i : i+size] {
			b.Append(w)
		}
		split.ObserveBatch(b)
		i += size
	}
	if split.Rows() != n {
		t.Fatalf("split ingest holds %d rows, want %d", split.Rows(), n)
	}
	if got := digest(split); got != goldenRegistryDigest {
		t.Fatalf("split digest %s, golden %s", got, goldenRegistryDigest)
	}
}

// TestCloneOnlyWhenEveryMemberClones checks Registry.Clone: a net
// catch-all with registered subspaces clones to the same bytes, with
// its own members and route table; a registry holding an exact member
// anywhere reports ok == false.
func TestCloneOnlyWhenEveryMemberClones(t *testing.T) {
	net, err := core.NewNet(testDim, testQ, core.NetConfig{Alpha: 0.3, Epsilon: 0.25, Moments: []float64{2}, StableReps: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []words.ColumnSet{words.MustColumnSet(testDim, 0, 1), words.MustColumnSet(testDim, 2, 5, 7)} {
		if err := reg.RegisterSubspace(c, newRegisteredFor(t, c)); err != nil {
			t.Fatal(err)
		}
	}
	testRows(300, reg)
	c, ok := reg.Clone()
	if !ok {
		t.Fatal("a registry of a net and registered subspaces must clone")
	}
	want, err := reg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.MarshalBinary(); !bytes.Equal(got, want) {
		t.Fatal("clone differs from its source")
	}
	if c.Full() == reg.Full() || c.entries[0].sum == reg.entries[0].sum {
		t.Fatal("clone shares a member with its source")
	}
	if got := c.Plan(words.MustColumnSet(testDim, 2, 5, 7)); got.ID != 2 || got.Summary != c.entries[1].sum {
		t.Fatalf("clone plans {2,5,7} to ID %d", got.ID)
	}
	testRows(100, c)
	if got, _ := reg.MarshalBinary(); !bytes.Equal(got, want) {
		t.Fatal("feeding the clone changed its source")
	}

	exact, err := New(newExact(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := exact.Clone(); ok {
		t.Fatal("an exact catch-all must not clone")
	}
	mixed, err := New(net)
	if err != nil {
		t.Fatal(err)
	}
	mixed.add(words.MustColumnSet(testDim, 3), newExact(t))
	if _, ok := mixed.Clone(); ok {
		t.Fatal("an exact subspace must keep its registry from cloning")
	}
}
