package anet

import (
	"strings"
	"testing"

	"repro/internal/freq"
	"repro/internal/rng"
	"repro/internal/sketch"
	"repro/internal/words"
)

func kmvFactory(seed uint64) Factory {
	return func(id uint64) Estimator {
		return sketch.NewKMV(64, seed^rng.Mix64(id))
	}
}

func buildMeta(t *testing.T, d int, alpha float64, rows []words.Word) (*MetaSummary, *words.Table) {
	t.Helper()
	n, err := NewNet(d, alpha)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMetaSummary(n, kmvFactory(7))
	if err != nil {
		t.Fatal(err)
	}
	tb := words.NewTable(d, 2)
	for _, r := range rows {
		tb.Append(r)
	}
	m.ObservePacked(packed(t, tb.Batch()))
	return m, tb
}

// packed packs b's binary rows, as core.Net's door and the
// experiments pack theirs before ObservePacked.
func packed(t *testing.T, b *words.Batch) *words.PackedBatch {
	t.Helper()
	var pb words.PackedBatch
	if i := pb.Pack(words.NewPacking(b.Dim(), 2), b); i >= 0 {
		t.Fatalf("symbol %d outside [2]", b.Symbols()[i])
	}
	return &pb
}

func randomRows(d, n int, seed uint64) []words.Word {
	src := rng.New(seed)
	rows := make([]words.Word, n)
	for i := range rows {
		w := make(words.Word, d)
		for j := range w {
			w[j] = uint16(src.Intn(2))
		}
		rows[i] = w
	}
	return rows
}

func TestMetaSummaryMemberQueryIsDirect(t *testing.T) {
	const d = 8
	m, tb := buildMeta(t, d, 0.25, randomRows(d, 300, 1))
	// Size-2 subsets are members (low = floor(4-2) = 2).
	c := words.MustColumnSet(d, 1, 5)
	ans, err := m.Query(0, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Distance != 0 || !ans.Neighbor.Equal(c) || ans.Distortion != 1 {
		t.Fatalf("member query rounded: %+v", ans)
	}
	truth := float64(freq.FromTable(tb, c).Support())
	// KMV with k=64 is exact below saturation (F0 <= 4 here).
	if ans.Estimate != truth {
		t.Fatalf("estimate %v != truth %v", ans.Estimate, truth)
	}
}

func TestMetaSummaryBandQueryRounds(t *testing.T) {
	const d = 8
	m, tb := buildMeta(t, d, 0.25, randomRows(d, 500, 2))
	c := words.MustColumnSet(d, 0, 1, 2, 3) // size 4: inside the band (2,6)
	ans, err := m.Query(0, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Distance == 0 {
		t.Fatal("band query must round")
	}
	truth := float64(freq.FromTable(tb, c).Support())
	ratio := ans.Estimate / truth
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > ans.Distortion*1.2 {
		t.Fatalf("ratio %v exceeds distortion %v", ratio, ans.Distortion)
	}
}

func TestMetaSummaryCounts(t *testing.T) {
	const d = 8
	m, _ := buildMeta(t, d, 0.25, randomRows(d, 100, 3))
	n, _ := NewNet(d, 0.25)
	want, _ := n.MemberCount()
	if m.NumSketches() != want {
		t.Fatalf("NumSketches = %d, want %d", m.NumSketches(), want)
	}
	if m.Rows() != 100 {
		t.Fatalf("Rows = %d", m.Rows())
	}
	if m.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestMetaSummaryDimensionMismatch(t *testing.T) {
	m, _ := buildMeta(t, 8, 0.25, randomRows(8, 10, 4))
	if _, err := m.Query(0, words.MustColumnSet(9, 0), 0); err == nil {
		t.Fatal("dimension mismatch must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("observe with wrong length must panic")
		}
	}()
	m.ObservePacked(packed(t, words.RowBatch(make(words.Word, 9))))
}

func TestMarshalUnmarshalSketchesRoundTrip(t *testing.T) {
	const d = 8
	rows := randomRows(d, 400, 5)
	m, _ := buildMeta(t, d, 0.25, rows)
	msg, err := m.MarshalSketches(0)
	if err != nil {
		t.Fatal(err)
	}
	// Bob rebuilds an empty summary with the same shape and decodes.
	n, _ := NewNet(d, 0.25)
	bob, err := NewMetaSummary(n, kmvFactory(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.UnmarshalSketches(0, msg); err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{{0}, {0, 1, 2, 3}, {2, 4, 6}} {
		c := words.MustColumnSet(d, cols...)
		a, err1 := m.Query(0, c, 0)
		b, err2 := bob.Query(0, c, 0)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a.Estimate != b.Estimate {
			t.Fatalf("decoded estimate %v != original %v on %v", b.Estimate, a.Estimate, cols)
		}
	}
}

func TestUnmarshalSketchesRejectsGarbage(t *testing.T) {
	n, _ := NewNet(8, 0.25)
	m, _ := NewMetaSummary(n, kmvFactory(7))
	if err := m.UnmarshalSketches(0, []byte{1, 2, 3}); err == nil {
		t.Fatal("truncated message must error")
	}
	good, _ := m.MarshalSketches(0)
	if err := m.UnmarshalSketches(0, append(good, 0xff)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes must error, got %v", err)
	}
}

// TestMetaSummaryProblemsShareOneKeyPass: a meta-summary keeping
// several problems per member leaves each problem's sketches exactly as
// a meta-summary of that problem alone would, since every problem sees
// the member's one fingerprint stream.
func TestMetaSummaryProblemsShareOneKeyPass(t *testing.T) {
	const d = 8
	rows := randomRows(d, 400, 6)
	n, _ := NewNet(d, 0.25)
	seeds := []uint64{7, 9, 11}
	var problems []Factory
	for _, seed := range seeds {
		problems = append(problems, kmvFactory(seed))
	}
	joint, err := NewMetaSummary(n, problems...)
	if err != nil {
		t.Fatal(err)
	}
	b := words.NewBatch(d, len(rows))
	for _, r := range rows {
		b.Append(r)
	}
	joint.ObservePacked(packed(t, b))
	total := 0
	for j, seed := range seeds {
		alone, err := NewMetaSummary(n, kmvFactory(seed))
		if err != nil {
			t.Fatal(err)
		}
		alone.ObservePacked(packed(t, b))
		want, _ := alone.MarshalSketches(0)
		got, err := joint.MarshalSketches(j)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("problem %d: sketches differ from a summary of that problem alone", j)
		}
		total += alone.SizeBytes()
	}
	if joint.SizeBytes() != total {
		t.Fatalf("SizeBytes = %d, want the problems' sum %d", joint.SizeBytes(), total)
	}
	if _, err := joint.Query(len(seeds), words.MustColumnSet(d, 0), 0); err == nil {
		t.Fatal("a query for a problem the summary lacks must error")
	}
	if _, err := NewMetaSummary(n); err == nil {
		t.Fatal("a meta-summary without a problem must be refused")
	}
}

func TestMetaSummaryEmptyNetRejected(t *testing.T) {
	// d=31 exceeds the enumeration limit.
	n := &Net{d: 31, alpha: 0.2, low: 5, high: 26}
	if _, err := NewMetaSummary(n, kmvFactory(1)); err == nil {
		t.Fatal("oversized dimension must error")
	}
}
