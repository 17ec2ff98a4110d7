package freq

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/hashing"
	"repro/internal/rng"
	"repro/internal/words"
)

// mapVector is the reference the table-backed Vector is held against:
// the string-keyed map the package used to be built on, plus the order
// keys first appeared in (the order Vector promises to sum in).
type mapVector struct {
	counts map[string]int64
	order  []string
}

func newMapVector() *mapVector { return &mapVector{counts: map[string]int64{}} }

func (m *mapVector) add(key string, n int64) {
	if _, seen := m.counts[key]; !seen {
		m.order = append(m.order, key)
	}
	m.counts[key] += n
}

func (m *mapVector) f(p float64) float64 {
	if p == 0 {
		return float64(len(m.counts))
	}
	var s float64
	for _, k := range m.order {
		s += math.Pow(float64(m.counts[k]), p)
	}
	return s
}

// heavy returns the keys with count ≥ φ·‖f‖_p, by count descending
// and key ascending.
func (m *mapVector) heavy(p, phi float64) []string {
	thresh := phi * math.Pow(m.f(p), 1/p)
	var keys []string
	for _, k := range m.order {
		if float64(m.counts[k]) >= thresh {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if ci, cj := m.counts[keys[i]], m.counts[keys[j]]; ci != cj {
			return ci > cj
		}
		return keys[i] < keys[j]
	})
	return keys
}

// checkAgainst compares everything a Vector reports with the reference.
func checkAgainst(t *testing.T, v *Vector, ref *mapVector) {
	t.Helper()
	if got, want := v.Support(), int64(len(ref.counts)); got != want {
		t.Fatalf("support %d, want %d", got, want)
	}
	var total int64
	for k, n := range ref.counts {
		total += n
		if got := v.Count(k); got != n {
			t.Fatalf("count of %q is %d, want %d", k, got, n)
		}
	}
	if v.Total() != total {
		t.Fatalf("total %d, want %d", v.Total(), total)
	}
	for _, p := range []float64{0, 0.5, 1, 2} {
		if got, want := v.F(p), ref.f(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("F(%v) = %v, want %v (summed in insertion order)", p, got, want)
		}
	}
	entries := v.Entries()
	if len(entries) != len(ref.counts) {
		t.Fatalf("%d entries, want %d", len(entries), len(ref.counts))
	}
	for i, e := range entries {
		if ref.counts[e.Key] != e.Count || (i > 0 && entries[i-1].Key >= e.Key) {
			t.Fatalf("entry %d is %v after %v; reference count %d", i, e, entries[max(i-1, 0)], ref.counts[e.Key])
		}
	}
	if len(ref.counts) == 0 {
		return
	}
	for _, tc := range []struct{ p, phi float64 }{{1, 0.05}, {2, 0.3}, {0.5, 0.01}, {1, 1}} {
		hits, want := v.HeavyHitters(tc.p, tc.phi), ref.heavy(tc.p, tc.phi)
		if len(hits) != len(want) {
			t.Fatalf("p=%v φ=%v: %d heavy hitters, want %d", tc.p, tc.phi, len(hits), len(want))
		}
		for i, h := range hits {
			if h.Key != want[i] || h.Count != ref.counts[want[i]] || !h.Word.Equal(words.KeyToWord(want[i])) {
				t.Fatalf("p=%v φ=%v: hitter %d is %q×%d, want %q×%d", tc.p, tc.phi, i, h.Key, h.Count, want[i], ref.counts[want[i]])
			}
		}
	}
}

// FuzzVectorMatchesMap builds f(A, C) for a fuzzed table and column
// set three ways — the batched table path, the row-at-a-time source
// path, and Add of pre-aggregated keys — and holds each against the
// map reference. Few symbols and few columns make ties and repeated
// patterns the common case; an empty C is in the seeds.
func FuzzVectorMatchesMap(f *testing.F) {
	f.Add([]byte{}, uint8(0b101), uint8(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, uint8(0), uint8(3))
	f.Add(bytes.Repeat([]byte{7, 1, 7, 2, 9, 9, 4}, 400), uint8(0b111111), uint8(4))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 6}, 700), uint8(0b011010), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mask, qRaw uint8) {
		const d = 6
		q := 2 + int(qRaw%5)
		c, err := words.ColumnSetFromMask(uint64(mask)&(1<<d-1), d)
		if err != nil {
			t.Fatal(err)
		}
		tb := words.NewTable(d, q)
		ref := newMapVector()
		row := make(words.Word, d)
		for ; len(data) >= d; data = data[d:] {
			for j := range row {
				row[j] = uint16(int(data[j]) % q)
			}
			tb.Append(row)
			ref.add(string(words.AppendKey(nil, row, c)), 1)
		}
		checkAgainst(t, FromTable(tb, c), ref)
		checkAgainst(t, FromSource(tb.Source(), c), ref)
		proj := words.KeyToWord(string(words.AppendKey(nil, row, c)))
		for _, b := range []words.Word{proj, make(words.Word, c.Len())} {
			key := words.AppendKey(nil, b, words.FullColumnSet(len(b)))
			if got, want := FromTable(tb, c).CountWord(b), ref.counts[string(key)]; got != want {
				t.Fatalf("CountWord(%v) = %d, want %d", b, got, want)
			}
		}
		added := NewVector()
		for _, k := range ref.order {
			added.Add(k, ref.counts[k])
		}
		checkAgainst(t, added, ref)
	})
}

// TestVectorSurvivesFingerprintCollisions inserts every key under one
// and the same fingerprint: the table degenerates to a single probe
// chain, and only the key comparison keeps the counts apart.
func TestVectorSurvivesFingerprintCollisions(t *testing.T) {
	const fp = 42
	src := rng.New(9)
	v, ref := NewVector(), newMapVector()
	for i := 0; i < 3000; i++ {
		key := []byte{byte(src.Intn(12)), byte(src.Intn(12)), 0, 0}
		n := int64(1 + src.Intn(3))
		v.add(fp, key, n)
		ref.add(string(key), n)
	}
	for k, n := range ref.counts {
		if got := v.count(fp, []byte(k)); got != n {
			t.Fatalf("key %q: count %d, want %d", k, got, n)
		}
	}
	if v.count(fp, []byte{200, 0, 0, 0}) != 0 || v.count(fp, []byte{1, 1}) != 0 {
		t.Fatal("found a key that was never added")
	}
	// Everything that iterates the entries is fingerprint-agnostic.
	if v.Support() != int64(len(ref.counts)) || v.F(2) != ref.f(2) {
		t.Fatalf("support %d F2 %v, want %d %v", v.Support(), v.F(2), len(ref.counts), ref.f(2))
	}
	hits, want := v.HeavyHitters(1, 0.01), ref.heavy(1, 0.01)
	if len(hits) != len(want) {
		t.Fatalf("%d heavy hitters, want %d", len(hits), len(want))
	}
	for i, h := range hits {
		if h.Key != want[i] {
			t.Fatalf("hitter %d is %q, want %q", i, h.Key, want[i])
		}
	}
}

// TestVectorCollidingRealFingerprints checks the same thing through
// the exported surface for two keys that share their low fingerprint
// bits and so contend for one slot of a small table.
func TestVectorCollidingRealFingerprints(t *testing.T) {
	first := []byte{0, 0}
	want := hashing.Fingerprint64(first) & 15
	for x := 1; x < 1<<16; x++ {
		second := []byte{byte(x), byte(x >> 8)}
		if hashing.Fingerprint64(second)&15 != want {
			continue
		}
		v := NewVector()
		v.Add(string(first), 3)
		v.Add(string(second), 5)
		v.Add(string(first), 1)
		if v.Count(string(first)) != 4 || v.Count(string(second)) != 5 || v.Support() != 2 {
			t.Fatalf("counts %d %d support %d", v.Count(string(first)), v.Count(string(second)), v.Support())
		}
		return
	}
	t.Fatal("no two-byte key shares a slot with the zero key")
}

func TestVectorRejectsMixedKeyLengths(t *testing.T) {
	v := NewVector()
	v.Add("ab", 1)
	if v.Count("abc") != 0 {
		t.Fatal("a key of another length cannot be present")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for a key of another length")
		}
	}()
	v.Add("abc", 1)
}

// BenchmarkFromTable is the cold half of an exact query: one pass over
// 2^17 retained 16-column rows drawn from 4096 Zipf patterns.
func BenchmarkFromTable(b *testing.B) {
	src := rng.New(1)
	catalog := make([]words.Word, 4096)
	for i := range catalog {
		catalog[i] = make(words.Word, 16)
		for j := range catalog[i] {
			catalog[i][j] = uint16(src.Intn(4))
		}
	}
	zipf := rng.NewZipf(src, len(catalog), 1.1)
	tb := words.NewTable(16, 4)
	for i := 0; i < 1<<17; i++ {
		tb.Append(catalog[zipf.Next()])
	}
	for _, cols := range [][]int{{0, 5}, {1, 3, 7, 9}, {0, 2, 4, 6, 8, 10}} {
		c := words.MustColumnSet(16, cols...)
		b.Run(c.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if FromTable(tb, c).Total() != 1<<17 {
					b.Fatal("lost rows")
				}
			}
		})
	}
}
