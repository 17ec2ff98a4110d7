// Package freq computes exact projected frequency statistics: the
// frequency vector f(A, C) of Section 2, its moments F_p, heavy
// hitters, point frequencies, and exact ℓ_p sampling. It is the ground
// truth every approximate summary in the module is validated against,
// and it is also the "keep the entire input" Θ(nd) baseline discussed
// in Section 3.1.
package freq

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hashing"
	"repro/internal/rng"
	"repro/internal/words"
)

// Vector is a materialized frequency vector f(A, C): pattern → count.
// Patterns are stored by their compact byte key (words.AppendKey); the
// projected word is recoverable via words.KeyToWord.
//
// It is an open-addressing table probed by the key's 64-bit
// fingerprint (hashing.Fingerprint64). A fingerprint match is never
// trusted on its own: the key bytes, kept back to back in one arena,
// are compared on every match, so counts are exact whatever the hash
// does. Entries live in parallel slices in insertion order, which is
// the order every pass over the vector (F, HeavyHitters, Entries)
// visits them in — the same input gives the same floating-point sums
// on every run.
//
// All keys of one vector have one length, the 2·|C| bytes of its
// projection; adding a key of another length is a programming error
// and panics. A vector is not safe for concurrent mutation, but any
// number of goroutines may read one that is no longer written to.
type Vector struct {
	slots  []uint32 // entry index + 1, 0 = empty; len is a power of two ≥ 2·entries
	prints []uint64 // per entry: the key's fingerprint
	counts []int64  // per entry: f_i
	keys   []byte   // per entry: stride key bytes
	stride int      // key length, fixed by the first entry
	total  int64    // F_1 = n, invariant under C (as the paper notes)
}

// batchChunk is how many rows the key pipeline packs and keys at a
// time. A chunk's rows, keys and fingerprints should stay in the
// first-level cache between the stage that writes them and the stage
// that reads them: on 16-column rows 256 to 512 rows a chunk measured
// 21 ns a row, 4096 rows 27 and the whole table at once 46.
const batchChunk = 512

// NewVector returns an empty frequency vector.
func NewVector() *Vector { return &Vector{} }

// FromSource streams src and counts the projections of its rows onto
// c, producing f(A, C) without materializing A: it gathers at most
// batchChunk rows at a time and counts them as FromTable does. It
// panics if a row has a symbol outside the source's alphabet.
func FromSource(src words.RowSource, c words.ColumnSet) *Vector {
	v := NewVector()
	if src.Dim() < 1 {
		// No packing holds a row of no columns; each projects to the
		// empty key.
		if n := words.Drain(src, func(words.Word) {}); n > 0 {
			v.Add("", int64(n))
		}
		return v
	}
	var p pipeline
	pk := words.NewPacking(src.Dim(), src.Alphabet())
	chunk := words.NewBatch(src.Dim(), batchChunk)
	words.Drain(src, func(w words.Word) {
		if chunk.Append(w); chunk.Len() == batchChunk {
			p.addRows(v, pk, c, chunk)
			chunk.Reset()
		}
	})
	p.addRows(v, pk, c, chunk)
	return v
}

// FromTable counts the projections of a materialized table's rows onto
// c: it packs them batchChunk at a time in the table's own (d, q)
// layout, the one core.Exact keeps its rows in, and counts them as
// AddPacked does, so an exact summary's vector and the table's are
// built by one pipeline. It panics if a row has a symbol outside the
// table's alphabet.
func FromTable(t *words.Table, c words.ColumnSet) *Vector {
	if t.Dim() < 1 {
		return FromSource(t.Source(), c)
	}
	v := NewVector()
	var p pipeline
	p.addRows(v, words.NewPacking(t.Dim(), t.Alphabet()), c, t.Batch())
	return v
}

// probe walks key's probe sequence to the entry holding it, or to the
// empty slot where it would be seated (entry -1). fp must be the value
// the key was, or will be, inserted under; slots must not be empty.
func (v *Vector) probe(fp uint64, key []byte) (entry int, slot uint64) {
	mask := uint64(len(v.slots) - 1)
	for s := fp & mask; ; s = (s + 1) & mask {
		e := v.slots[s]
		if e == 0 {
			return -1, s
		}
		if i := int(e - 1); v.prints[i] == fp && string(v.key(i)) == string(key) {
			return i, s
		}
	}
}

// count returns the count of key, whose fingerprint is fp.
func (v *Vector) count(fp uint64, key []byte) int64 {
	if len(v.slots) == 0 || len(key) != v.stride {
		return 0
	}
	if i, _ := v.probe(fp, key); i >= 0 {
		return v.counts[i]
	}
	return 0
}

// add raises the count of key, whose fingerprint is fp, by n.
func (v *Vector) add(fp uint64, key []byte, n int64) {
	if len(v.counts) == 0 {
		v.stride = len(key)
	} else if len(key) != v.stride {
		panic(fmt.Sprintf("freq: %d-byte key added to a vector of %d-byte keys", len(key), v.stride))
	}
	if 2*(len(v.counts)+1) > len(v.slots) {
		v.grow()
	}
	v.total += n
	if i, slot := v.probe(fp, key); i >= 0 {
		v.counts[i] += n
	} else {
		v.prints = append(v.prints, fp)
		v.counts = append(v.counts, n)
		v.keys = append(v.keys, key...)
		v.slots[slot] = uint32(len(v.counts))
	}
}

// grow doubles the slot array and re-seats every entry by its stored
// fingerprint; entries are distinct, so no key is compared.
func (v *Vector) grow() {
	size := max(16, 2*len(v.slots))
	if uint64(size) > math.MaxUint32 {
		panic("freq: more than 2^31 distinct patterns")
	}
	v.slots = make([]uint32, size)
	mask := uint64(size - 1)
	for i, fp := range v.prints {
		s := fp & mask
		for v.slots[s] != 0 {
			s = (s + 1) & mask
		}
		v.slots[s] = uint32(i + 1)
	}
}

// key returns entry i's key bytes, aliasing the arena.
func (v *Vector) key(i int) []byte { return v.keys[i*v.stride : (i+1)*v.stride] }

// Add increments the count of the pattern with the given key.
func (v *Vector) Add(key string, count int64) {
	if count <= 0 {
		panic("freq: non-positive count")
	}
	k := []byte(key)
	v.add(hashing.Fingerprint64(k), k, count)
}

// AddPacked counts the projections onto c of every row of the runs,
// each holding whole rows in the packed layout pk, in order: the key
// pipeline every vector of rows is built by.
func (v *Vector) AddPacked(pk words.Packing, c words.ColumnSet, runs ...[]byte) {
	var p pipeline
	for _, run := range runs {
		p.addPacked(v, pk, c, run)
	}
}

// pipeline is the key pipeline's arenas, shared by a pass's chunks.
// Each chunk of at most batchChunk packed rows is projected into one
// key arena (words.Packing.AppendKeys, two little-endian bytes a
// projected symbol whatever the packing), the keys are fingerprinted
// in one pass (hashing.AppendFingerprints64), and each is counted, so
// only genuinely new patterns grow the vector.
type pipeline struct {
	packed words.PackedBatch // addRows' packed chunk
	keys   []byte
	prints []uint64
}

// addRows packs the rows of b in pk's layout, batchChunk at a time,
// and counts each chunk. It panics on a symbol outside pk's alphabet.
func (p *pipeline) addRows(v *Vector, pk words.Packing, c words.ColumnSet, b *words.Batch) {
	var chunk words.Batch
	for lo := 0; lo < b.Len(); lo += batchChunk {
		chunk.Bind(pk.Dim(), b.Symbols()[lo*pk.Dim():min(lo+batchChunk, b.Len())*pk.Dim()])
		if i := p.packed.Pack(pk, &chunk); i >= 0 {
			panic(fmt.Sprintf("freq: row %d symbol %d outside alphabet [%d]", lo+i/pk.Dim(), chunk.Symbols()[i], pk.Alphabet()))
		}
		p.addPacked(v, pk, c, p.packed.Rows())
	}
}

// addPacked counts run's packed rows, batchChunk at a time.
func (p *pipeline) addPacked(v *Vector, pk words.Packing, c words.ColumnSet, run []byte) {
	stride := 2 * c.Len()
	step := batchChunk * pk.Stride()
	for lo := 0; lo < len(run); lo += step {
		chunk := run[lo:min(lo+step, len(run))]
		p.keys = pk.AppendKeys(p.keys[:0], chunk, c)
		p.prints = hashing.AppendFingerprints64(p.prints[:0], p.keys, len(chunk)/pk.Stride(), stride)
		for i, fp := range p.prints {
			v.add(fp, p.keys[i*stride:(i+1)*stride], 1)
		}
	}
}

// Count returns f_{e(pattern)}: the frequency of the projected word
// with the given key.
func (v *Vector) Count(key string) int64 {
	k := []byte(key)
	return v.count(hashing.Fingerprint64(k), k)
}

// CountWord returns the frequency of the (already projected) word b.
func (v *Vector) CountWord(b words.Word) int64 {
	var buf [64]byte
	key := words.AppendKey(buf[:0], b, words.FullColumnSet(len(b)))
	return v.count(hashing.Fingerprint64(key), key)
}

// Total returns F_1 = Σ_i f_i = n.
func (v *Vector) Total() int64 { return v.total }

// Support returns F_0 = ‖f‖_0, the number of distinct patterns.
func (v *Vector) Support() int64 { return int64(len(v.counts)) }

// SizeBytes returns the memory the vector's entries occupy: slots,
// fingerprints, counts and key bytes.
func (v *Vector) SizeBytes() int {
	return 4*len(v.slots) + 8*len(v.prints) + 8*len(v.counts) + len(v.keys)
}

// F computes the frequency moment F_p = Σ_i f_i^p for any real p ≥ 0.
// F(0) counts distinct patterns; F(1) = n.
func (v *Vector) F(p float64) float64 {
	if p < 0 {
		panic("freq: negative moment order")
	}
	if p == 0 {
		return float64(len(v.counts))
	}
	var s float64
	for _, c := range v.counts {
		s += math.Pow(float64(c), p)
	}
	return s
}

// Norm returns ‖f‖_p = F_p^{1/p} for p > 0.
func (v *Vector) Norm(p float64) float64 {
	if p <= 0 {
		panic("freq: norm order must be positive")
	}
	return math.Pow(v.F(p), 1/p)
}

// HeavyHitter is a pattern together with its exact frequency and its
// heaviness ratio f_i / ‖f‖_p.
type HeavyHitter struct {
	Key   string
	Word  words.Word
	Count int64
	Ratio float64
}

// HeavyHitters returns all φ-ℓ_p heavy hitters: patterns with
// f_i ≥ φ‖f‖_p (Section 2.1), sorted by decreasing count with ties
// broken by key for determinism.
func (v *Vector) HeavyHitters(p, phi float64) []HeavyHitter {
	if phi <= 0 || phi > 1 {
		panic(fmt.Sprintf("freq: phi %v outside (0, 1]", phi))
	}
	norm := v.Norm(p)
	thresh := phi * norm
	var out []HeavyHitter
	for i, c := range v.counts {
		if float64(c) >= thresh {
			k := string(v.key(i))
			out = append(out, HeavyHitter{
				Key:   k,
				Word:  words.KeyToWord(k),
				Count: c,
				Ratio: float64(c) / norm,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Entries returns all (key, count) pairs sorted by key; used by tests
// and serialization.
func (v *Vector) Entries() []Entry {
	out := make([]Entry, len(v.counts))
	for i, c := range v.counts {
		out[i] = Entry{Key: string(v.key(i)), Count: c}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Entry is a single frequency vector coordinate.
type Entry struct {
	Key   string
	Count int64
}

// Sampler draws patterns i with probability f_i^p / F_p: an exact
// (offline) ℓ_p sampler over a materialized frequency vector. It is
// the oracle Bob queries in the Theorem 5.5 experiments; the theorem
// itself shows no small-space streaming equivalent exists for p ≠ 1.
type Sampler struct {
	keys []string
	cum  []float64
	fp   float64
}

// NewSampler prepares an exact ℓ_p sampler for the vector. p = 0
// samples uniformly over distinct patterns; p = 1 over rows.
func (v *Vector) NewSampler(p float64) *Sampler {
	entries := v.Entries()
	s := &Sampler{keys: make([]string, len(entries)), cum: make([]float64, len(entries))}
	running := 0.0
	for i, e := range entries {
		s.keys[i] = e.Key
		if p == 0 {
			running += 1
		} else {
			running += math.Pow(float64(e.Count), p)
		}
		s.cum[i] = running
	}
	s.fp = running
	return s
}

// Sample returns the key of a pattern drawn with probability
// f_i^p / F_p.
func (s *Sampler) Sample(r *rng.Source) string {
	if len(s.keys) == 0 {
		panic("freq: sampling from empty vector")
	}
	u := r.Float64() * s.fp
	i := sort.SearchFloat64s(s.cum, u)
	if i >= len(s.keys) {
		i = len(s.keys) - 1
	}
	return s.keys[i]
}

// Probability returns the exact sampling probability of the given key
// (0 if absent), so experiments can report the (1±ε′) estimate the
// problem definition in Section 2.1 demands.
func (s *Sampler) Probability(key string) float64 {
	i := sort.SearchStrings(s.keys, key)
	if i >= len(s.keys) || s.keys[i] != key {
		return 0
	}
	prev := 0.0
	if i > 0 {
		prev = s.cum[i-1]
	}
	return (s.cum[i] - prev) / s.fp
}
