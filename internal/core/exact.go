package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/freq"
	"repro/internal/rng"
	"repro/internal/words"
)

// Exact is the naïve baseline of Section 3.1: it retains the entire
// input in Θ(nd) space and answers every query class exactly. It is
// both a usable summary (for small data) and the ground truth the
// experiment drivers validate approximate summaries against.
//
// Every query about a column set C is answered from the projected
// frequency vector f(A, C), and building that vector — one pass over
// the retained rows — is the whole cost of a query. Vector therefore
// memoizes it per C: the first question about a C pays the pass, the
// later ones (another kind, another pattern, another φ) read the same
// vector. Mutation (Observe, ObserveBatch, Merge) drops the memo; it
// is never serialized and never counted in SizeBytes.
//
// Queries may run concurrently with each other. Mutation needs
// exclusive access, as for every summary — which is why the mutators
// drop the memo with a plain store and take no lock.
//
// The rows are stored packed, at ⌈log₂Q⌉ bits a symbol in whole bytes
// a row (words.Packing), as an ordered list of runs of at most
// runBytes each. A full run is left as it is and the next rows start a
// new one, so no run is ever regrown. Merge adopts
// the donor's runs by reference instead of copying them: an exact
// summary never rewrites a row, so a merged snapshot can share every
// row the donors had written. Only the last run may be the summary's
// own tail with room to spare; every other run is sealed
// (len == cap), so the receiver never writes into a donor's array,
// while a donor's own appends land past the length the receiver
// shares — and, rows being byte-aligned, in bytes the receiver never
// reads. A donor may therefore keep ingesting while the merged summary
// is read.
type Exact struct {
	d, q int
	pk   words.Packing
	runs [][]byte // packed runs in row order
	own  bool     // the last run is this summary's own tail
	n    int      // rows retained across all runs

	packBuf words.PackedBatch // ObserveBatch's packed copy of its batch

	mu   sync.Mutex  // guards memo and everything in it but the vectors
	memo *vectorMemo // nil until the first Vector call after a mutation
}

// maxMemoSets bounds how many column sets' vectors an Exact keeps. The
// memo is also bounded in bytes, by memoBudget.
const maxMemoSets = 64

// runBytes is the capacity of the runs ObserveBatch allocates, rounded
// down to whole rows (and at least one): 32,768 rows at d = 16, q = 4.
// Timed on the exact-coldquery workload at 8, 32, 128 and 512 KiB,
// ingest and ack differed by less than run-to-run noise; 128 KiB read
// the lower ack of the two middle sizes in both rounds, keeps an epoch
// cut's list of shared runs 4× shorter than 32 KiB, and holds a small
// summary's spare room to 128 KiB.
const runBytes = 128 << 10

// vectorMemo holds the memoized vectors, oldest first.
type vectorMemo struct {
	entries []*memoEntry
	bytes   int // total size of the resident, built vectors
	stats   MemoStats
}

// memoEntry is one column set's vector. once makes concurrent askers
// of one C build it once while other column sets build in parallel.
type memoEntry struct {
	key   string // the column set's canonical key
	once  sync.Once
	vec   *freq.Vector
	bytes int // vec.SizeBytes() once built and accounted, 0 before
}

// MemoStats counts what the vector memo did since the summary was last
// mutated: it shows whether queries are slow because every column set
// is new (builds, build time) or fast because they repeat (hits).
type MemoStats struct {
	// Hits counts Vector calls answered by an already requested vector.
	Hits int64
	// Builds counts passes over the retained rows.
	Builds int64
	// Evictions counts vectors dropped to stay within the bounds.
	Evictions int64
	// BuildTime is the total time spent in those passes.
	BuildTime time.Duration
}

// MemoStats returns the memo's counters.
func (e *Exact) MemoStats() MemoStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.memo == nil {
		return MemoStats{}
	}
	return e.memo.stats
}

// evictOldest drops the oldest entry. A caller still holding it (it
// may not even be built yet) keeps a valid vector; it is just no
// longer found.
func (m *vectorMemo) evictOldest() {
	m.bytes -= m.entries[0].bytes
	m.entries[0] = nil
	m.entries = m.entries[1:]
	m.stats.Evictions++
}

// NewExact returns an exact summary for d columns over alphabet [q].
// Degenerate shapes (d < 1, q < 2 or beyond words.MaxAlphabet) are
// rejected with an error wrapping ErrInvalidParam, matching the other
// summary constructors.
func NewExact(d, q int) (*Exact, error) {
	if err := validateRowShape("exact", d, q); err != nil {
		return nil, err
	}
	return &Exact{d: d, q: q, pk: words.NewPacking(d, q)}, nil
}

// Observe appends a copy of the row.
func (e *Exact) Observe(w words.Word) {
	e.ObserveBatch(words.RowBatch(w))
}

// ObserveBatch packs the batch in the summary's layout and appends it
// (words.ObserveU16).
func (e *Exact) ObserveBatch(b *words.Batch) {
	words.ObserveU16(e, &e.packBuf, e.pk, b, "core: exact summary")
}

// ObservePacked appends the batch's rows to the summary's own tail
// run, starting a run of runBytes whenever the tail is full or not its
// own: a copy of the batch's bytes, which are already in the
// summary's layout. It panics if b's layout is not the summary's.
func (e *Exact) ObservePacked(b *words.PackedBatch) {
	if b.Packing() != e.pk {
		panic("core: packed batch layout differs from the exact summary's")
	}
	e.memo = nil
	s := e.pk.Stride()
	for rows := b.Rows(); len(rows) > 0; {
		last := len(e.runs) - 1
		if !e.own || cap(e.runs[last])-len(e.runs[last]) < s {
			e.runs = append(e.runs, make([]byte, 0, max(1, runBytes/s)*s))
			e.own, last = true, last+1
		}
		tail := e.runs[last]
		k := min(len(rows), (cap(tail)-len(tail))/s*s)
		e.runs[last] = append(tail, rows[:k]...)
		e.n += k / s
		rows = rows[k:]
	}
}

// Dim returns d.
func (e *Exact) Dim() int { return e.d }

// Alphabet returns Q.
func (e *Exact) Alphabet() int { return e.q }

// Rows returns n.
func (e *Exact) Rows() int64 { return int64(e.n) }

// SizeBytes returns the Θ(nd log Q) storage cost: n packed rows.
func (e *Exact) SizeBytes() int { return e.n * e.pk.Stride() }

// memoBudget bounds the bytes of the memoized vectors: the size of the
// rows as a words.Table holds them, two bytes a symbol. It does not
// follow the packed SizeBytes down, which would evict vectors 8 times
// sooner at Q = 4 while answering nothing differently.
func (e *Exact) memoBudget() int { return 2 * e.n * e.d }

// Name identifies the summary.
func (e *Exact) Name() string { return "exact" }

// Table returns a freshly built copy of the retained rows, in row
// order, for experiment drivers that replay them. It costs Θ(nd) per
// call, and the copy shares no storage with the summary.
func (e *Exact) Table() *words.Table {
	syms := make([]uint16, e.n*e.d)
	off := 0
	for _, r := range e.runs {
		k := len(r) / e.pk.Stride() * e.d
		e.pk.Unpack(syms[off:off+k], r)
		off += k
	}
	t := words.NewTable(e.d, e.q)
	t.AppendBatch(words.BatchOf(e.d, syms))
	return t
}

// Merge implements Mergeable: it appends every row retained by the
// other exact summary, so the result is exactly the summary of the
// concatenated streams. The donor's rows are not copied: the receiver
// adopts each of the donor's runs, capped to its length, by reference.
// Its own tail is closed for good, so a part-filled one is first
// replaced by a copy of its rows, at most one run: its spare room is
// not kept allocated under the donor's rows. The peer is left intact
// and may keep observing rows afterwards.
func (e *Exact) Merge(other Summary) error {
	o, ok := other.(*Exact)
	if !ok {
		return mergeErr("cannot merge %s with %T", e.Name(), other)
	}
	if o == e {
		return errSelfMerge
	}
	if o.Dim() != e.Dim() || o.Alphabet() != e.Alphabet() {
		return mergeErr("shape mismatch: %d cols/[%d] vs %d cols/[%d]",
			e.Dim(), e.Alphabet(), o.Dim(), o.Alphabet())
	}
	e.memo = nil
	if o.n == 0 {
		return nil
	}
	if e.own {
		last := len(e.runs) - 1
		if t := e.runs[last]; len(t) < cap(t) {
			e.runs[last] = bytes.Clone(t)
		}
		e.runs[last] = sealed(e.runs[last])
		e.own = false
	}
	e.runs = slices.Grow(e.runs, len(o.runs))
	for _, r := range o.runs {
		e.runs = append(e.runs, sealed(r))
	}
	e.n += o.n
	return nil
}

// sealed caps a run to its length, so no append can write into it.
func sealed(r []byte) []byte { return r[:len(r):len(r)] }

// Vector returns the exact frequency vector f(A, C), memoized per
// column set. The vector is shared with every other caller asking
// about c and must be treated as read-only. It panics if c is not a
// column set over the summary's d columns, as projecting a row onto it
// would.
func (e *Exact) Vector(c words.ColumnSet) *freq.Vector {
	if c.Dim() != e.Dim() {
		panic(fmt.Sprintf("core: column set over [%d] applied to a summary of dimension %d", c.Dim(), e.Dim()))
	}
	var kb [64]byte
	key := c.AppendCanonicalKey(kb[:0])
	e.mu.Lock()
	if e.memo == nil {
		e.memo = &vectorMemo{}
	}
	m := e.memo
	var ent *memoEntry
	for _, x := range m.entries {
		if x.key == string(key) {
			ent = x
			break
		}
	}
	if ent != nil {
		m.stats.Hits++
	} else {
		if len(m.entries) == maxMemoSets {
			m.evictOldest()
		}
		ent = &memoEntry{key: string(key)}
		m.entries = append(m.entries, ent)
	}
	e.mu.Unlock()

	ent.once.Do(func() {
		start := time.Now()
		ent.vec = freq.NewVector()
		ent.vec.AddPacked(e.pk, c, e.runs...)
		e.mu.Lock()
		defer e.mu.Unlock()
		m.stats.Builds++
		m.stats.BuildTime += time.Since(start)
		if !slices.Contains(m.entries, ent) {
			return // evicted while building
		}
		ent.bytes = ent.vec.SizeBytes()
		m.bytes += ent.bytes
		for m.bytes > e.memoBudget() {
			m.evictOldest()
		}
	})
	return ent.vec
}

// F0 returns the exact number of distinct projected patterns.
func (e *Exact) F0(c words.ColumnSet) (float64, error) {
	if err := validateQuery(e, c); err != nil {
		return 0, err
	}
	return float64(e.Vector(c).Support()), nil
}

// Fp returns the exact moment F_p(A, C).
func (e *Exact) Fp(c words.ColumnSet, p float64) (float64, error) {
	if err := validateQuery(e, c); err != nil {
		return 0, err
	}
	if p < 0 {
		return 0, errNegativeP(p)
	}
	return e.Vector(c).F(p), nil
}

// Frequency returns the exact frequency of pattern b on projection C.
func (e *Exact) Frequency(c words.ColumnSet, b words.Word) (float64, error) {
	if err := validateQuery(e, c); err != nil {
		return 0, err
	}
	if err := validatePattern(c, b, e.Alphabet()); err != nil {
		return 0, err
	}
	return float64(e.Vector(c).CountWord(b)), nil
}

// HeavyHitters returns the exact φ-ℓp heavy hitters.
func (e *Exact) HeavyHitters(c words.ColumnSet, p, phi float64) ([]HeavyHitter, error) {
	if err := validateQuery(e, c); err != nil {
		return nil, err
	}
	if p <= 0 {
		return nil, errNonPositiveP(p)
	}
	hits := e.Vector(c).HeavyHitters(p, phi)
	out := make([]HeavyHitter, len(hits))
	for i, h := range hits {
		out[i] = HeavyHitter{Pattern: h.Word, Estimate: float64(h.Count)}
	}
	return out, nil
}

// SampleLp draws a projected pattern with probability exactly
// f_i^p / F_p. With Θ(nd) space the exact sampler is realizable; for
// p ≠ 1 Theorem 5.5 shows this cannot be compressed.
func (e *Exact) SampleLp(c words.ColumnSet, p float64, r *rng.Source) (LpSample, error) {
	if err := validateQuery(e, c); err != nil {
		return LpSample{}, err
	}
	if p < 0 || math.IsNaN(p) {
		return LpSample{}, errNegativeP(p)
	}
	v := e.Vector(c)
	if v.Total() == 0 {
		return LpSample{}, errEmptyData
	}
	s := v.NewSampler(p)
	key := s.Sample(r)
	return LpSample{
		Pattern:     words.KeyToWord(key),
		Probability: s.Probability(key),
	}, nil
}
