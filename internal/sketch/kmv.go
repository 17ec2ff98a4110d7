package sketch

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"

	"repro/internal/hashing"
	"repro/internal/rng"
	"repro/internal/wire"
)

// KMV is the k-minimum-values distinct counter: it retains the k
// smallest distinct hash values seen and estimates F0 as
// (k-1) / u_(k) where u_(k) is the k-th smallest hash normalized to
// (0, 1). Standard error is about 1/sqrt(k-2), so k = O(1/ε²) gives a
// (1±ε) estimate — the contract Algorithm 1 requires of its
// β-approximate sketches.
//
// KMV is exact while fewer than k distinct items have been seen,
// merges by uniting value sets, and serializes to 8k + O(1) bytes.
// Its whole state is one []uint64 slab, so a Clone is one copy.
type KMV struct {
	k    int
	seed uint64
	h    hashing.Mixer
	// slab[:heapCap] is a max-heap of the n retained hashes (the
	// largest at slab[0]), and slab[heapCap:] is a linear-probing
	// membership table of them, a power of two at least 2·heapCap
	// long, whose slot for v starts at slotOf(v) >> shift. Every
	// uint64 is a valid hash, so the table cannot mark empty slots
	// with one of them: it keeps every hash but 0, marks empty slots
	// with 0, and zero records whether 0 is retained. The slab is
	// nil until the first hash and grows to heapCap = k.
	slab    []uint64
	n       int
	heapCap int
	shift   uint8
	zero    bool
}

// kmvMinCap is the heap capacity a KMV's first hash allocates; the
// heap doubles from there up to k.
const kmvMinCap = 16

// kmvSalt keys the membership table's slot function for this process,
// so a crafted blob of hashes cannot pile them into one probe run. The
// table's layout is never observable: the wire form is the sorted
// value set, and Merge reads the donor's heap.
var kmvSalt = rand.Uint64()

// slotOf spreads v over the table's bits; the table's slot for v is
// slotOf(v) >> shift. The retained hashes are the smallest seen, so
// their high bits are all zero and must not index the table directly.
func slotOf(v uint64) uint64 { return rng.Mix64(v ^ kmvSalt) }

// NewKMV returns a KMV sketch retaining k minima; k must be at least 2.
func NewKMV(k int, seed uint64) *KMV {
	if k < 2 {
		panic("sketch: KMV requires k >= 2")
	}
	return &KMV{k: k, seed: seed, h: hashing.NewMixer(seed)}
}

// KMVForEpsilon returns a KMV sized for standard error ε.
func KMVForEpsilon(eps float64, seed uint64) *KMV {
	if !(eps > 0 && eps < 1) {
		panic("sketch: epsilon outside (0,1)")
	}
	k := int(1.0/(eps*eps)) + 3
	return NewKMV(k, seed)
}

// K returns the retention parameter k.
func (s *KMV) K() int { return s.k }

// Seed returns the hash seed; merges require equal seeds.
func (s *KMV) Seed() uint64 { return s.seed }

// Add observes an item.
func (s *KMV) Add(item uint64) {
	s.addHash(s.h.Hash(item))
}

// AddBatch observes every item of items in order, equivalent to
// calling Add per item. Items are raw fingerprints (the sketch's own
// mixer is applied internally), so the batched key pipeline can feed
// precomputed Fingerprint64 streams without changing sketch state.
func (s *KMV) AddBatch(items []uint64) {
	for _, item := range items {
		s.addHash(s.h.Hash(item))
	}
}

// addHash retains hv if it is among the k smallest distinct hashes
// seen. A full sketch compares hv with its largest hash before it
// probes the table: almost every hash of a long stream is rejected
// there.
func (s *KMV) addHash(hv uint64) {
	if s.n == s.k {
		if hv >= s.slab[0] || s.has(hv) {
			return
		}
		s.unmark(s.slab[0])
		s.mark(hv)
		s.slab[0] = hv
		s.siftDown(0)
		return
	}
	if s.has(hv) {
		return
	}
	if s.n == s.heapCap {
		s.grow(s.n + 1)
	}
	s.mark(hv)
	s.slab[s.n] = hv
	s.n++
	s.siftUp()
}

// grow moves the state into a slab whose heap holds at least need
// hashes: twice the old capacity, at least kmvMinCap, at most k.
func (s *KMV) grow(need int) {
	c := min(s.k, max(need, 2*s.heapCap, kmvMinCap))
	size := 1 << bits.Len(uint(2*c-1)) // the power of two ≥ 2c
	slab := make([]uint64, c+size)
	copy(slab, s.slab[:s.n])
	s.slab, s.heapCap, s.shift = slab, c, uint8(65-bits.Len(uint(size)))
	for _, v := range slab[:s.n] {
		s.mark(v)
	}
}

// has reports whether hv is retained.
func (s *KMV) has(hv uint64) bool {
	if s.n == 0 {
		return false
	}
	if hv == 0 {
		return s.zero
	}
	t := s.slab[s.heapCap:]
	mask := uint64(len(t) - 1)
	for i := slotOf(hv) >> s.shift; ; i = (i + 1) & mask {
		switch t[i] {
		case hv:
			return true
		case 0:
			return false
		}
	}
}

// mark enters hv, which is not retained, in the membership table.
func (s *KMV) mark(hv uint64) {
	if hv == 0 {
		s.zero = true
		return
	}
	t := s.slab[s.heapCap:]
	mask := uint64(len(t) - 1)
	i := slotOf(hv) >> s.shift
	for t[i] != 0 {
		i = (i + 1) & mask
	}
	t[i] = hv
}

// unmark removes the retained hv from the membership table, shifting
// each later entry of its probe run back into the hole unless that
// would move the entry before its own home slot. hv is the maximum of
// a full heap of k ≥ 2 distinct hashes, so it is never 0.
func (s *KMV) unmark(hv uint64) {
	t := s.slab[s.heapCap:]
	mask := uint64(len(t) - 1)
	i := slotOf(hv) >> s.shift
	for t[i] != hv {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t[j] != 0; j = (j + 1) & mask {
		if home := slotOf(t[j]) >> s.shift; (j-home)&mask >= (j-i)&mask {
			t[i] = t[j]
			i = j
		}
	}
	t[i] = 0
}

// siftUp restores the heap after a hash was appended at slab[n-1].
func (s *KMV) siftUp() {
	h := s.slab
	i := s.n - 1
	v := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= v {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = v
}

// siftDown restores the heap below slab[i] after slab[i] was replaced.
func (s *KMV) siftDown(i int) {
	h := s.slab[:s.n]
	v := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if v >= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
}

// Estimate returns the approximate number of distinct items observed.
func (s *KMV) Estimate() float64 {
	if s.n < s.k {
		return float64(s.n) // exact below saturation
	}
	// Normalize the k-th minimum to (0, 1): u = (max+1) / 2^64.
	u := (float64(s.slab[0]) + 1) / (1 << 63) / 2
	return float64(s.k-1) / u
}

// Merge unions another KMV into s. Both must share k and seed.
//
// Only the donor's hashes that s does not hold, and that lie below a
// full s's maximum, can change s; they are collected into a buffer
// pooled across merges. If they fit beside s's hashes they are added.
// Otherwise the k smallest of both are selected in one pass and the
// heap and table are rebuilt once, instead of inserting each donor
// hash over the maximum only for a smaller one to evict it again. The
// retained set is the k smallest of the union either way.
func (s *KMV) Merge(o *KMV) error {
	if o.k != s.k || o.seed != s.seed {
		return fmt.Errorf("%w: KMV k/seed mismatch", ErrIncompatible)
	}
	buf := mergeBufs.Get().(*[]uint64)
	defer mergeBufs.Put(buf)
	fresh := (*buf)[:0]
	for _, hv := range o.slab[:o.n] {
		if (s.n < s.k || hv < s.slab[0]) && !s.has(hv) {
			fresh = append(fresh, hv)
		}
	}
	if s.n+len(fresh) <= s.k {
		for _, hv := range fresh {
			s.addHash(hv)
		}
		*buf = fresh
		return nil
	}
	all := append(fresh, s.slab[:s.n]...)
	selectSmallest(all, s.k)
	s.refill(all[:s.k])
	*buf = all
	return nil
}

// refill replaces the retained hashes by vals, k distinct hashes:
// heap and membership table are rebuilt from scratch.
func (s *KMV) refill(vals []uint64) {
	if s.heapCap < len(vals) {
		s.grow(len(vals))
	}
	clear(s.slab[s.heapCap:])
	s.zero = false
	s.n = copy(s.slab, vals)
	for i := s.n/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	for _, v := range s.slab[:s.n] {
		s.mark(v)
	}
}

// selectSmallest reorders a, whose values are distinct, so that a[:k]
// holds its k smallest values (in no particular order).
func selectSmallest(a []uint64, k int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Median of three as the pivot, then a Hoare partition.
		m := lo + (hi-lo)/2
		if a[m] < a[lo] {
			a[m], a[lo] = a[lo], a[m]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[m] {
			a[hi], a[m] = a[m], a[hi]
		}
		p := a[m]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i, j = i+1, j-1
			}
		}
		// a[lo:j+1] ≤ p ≤ a[i:hi+1]; a[j+1:i], if any, equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// mergeBufs holds the buffers Merge collects a donor's hashes in.
var mergeBufs = sync.Pool{New: func() any { return new([]uint64) }}

// Clone returns an independent copy of s: the same retained hashes,
// with no state shared.
func (s *KMV) Clone() *KMV {
	c := *s
	c.slab = slices.Clone(s.slab)
	return &c
}

// SizeBytes returns the serialized size.
func (s *KMV) SizeBytes() int { return 1 + 4 + 8 + 4 + 8*s.n }

// MarshalBinary encodes the sketch.
func (s *KMV) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(s.SizeBytes())
	w.U8(tagKMV)
	w.U32(uint32(s.k))
	w.U64(s.seed)
	w.U32(uint32(s.n))
	sorted := slices.Clone(s.slab[:s.n])
	slices.Sort(sorted)
	for _, v := range sorted {
		w.U64(v)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a sketch produced by MarshalBinary,
// replacing the receiver's state. Allocation is bounded by the stored
// value count, which must exactly fill the input.
func (s *KMV) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data, ErrCorrupt)
	if r.U8() != tagKMV {
		return fmt.Errorf("%w: not a KMV sketch", ErrCorrupt)
	}
	k := int(r.U32())
	seed := r.U64()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if k < 2 || n > k || r.Remaining() != 8*n {
		return fmt.Errorf("%w: KMV header k=%d n=%d", ErrCorrupt, k, n)
	}
	tmp := NewKMV(k, seed)
	if n > 0 {
		tmp.grow(n)
	}
	for i := 0; i < n; i++ {
		tmp.addHash(r.U64())
	}
	if err := r.Done(); err != nil {
		return err
	}
	*s = *tmp
	return nil
}
