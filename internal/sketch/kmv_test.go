package sketch

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/wire"
)

// kmvReference is the map-and-sort KMV: the set of every distinct hash
// offered, of which a sketch retaining k keeps the k smallest.
type kmvReference map[uint64]struct{}

// retained returns the k smallest hashes of the set, ascending.
func (r kmvReference) retained(k int) []uint64 {
	vals := make([]uint64, 0, len(r))
	for v := range r {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	return vals[:min(k, len(vals))]
}

// marshal is the wire form of a KMV retaining r's k smallest hashes.
func (r kmvReference) marshal(k int, seed uint64) []byte {
	vals := r.retained(k)
	w := wire.NewWriter(0)
	w.U8(tagKMV)
	w.U32(uint32(k))
	w.U64(seed)
	w.U32(uint32(len(vals)))
	for _, v := range vals {
		w.U64(v)
	}
	return w.Bytes()
}

// estimate is Estimate read off the reference.
func (r kmvReference) estimate(k int) float64 {
	vals := r.retained(k)
	if len(vals) < k {
		return float64(len(vals))
	}
	return float64(k-1) / ((float64(vals[k-1]) + 1) / (1 << 63) / 2)
}

// kmvStream draws n hashes from a pool of the given size, so that a
// small pool repeats hashes, and mixes in the two extreme hashes 0 and
// 2⁶⁴−1 and small hashes, which all share their high bits.
func kmvStream(src *rng.Source, n, pool int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch x := src.Intn(pool + 3); {
		case x == pool:
			out[i] = 0
		case x == pool+1:
			out[i] = math.MaxUint64
		case x == pool+2:
			out[i] = uint64(src.Intn(64))
		default:
			out[i] = rng.Mix64(uint64(x))
		}
	}
	return out
}

// checkKMV fails unless s holds exactly the state the reference
// prescribes: the same bytes, the same size and the same estimate.
func checkKMV(t *testing.T, what string, s *KMV, ref kmvReference) {
	t.Helper()
	got, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.marshal(s.k, s.seed); !bytes.Equal(got, want) {
		t.Fatalf("%s: bytes differ from the map-and-sort reference\n got %x\nwant %x", what, got, want)
	}
	if s.SizeBytes() != len(got) {
		t.Fatalf("%s: SizeBytes %d, wire form %d bytes", what, s.SizeBytes(), len(got))
	}
	if got, want := s.Estimate(), ref.estimate(s.k); got != want {
		t.Fatalf("%s: estimate %v, reference %v", what, got, want)
	}
}

// TestKMVMatchesMapReference drives the flat KMV and the map-and-sort
// reference with the same streams — duplicates, the hashes 0 and
// 2⁶⁴−1, streams split over two sketches and merged, and sketches
// decoded mid-stream and fed on — and requires equal bytes throughout.
func TestKMVMatchesMapReference(t *testing.T) {
	src := rng.New(47)
	for _, k := range []int{2, 3, 5, 16, 17, 64, 403} {
		for _, pool := range []int{4, 40, 400, 40000} {
			stream := kmvStream(src, 3000, pool)
			cut := src.Intn(len(stream) + 1)

			whole, ref := NewKMV(k, 9), kmvReference{}
			for i, hv := range stream {
				whole.addHash(hv)
				ref[hv] = struct{}{}
				if i%97 == 0 || i == len(stream)-1 {
					checkKMV(t, "stream", whole, ref)
				}
			}

			a, b := NewKMV(k, 9), NewKMV(k, 9)
			for _, hv := range stream[:cut] {
				a.addHash(hv)
			}
			for _, hv := range stream[cut:] {
				b.addHash(hv)
			}
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			checkKMV(t, "merged halves", a, ref)

			half := NewKMV(k, 9)
			for _, hv := range stream[:cut] {
				half.addHash(hv)
			}
			blob, err := half.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var dec KMV
			if err := dec.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			for _, hv := range stream[cut:] {
				dec.addHash(hv)
			}
			checkKMV(t, "decoded and fed on", &dec, ref)
		}
	}
}

// TestKMVCloneIsIndependent checks that a clone holds the same state
// as its source and that feeding either one leaves the other alone.
func TestKMVCloneIsIndependent(t *testing.T) {
	src := rng.New(48)
	for _, k := range []int{2, 16, 403} {
		stream := kmvStream(src, 2000, 1000)
		s, ref := NewKMV(k, 3), kmvReference{}
		if c := s.Clone(); c.n != 0 {
			t.Fatalf("clone of an empty sketch holds %d hashes", c.n)
		}
		for _, hv := range stream[:1000] {
			s.addHash(hv)
			ref[hv] = struct{}{}
		}
		before, _ := s.MarshalBinary()
		c := s.Clone()
		checkKMV(t, "clone", c, ref)
		for _, hv := range stream[1000:] {
			s.addHash(hv)
		}
		if got, _ := c.MarshalBinary(); !bytes.Equal(got, before) {
			t.Fatalf("k=%d: feeding the source changed its clone", k)
		}
		after, _ := s.MarshalBinary()
		for _, hv := range stream[1000:] {
			c.addHash(hv)
			ref[hv] = struct{}{}
		}
		checkKMV(t, "clone fed on", c, ref)
		if got, _ := s.MarshalBinary(); !bytes.Equal(got, after) {
			t.Fatalf("k=%d: feeding the clone changed its source", k)
		}
	}
}

// TestKMVMergedSketchFeedsOn checks the state a merge rebuilds: a
// sketch that took the k smallest of two full sketches keeps matching
// the reference as it is fed on and merged into again, with the hashes
// 0 and 2⁶⁴−1 among the values.
func TestKMVMergedSketchFeedsOn(t *testing.T) {
	src := rng.New(53)
	for _, k := range []int{2, 3, 17, 403} {
		for _, pool := range []int{40, 4000} {
			stream := kmvStream(src, 4000, pool)
			ref := kmvReference{}
			m := NewKMV(k, 9)
			for part := range 4 {
				donor := NewKMV(k, 9)
				for _, hv := range stream[part*1000 : part*1000+700] {
					donor.addHash(hv)
					ref[hv] = struct{}{}
				}
				if err := m.Merge(donor); err != nil {
					t.Fatal(err)
				}
				checkKMV(t, "merged", m, ref)
				for _, hv := range stream[part*1000+700 : (part+1)*1000] {
					m.addHash(hv)
					ref[hv] = struct{}{}
				}
				checkKMV(t, "merged and fed on", m, ref)
			}
		}
	}
}

// TestSelectSmallest checks the merge's selection on sorted, reversed
// and shuffled inputs of every length up to 40 and every k below it.
func TestSelectSmallest(t *testing.T) {
	src := rng.New(59)
	for n := 1; n <= 40; n++ {
		for k := range n {
			for order := range 3 {
				a := make([]uint64, n)
				for i := range a {
					a[i] = uint64(10 * i)
				}
				switch order {
				case 1:
					slices.Reverse(a)
				case 2:
					for i := n - 1; i > 0; i-- {
						j := src.Intn(i + 1)
						a[i], a[j] = a[j], a[i]
					}
				}
				selectSmallest(a, k)
				low := slices.Clone(a[:k])
				slices.Sort(low)
				for i, v := range low {
					if v != uint64(10*i) {
						t.Fatalf("n=%d k=%d order %d: a[:k] = %v", n, k, order, a[:k])
					}
				}
			}
		}
	}
}
