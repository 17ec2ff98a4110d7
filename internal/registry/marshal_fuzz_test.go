package registry

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/words"
)

// fuzzSeedBlob builds a valid kind-6 container blob (exact catch-all,
// one sketch-backed and one exact subspace, a few rows) to seed the
// fuzzer with reachable structure.
func fuzzSeedBlob() []byte {
	full, err := core.NewExact(testDim, testQ)
	if err != nil {
		panic(err)
	}
	reg, err := New(full)
	if err != nil {
		panic(err)
	}
	hot := words.MustColumnSet(testDim, 0, 1)
	sub, err := core.NewRegistered(testDim, testQ, hot, core.RegisteredConfig{Seed: 9})
	if err != nil {
		panic(err)
	}
	if err := reg.RegisterSubspace(hot, sub); err != nil {
		panic(err)
	}
	exact, err := core.NewExact(testDim, testQ)
	if err != nil {
		panic(err)
	}
	if err := reg.RegisterSubspace(words.MustColumnSet(testDim, 2, 3), exact); err != nil {
		panic(err)
	}
	testRows(16, reg)
	blob, err := reg.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return blob
}

// FuzzUnmarshalRegistry is the container decoder's half of the
// project's wire-fuzzing convention: core's FuzzUnmarshalSummary
// cannot reach kind 6 (core does not import this package, so the
// decoder is never registered there), so the container's own bounds
// logic — counts, ascending columns, nested member blobs, row/shape
// cross-checks — is fuzzed here. Decoding must never panic; failures
// must be typed; successes must re-encode decodably.
func FuzzUnmarshalRegistry(f *testing.F) {
	seed := fuzzSeedBlob()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	for _, i := range []int{5, 16, 24, 36, 40, len(seed) - 1} {
		mut := append([]byte(nil), seed...)
		mut[i] ^= 0x41
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := core.UnmarshalSummary(data)
		if err != nil {
			if !errors.Is(err, core.ErrBadEncoding) &&
				!errors.Is(err, core.ErrInvalidParam) &&
				!errors.Is(err, core.ErrIncompatibleMerge) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		reg, ok := sum.(*Registry)
		if !ok {
			// A mutated blob may fall back to a plain summary kind;
			// core's own fuzzer owns those payloads.
			return
		}
		again, err := reg.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded registry does not re-encode: %v", err)
		}
		if _, err := core.UnmarshalSummary(again); err != nil {
			t.Fatalf("re-encoded registry does not decode: %v", err)
		}
	})
}
