package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/internal/words"
)

// The testdata blobs were written by the encoder that kept a KHLL per
// registered set beside its KMV: RegisteredConfig{Epsilon: 0.5,
// Seed: 42} over d = 6, q = 3 with the KHLL at its defaults (512
// values, precision 8), after the same 40 rows. registered-khll-1set
// holds the set {0,2}; registered-khll-2sets holds {0,2} and {1,3}.
const (
	earlierOneSetBlob  = "registered-khll-1set.bin"
	earlierTwoSetsBlob = "registered-khll-2sets.bin"
	// earlierF0 is what that encoder's summary answered for {0,2}.
	earlierF0 = 0x1.188d9c6cb56cdp+03
)

func readEarlierBlob(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// registeredPayload reads a registered payload's fixed fields, its KMV
// block and the payload offset just past it.
func registeredPayload(t *testing.T, blob []byte) (khllValues, khllPrecision, count uint32, mask uint64, kmv []byte, end int) {
	t.Helper()
	r := wire.NewReader(blob[envelopeSize:], ErrBadEncoding)
	r.F64()
	khllValues, khllPrecision, count = r.U32(), r.U32(), r.U32()
	mask = r.U64()
	kmv = r.Block()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return khllValues, khllPrecision, count, mask, kmv, len(blob) - r.Remaining()
}

// TestRegisteredReadsEarlierLayout: a one-set blob an earlier encoder
// wrote, KHLL block included, still decodes to the same F0 state, and
// re-encodes as the same envelope and KMV block without the KHLL.
func TestRegisteredReadsEarlierLayout(t *testing.T) {
	old := readEarlierBlob(t, earlierOneSetBlob)
	s, err := UnmarshalSummary(old)
	if err != nil {
		t.Fatal(err)
	}
	reg, ok := s.(*Registered)
	if !ok {
		t.Fatalf("decoded %T", s)
	}
	c := words.MustColumnSet(6, 0, 2)
	if f0, err := reg.F0(c); err != nil || f0 != earlierF0 || reg.Rows() != 40 {
		t.Fatalf("F0 %v (%v), rows %d; want %v over 40 rows", f0, err, reg.Rows(), earlierF0)
	}
	blob, err := MarshalSummary(reg)
	if err != nil {
		t.Fatal(err)
	}
	// The envelope differs only in its payload length (its last field).
	if !bytes.Equal(blob[:envelopeSize-4], old[:envelopeSize-4]) {
		t.Fatal("re-encoded envelope differs")
	}
	oldValues, oldPrecision, _, oldMask, oldKMV, _ := registeredPayload(t, old)
	if oldValues != 512 || oldPrecision != 8 {
		t.Fatalf("fixture declares KHLL %d/%d, want 512/8", oldValues, oldPrecision)
	}
	values, precision, count, mask, kmv, end := registeredPayload(t, blob)
	if values != 0 || precision != 0 || count != 1 || mask != oldMask || mask != c.Mask() {
		t.Fatalf("re-encoded header: KHLL %d/%d, count %d, mask %#x", values, precision, count, mask)
	}
	if !bytes.Equal(kmv, oldKMV) {
		t.Fatal("re-encoded KMV block differs from the earlier encoder's")
	}
	if end != len(blob) {
		t.Fatalf("%d bytes follow the KMV block", len(blob)-end)
	}
}

// TestRegisteredRefusesEarlierLayoutDamage: a blob with more than one
// set, or whose KHLL block contradicts what it declares, is refused.
func TestRegisteredRefusesEarlierLayoutDamage(t *testing.T) {
	old := readEarlierBlob(t, earlierOneSetBlob)
	_, _, _, _, _, khll := registeredPayload(t, old)
	mutate := func(off int, flip byte) []byte {
		mut := append([]byte{}, old...)
		mut[off] ^= flip
		return mut
	}
	cases := []struct {
		name, want string
		blob       []byte
	}{
		{"two sets", "subset count 2", readEarlierBlob(t, earlierTwoSetsBlob)},
		// The KHLL block: a 4-byte length, then tag(1) k(4)
		// precision(1) seed(8).
		{"KHLL tag", "not a KHLL", mutate(khll+4, 0xFF)},
		{"KHLL seed", "contradicts", mutate(khll+4+6, 0xFF)},
		// The declared precision, the payload's third word: 8 → 9.
		{"declared precision", "contradicts", mutate(envelopeSize+12, 1)},
		// The declared value count, the second word: 512 → 2^24 + 512,
		// then past the retention limit.
		{"declared value count", "contradicts", mutate(envelopeSize+8+3, 1)},
		{"declared value count limit", "out of range", mutate(envelopeSize+8+3, 0x80)},
	}
	for _, tc := range cases {
		_, err := UnmarshalSummary(tc.blob)
		if !errors.Is(err, ErrBadEncoding) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want ErrBadEncoding naming %q", tc.name, err, tc.want)
		}
	}
}
