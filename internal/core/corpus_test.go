package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRegenerateFuzzCorpus rewrites the committed fuzz seed corpus
// under testdata/fuzz/FuzzUnmarshalSummary. It is a no-op unless
// REGEN_FUZZ_CORPUS is set, so a normal `go test` run never touches
// the checked-in files:
//
//	REGEN_FUZZ_CORPUS=1 go test ./internal/core/ -run RegenerateFuzzCorpus
//
// Run it after any wire-format change, so the corpus keeps one valid
// blob per live summary kind plus a truncated and a bit-flipped
// variant.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzUnmarshalSummary")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, blob []byte) {
		t.Helper()
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", blob)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blobs := fuzzSeedBlobs(t)
	for i, blob := range blobs {
		kind := SummaryKind(blob[5])
		if kind == kindRetired || kind == KindSample && blob[envelopeSize] != wireSampleWR ||
			kind == KindNet && blob[netReservedOffset] != 0 {
			continue // refused whole; the in-code seed covers it
		}
		write(fmt.Sprintf("seed-%d-%s", i, kind), blob)
		write(fmt.Sprintf("seed-%d-%s-truncated", i, kind), blob[:len(blob)/2])
		mut := append([]byte{}, blob...)
		mut[len(mut)/2] ^= 0x55
		write(fmt.Sprintf("seed-%d-%s-flipped", i, kind), mut)
	}
}
