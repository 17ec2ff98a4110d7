package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
)

// experimentDigests pins the SHA-256 of experiments run with seed 1
// in quick mode and rendered as cmd/experiments -csv renders it, so
// `go run ./cmd/experiments -run E8 -quick -csv | sha256sum` prints
// E8's digest. E1 and E4–E6 are the lower-bound tables, built on
// the codes, combin and words packages. E2 and E7–E10 build a
// core.Net or an anet.MetaSummary; their digests were taken while every α-net
// problem still kept its own member list and key pass, so matching
// them proves that the shared pass changed no estimate, size or row.
// E3's was taken while core.Sample still carried the reservoir
// sampler as an option, so matching it proved that E3's own reservoir
// row and the with-replacement rows were unchanged. It was retaken
// once, when core.Sample came to keep its rows packed: the
// with-replacement rows' bytes column fell (5,936 → 756 bytes at
// t = 185, 16 + t·4 at d = 16, q = 4), and every other cell of the
// full run's CSV stayed byte-identical.
var experimentDigests = map[string]string{
	"E1":  "d852fc4d9f4fad4e8900e10b6ecff51ebb1fcb3005b42e6254d46abfee5254b5",
	"E2":  "63b09fe5fa0479f921cba6d4eda6960f85870d102d99c0a78bdb169f75b492f4",
	"E3":  "89f5ba42c6b500c44e811ca36af41dfcc6e1d9957427faa059c2f95c59234554",
	"E4":  "73bb8645e094e4b0a9793fecefca8965c60ca24358adff5542f37e29ee53d1c1",
	"E5":  "bf92e2fbc51a4d819c9065c7db1dbc454be83c3fb2804689e64e9682a78a6da7",
	"E6":  "d1cb055de358079789b37b771f1b70272263627f2781203702af43ff225b04e1",
	"E7":  "5be4eb490dccc37af3f0fcfde6227dfa0810c7afeef5bce03e743c26f2f94aca",
	"E8":  "d2cb6f65f9b283d04ed21b958b3321fd49a44ebeb7920736d82ce671bfe1e444",
	"E9":  "dc74363e2bf1881d6600ea6f9ce95780307aeb2b047c6e5ae80923aa5bdf418b",
	"E10": "09f5a5c5bae3d09e5a1b6eafa428bb2036c80f62a6edbdd77f72463590585d9f",
}

// writeCSV renders rep into h the way cmd/experiments -csv does.
func writeCSV(h hash.Hash, rep *Report) error {
	for _, t := range rep.Tables {
		fmt.Fprintf(h, "# %s / %s\n", rep.ID, t.Name)
		if err := t.WriteCSV(h); err != nil {
			return err
		}
	}
	return nil
}

// TestNetExperimentsGolden fails, by experiment ID, when any pinned
// experiment's quick run drifts from its pinned output. It pins
// E1–E10; it is named for the α-net experiments it pinned first.
func TestNetExperimentsGolden(t *testing.T) {
	for id, want := range experimentDigests {
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, Options{Seed: 1, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := writeCSV(h, rep); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Fatalf("%s -quick -csv digest %s, golden %s", id, got, want)
			}
		})
	}
}
