package core

import (
	"fmt"

	"repro/internal/hashing"
	"repro/internal/sketch"
	"repro/internal/words"
)

// Registered is the summary for the easy regime the paper's
// introduction contrasts with: the target column set is *known in
// advance* (as in the KHyperLogLog deployment of Chia et al. [6]). It
// keeps one (1±ε) F0 sketch over that one set, so a registry holding
// one Registered per query set pays space linear in the number of
// registered queries — no 2^Ω(d) anywhere, which is exactly the gap
// between this model and the paper's reveal-after-observation model.
type Registered struct {
	d, q    int
	cfg     RegisteredConfig
	cols    words.ColumnSet
	f0      *sketch.KMV
	keyBuf  []byte            // reusable key arena for ObservePacked
	fps     []uint64          // reusable fingerprint arena for ObservePacked
	pk      words.Packing     // the rows' packed layout (d, q)
	packBuf words.PackedBatch // ObserveBatch's packed copy of its batch
	rows    int64
}

// RegisteredConfig configures NewRegistered.
type RegisteredConfig struct {
	// Epsilon is the F0 sketch accuracy (default 0.05).
	Epsilon float64
	// Seed seeds the F0 sketch.
	Seed uint64
}

// NewRegistered builds a summary for the column set c over dimension
// d ≤ 64 (the wire form stores c as a 64-bit column mask).
func NewRegistered(d, q int, c words.ColumnSet, cfg RegisteredConfig) (*Registered, error) {
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.05
	}
	if !(cfg.Epsilon > 0 && cfg.Epsilon < 1) {
		return nil, fmt.Errorf("core: registered epsilon %v outside (0,1)", cfg.Epsilon)
	}
	if err := validateEpsRetention("registered", cfg.Epsilon); err != nil {
		return nil, err
	}
	if err := validateRowShape("registered", d, q); err != nil {
		return nil, err
	}
	if d > 64 {
		return nil, badParam("registered", "d", d, "exceeds the 64 columns a subset mask holds")
	}
	if c.Dim() != d {
		return nil, fmt.Errorf("core: subset %v has dimension %d, want %d", c, c.Dim(), d)
	}
	if c.Len() == 0 {
		return nil, fmt.Errorf("core: empty subset registered")
	}
	return &Registered{d: d, q: q, cfg: cfg, cols: c, f0: sketch.KMVForEpsilon(cfg.Epsilon, cfg.Seed), pk: words.NewPacking(d, q)}, nil
}

// Observe feeds one row into the F0 sketch.
func (s *Registered) Observe(w words.Word) {
	s.ObserveBatch(words.RowBatch(w))
}

// ObserveBatch packs the batch in the summary's layout and ingests it
// (ObservePacked). It panics if b's dimension differs from the
// summary's, or, observing none of the batch, if a symbol lies outside
// [Q].
func (s *Registered) ObserveBatch(b *words.Batch) {
	if b.Dim() != s.d {
		panic(fmt.Sprintf("core: batch dimension %d != dimension %d", b.Dim(), s.d))
	}
	s.ObservePacked(packU16(&s.packBuf, s.pk, b, "registered summary", s.q))
}

// ObservePacked feeds the batch through the batched key pipeline: the
// column set's whole-batch key arena, built off the packed rows
// (words.Packing.AppendKeys), is fingerprinted in one pass
// (hashing.AppendFingerprints64) and fed to the F0 sketch via
// AddBatch. It panics if b's layout is not the summary's.
func (s *Registered) ObservePacked(b *words.PackedBatch) {
	if b.Packing() != s.pk {
		panic("core: packed batch layout differs from the registered summary's")
	}
	n := b.Len()
	if n == 0 {
		return
	}
	s.rows += int64(n)
	s.keyBuf = s.pk.AppendKeys(s.keyBuf[:0], b.Rows(), s.cols)
	s.fps = hashing.AppendFingerprints64(s.fps[:0], s.keyBuf, n, 2*s.cols.Len())
	s.f0.AddBatch(s.fps)
}

// Clone returns a copy of s whose KMV is its own (sketch.KMV.Clone).
func (s *Registered) Clone() *Registered {
	return &Registered{d: s.d, q: s.q, cfg: s.cfg, cols: s.cols, f0: s.f0.Clone(), rows: s.rows, pk: s.pk}
}

// Dim returns d.
func (s *Registered) Dim() int { return s.d }

// Alphabet returns Q.
func (s *Registered) Alphabet() int { return s.q }

// Rows returns n.
func (s *Registered) Rows() int64 { return s.rows }

// SizeBytes is the F0 sketch's footprint.
func (s *Registered) SizeBytes() int { return s.f0.SizeBytes() }

// Name identifies the summary.
func (s *Registered) Name() string { return "registered(1 subsets)" }

// Merge implements Mergeable: it unites the F0 sketch with its peer's
// (a KMV union, so merged estimates are exact). Both summaries must
// have been built with the same shape, column set and configuration
// (including Seed, so the sketches hash identically).
func (s *Registered) Merge(other Summary) error {
	o, ok := other.(*Registered)
	if !ok {
		return mergeErr("cannot merge %s with %T", s.Name(), other)
	}
	if o == s {
		return errSelfMerge
	}
	if o.d != s.d || o.q != s.q {
		return mergeErr("shape mismatch: %d cols/[%d] vs %d cols/[%d]", s.d, s.q, o.d, o.q)
	}
	if o.cfg != s.cfg {
		return mergeErr("merging registered summaries with different configs")
	}
	if !o.cols.Equal(s.cols) {
		return mergeErr("subset mismatch: %v vs %v", s.cols, o.cols)
	}
	if err := s.f0.Merge(o.f0); err != nil {
		return mergeWrap(err)
	}
	s.rows += o.rows
	return nil
}

// F0 answers the registered column set's distinct-pattern count within
// (1±ε) — no rounding distortion, because the set was known up front.
// Any other column set is ErrUnsupported.
func (s *Registered) F0(c words.ColumnSet) (float64, error) {
	if c.Dim() != s.d {
		return 0, fmt.Errorf("core: query dimension %d != data dimension %d", c.Dim(), s.d)
	}
	if !c.Equal(s.cols) {
		return 0, fmt.Errorf("%w: subset %v was not registered before observation", ErrUnsupported, c)
	}
	return s.f0.Estimate(), nil
}
