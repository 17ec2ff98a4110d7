package core

import (
	"encoding"
	"encoding/binary"
	"fmt"

	"repro/internal/anet"
	"repro/internal/sample"
	"repro/internal/sketch"
	"repro/internal/wire"
	"repro/internal/words"
)

// This file is the summary wire format: every core summary implements
// encoding.BinaryMarshaler behind a shared, self-describing envelope,
// and UnmarshalSummary is the one decode entry, so summaries built in
// one process can be shipped to and merged in another (cmd/projfreqd's
// push path).
//
// Envelope layout (little-endian, fixed width, 36 bytes):
//
//	offset size field
//	0      4    magic "PFQS"
//	4      1    format version (WireVersion)
//	5      1    summary kind (SummaryKind)
//	6      1    payload layout: 0, or 1 for the exact kind's packed
//	            rows
//	7      1    reserved, must be zero
//	8      4    dimension d
//	12     4    alphabet size Q
//	16     8    construction seed (zero when the kind carries its
//	            randomness inside the payload)
//	24     8    observed row count n
//	32     4    payload length
//	36     …    kind-specific payload (see ARCHITECTURE.md)
//
// Decode-side failures are typed, never panics: structural damage
// (and a retired kind byte) wraps ErrBadEncoding, and degenerate
// header shapes wrap ErrInvalidParam (via ParamError).
//
// Decoding guarantees two further invariants:
//
//   - Allocation is proportional to the blob: claimed element counts
//     are validated against the remaining payload before anything is
//     allocated.
//   - A decoded summary's sketch parameters are exactly those its
//     configuration derives. Sketch state is restored by merging the
//     decoded state into freshly constructed (empty, config-derived)
//     sketches, so a blob whose inner sketch headers contradict its
//     envelope is rejected — which is what makes merges between any
//     two decodable summaries of equal configuration atomic: they can
//     only fail at the up-front configuration checks, before any
//     state is touched.

// WireVersion is the summary wire-format version emitted by
// MarshalBinary and required by UnmarshalSummary.
const WireVersion = 1

// envelopeSize is the fixed byte length of the wire envelope.
const envelopeSize = 36

// wireMagic opens every serialized summary.
var wireMagic = [4]byte{'P', 'F', 'Q', 'S'}

// SummaryKind identifies a summary type on the wire.
type SummaryKind uint8

// The wire-format summary kinds.
const (
	KindExact SummaryKind = iota + 1
	KindSample
	KindNet
	// kindRetired (4) was the C(d, t) subset-enumeration baseline. The
	// number stays reserved: decoders refuse it and no kind reuses it.
	kindRetired
	KindRegistered
)

// String names the kind as used in error messages and specs.
func (k SummaryKind) String() string {
	switch k {
	case KindExact:
		return "exact"
	case KindSample:
		return "sample"
	case KindNet:
		return "net"
	case KindRegistered:
		return "registered"
	default:
		if ext, ok := extKinds[k]; ok {
			return ext.name
		}
		return fmt.Sprintf("SummaryKind(%d)", uint8(k))
	}
}

// Envelope is the parsed wire header handed to externally registered
// kind decoders (RegisterWireKind). It mirrors the envelope layout
// documented above; Payload aliases the input blob and must not be
// retained past the decode call.
type Envelope struct {
	// Kind is the envelope's summary kind byte.
	Kind SummaryKind
	// Dim and Alphabet are the shape (d, Q), already validated like
	// constructor parameters.
	Dim, Alphabet int
	// Seed is the construction seed field (zero when the kind carries
	// its randomness inside the payload).
	Seed uint64
	// Rows is the observed row count n, already validated ≥ 0.
	Rows int64
	// Payload is the kind-specific payload after the 36-byte header.
	Payload []byte
}

// extKinds maps wire kinds beyond the built-in ones to decoders
// contributed by other packages (internal/registry's container kind).
// It is written only during package initialization — RegisterWireKind
// documents the init-time contract — so lock-free reads are safe.
var extKinds = map[SummaryKind]struct {
	name string
	dec  func(Envelope) (Summary, error)
}{}

// RegisterWireKind installs a decoder for a summary kind beyond the
// built-in ones, extending parseEnvelope's kind validation and
// UnmarshalSummary's dispatch without this package importing the
// kind's implementation. The kind must be greater than KindRegistered
// and not yet taken; violations panic, since registration happens from
// package init functions (the only supported call site — the map is
// read without locks afterwards). Encode with AppendEnvelope.
func RegisterWireKind(kind SummaryKind, name string, dec func(Envelope) (Summary, error)) {
	if kind <= KindRegistered {
		panic(fmt.Sprintf("core: wire kind %d collides with a built-in summary kind", uint8(kind)))
	}
	if dec == nil || name == "" {
		panic("core: RegisterWireKind requires a name and a decoder")
	}
	if _, dup := extKinds[kind]; dup {
		panic(fmt.Sprintf("core: wire kind %d registered twice", uint8(kind)))
	}
	extKinds[kind] = struct {
		name string
		dec  func(Envelope) (Summary, error)
	}{name, dec}
}

// AppendEnvelope wraps a kind-specific payload in the standard 36-byte
// wire envelope — the encode-side counterpart of RegisterWireKind. The
// kind must be built-in or registered, and the shape must pass the
// same validation decoding applies, so every blob this emits parses.
func AppendEnvelope(kind SummaryKind, d, q int, seed uint64, rows int64, payload []byte) ([]byte, error) {
	if _, ok := extKinds[kind]; !ok && (kind < KindExact || kind > KindRegistered || kind == kindRetired) {
		return nil, fmt.Errorf("core: cannot envelope unregistered summary kind %d", uint8(kind))
	}
	if err := validateShape(kind.String(), d, q); err != nil {
		return nil, err
	}
	if rows < 0 {
		return nil, fmt.Errorf("core: negative row count %d", rows)
	}
	return appendEnvelope(kind, d, q, seed, rows, payload)
}

// maxDecodeDim caps the dimension a decoder will accept; legitimate
// summaries stay far below (nets stop at d = 30, registered at 64).
const maxDecodeDim = 1 << 20

func badEncoding(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrBadEncoding, fmt.Sprintf(format, args...))
}

// envelope is the decoded wire header.
type envelope struct {
	kind    SummaryKind
	layout  uint8
	d, q    int
	seed    uint64
	rows    int64
	payload []byte
}

// appendEnvelope writes the 36-byte header for the given payload. The
// payload length must fit the envelope's u32 length field; callers
// surface the error instead of emitting a silently truncated blob.
func appendEnvelope(kind SummaryKind, d, q int, seed uint64, rows int64, payload []byte) ([]byte, error) {
	w, err := envelopeWriter(kind, 0, d, q, seed, rows, len(payload))
	if err != nil {
		return nil, err
	}
	w.Raw(payload)
	return w.Bytes(), nil
}

// envelopeWriter writes the 36-byte header for a payload of plen bytes
// in the given layout into a writer with room for the payload too, so
// a kind can encode its payload in place instead of copying it in
// after the header.
func envelopeWriter(kind SummaryKind, layout uint8, d, q int, seed uint64, rows int64, plen int) (*wire.Writer, error) {
	if int64(plen) > int64(^uint32(0)) {
		return nil, fmt.Errorf("core: %s summary payload of %d bytes exceeds the wire format's 4 GiB limit", kind, plen)
	}
	w := wire.NewWriter(envelopeSize + plen)
	w.Raw(wireMagic[:])
	w.U8(WireVersion)
	w.U8(uint8(kind))
	w.U8(layout)
	w.U8(0) // reserved
	w.U32(uint32(d))
	w.U32(uint32(q))
	w.U64(seed)
	w.I64(rows)
	w.U32(uint32(plen))
	return w, nil
}

// parseEnvelope validates the header and returns it with the payload.
func parseEnvelope(data []byte) (envelope, error) {
	if len(data) < envelopeSize {
		return envelope{}, badEncoding("blob of %d bytes is shorter than the %d-byte envelope", len(data), envelopeSize)
	}
	if string(data[:4]) != string(wireMagic[:]) {
		return envelope{}, badEncoding("bad magic %q", data[:4])
	}
	if v := data[4]; v != WireVersion {
		return envelope{}, badEncoding("unsupported format version %d (have %d)", v, WireVersion)
	}
	kind := SummaryKind(data[5])
	if kind == kindRetired {
		return envelope{}, badEncoding("retired summary kind %d (subset, the C(d, t) enumeration baseline)", uint8(kind))
	}
	if kind < KindExact || kind > KindRegistered {
		if _, ok := extKinds[kind]; !ok {
			return envelope{}, badEncoding("unknown summary kind %d", uint8(kind))
		}
	}
	layout := data[6]
	if data[7] != 0 || layout != 0 && kind != KindExact {
		return envelope{}, badEncoding("non-zero reserved envelope bytes")
	}
	d := int(binary.LittleEndian.Uint32(data[8:]))
	q := int(binary.LittleEndian.Uint32(data[12:]))
	if err := validateShape(kind.String(), d, q); err != nil {
		return envelope{}, err
	}
	if d > maxDecodeDim || q > words.MaxAlphabet {
		return envelope{}, badEncoding("implausible shape d=%d q=%d", d, q)
	}
	seed := binary.LittleEndian.Uint64(data[16:])
	rows := int64(binary.LittleEndian.Uint64(data[24:]))
	if rows < 0 {
		return envelope{}, badEncoding("negative row count %d", rows)
	}
	plen := int(binary.LittleEndian.Uint32(data[32:]))
	if plen != len(data)-envelopeSize {
		return envelope{}, badEncoding("payload length %d does not match %d remaining bytes", plen, len(data)-envelopeSize)
	}
	return envelope{kind: kind, layout: layout, d: d, q: q, seed: seed, rows: rows, payload: data[envelopeSize:]}, nil
}

// payloadReader wraps the payload in a reader whose truncation errors
// wrap ErrBadEncoding.
func payloadReader(env envelope) *wire.Reader {
	return wire.NewReader(env.payload, ErrBadEncoding)
}

// MarshalSummary serializes any wire-capable summary. It is a
// convenience over the encoding.BinaryMarshaler every core summary
// (and the engine's sharded snapshot) implements.
func MarshalSummary(s Summary) ([]byte, error) {
	bm, ok := s.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("core: %s summary does not serialize", s.Name())
	}
	return bm.MarshalBinary()
}

// UnmarshalSummary decodes any summary from its wire form, dispatching
// on the envelope's kind byte. Corrupt input returns an error wrapping
// ErrBadEncoding (or ErrInvalidParam for degenerate shape headers);
// the input is never retained.
func UnmarshalSummary(data []byte) (Summary, error) {
	env, err := parseEnvelope(data)
	if err != nil {
		return nil, err
	}
	switch env.kind {
	case KindExact:
		return decodeExact(env)
	case KindSample:
		return decodeSample(env)
	case KindNet:
		return decodeNet(env)
	case KindRegistered:
		return decodeRegistered(env)
	default:
		// parseEnvelope only admits kinds beyond the built-in ones when
		// a decoder was registered for them.
		return extKinds[env.kind].dec(Envelope{
			Kind: env.kind, Dim: env.d, Alphabet: env.q,
			Seed: env.seed, Rows: env.rows, Payload: env.payload,
		})
	}
}

// --- Exact ---

// The exact payload's layouts, named by the envelope's layout byte.
// The packed rows cannot be told from the u16 symbols by their length
// alone: at n·d = 1 and Q ≤ 256 both are two bytes.
const (
	// exactLayoutSymbols is the layout earlier encoders wrote: n·d
	// little-endian u16 symbols in the flat symbol codec. Decoders
	// still read it and pack the rows.
	exactLayoutSymbols = 0
	// exactLayoutPacked is n rows in words.Packing's layout, n·s bytes
	// with every padding bit zero.
	exactLayoutPacked = 1
)

// MarshalBinary encodes the summary: the envelope, in the packed
// layout, followed by every run's bytes in order, written into the one
// buffer that holds the header.
func (e *Exact) MarshalBinary() ([]byte, error) {
	w, err := envelopeWriter(KindExact, exactLayoutPacked, e.d, e.q, 0, e.Rows(), e.SizeBytes())
	if err != nil {
		return nil, err
	}
	buf := w.Bytes()
	for _, r := range e.runs {
		buf = append(buf, r...)
	}
	return buf, nil
}

// decodeExact reads the rows into one run, checking every symbol
// against the alphabet and, in the packed layout, every padding bit.
func decodeExact(env envelope) (*Exact, error) {
	e, err := NewExact(env.d, env.q)
	if err != nil {
		return nil, err
	}
	rowBytes := int64(e.pk.Stride())
	if env.layout == exactLayoutSymbols {
		rowBytes = int64(2 * env.d)
	} else if env.layout != exactLayoutPacked {
		return nil, badEncoding("unknown exact payload layout %d", env.layout)
	}
	// Division-based check: rows × rowBytes must equal the payload
	// length exactly, with no way for a huge claimed row count to
	// overflow.
	if int64(len(env.payload))%rowBytes != 0 || env.rows != int64(len(env.payload))/rowBytes {
		return nil, badEncoding("exact payload of %d bytes for %d rows × %d cols", len(env.payload), env.rows, env.d)
	}
	if env.rows == 0 {
		return e, nil
	}
	run := make([]byte, int(env.rows)*e.pk.Stride())
	if env.layout == exactLayoutPacked {
		if err := e.pk.Verify(env.payload); err != nil {
			return nil, badEncoding("exact payload: %v", err)
		}
		copy(run, env.payload)
	} else {
		syms := make([]uint16, len(env.payload)/2)
		if i := words.DecodeSymbolsLE(syms, env.payload, env.q); i >= 0 {
			return nil, badEncoding("exact payload: row %d symbol %d outside alphabet [%d]", i/env.d, syms[i], env.q)
		}
		e.pk.Pack(run, syms)
	}
	e.runs, e.n = [][]byte{run}, int(env.rows)
	return e, nil
}

// --- Sample ---

// Sampler mode bytes on the wire.
const (
	// wireSampleWRRetired (0) was the with-replacement sampler that
	// drew once per slot and row, with a 32-byte xoshiro state per
	// slot and no next acceptance position. Decoders refuse it.
	wireSampleWRRetired = 0
	// wireSampleReservoirRetired (1) was the Algorithm-R reservoir, an
	// ablation option: one 32-byte xoshiro state, then the retained
	// rows. Decoders refuse it.
	wireSampleReservoirRetired = 1
	// wireSampleWRU16 (2) is the with-replacement sampler whose rows
	// are u16 symbols behind a u32 length each. Decoders still read it
	// and pack the rows.
	wireSampleWRU16 = 2
	// wireSampleWR (3) is the with-replacement sampler whose rows are
	// one slab of packed rows (sample.WithReplacement.MarshalBinary).
	wireSampleWR = 3
)

// MarshalBinary encodes the summary: the envelope, the sampler-mode
// byte 3, and the sampler's own serialization (packed rows plus
// generator state, so merges of a decoded summary match the original
// exactly).
func (s *Sample) MarshalBinary() ([]byte, error) {
	blob, err := s.wr.MarshalBinary()
	if err != nil {
		return nil, err
	}
	payload := append([]byte{wireSampleWR}, blob...)
	return appendEnvelope(KindSample, s.d, s.q, 0, s.Rows(), payload)
}

func decodeSample(env envelope) (*Sample, error) {
	if len(env.payload) < 1 {
		return nil, badEncoding("sample payload missing mode byte")
	}
	mode, blob := env.payload[0], env.payload[1:]
	decode := sample.Decode
	switch mode {
	case wireSampleWR:
	case wireSampleWRU16:
		decode = sample.DecodeU16
	case wireSampleWRRetired:
		return nil, badEncoding("retired sampler mode %d (with-replacement slots that drew once per row, before skip-ahead slots)", mode)
	case wireSampleReservoirRetired:
		return nil, badEncoding("retired sampler mode %d (Algorithm-R reservoir, an ablation option)", mode)
	default:
		return nil, badEncoding("unknown sampler mode %d", mode)
	}
	wr, err := decode(words.NewPacking(env.d, env.q), blob)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	if wr.Seen() != env.rows {
		return nil, badEncoding("sampler has seen %d rows, envelope says %d", wr.Seen(), env.rows)
	}
	return &Sample{d: env.d, q: env.q, wr: wr}, nil
}

// --- Net ---

// MarshalBinary encodes the summary: the envelope, the NetConfig, and
// one length-prefixed sketch-state block per maintained problem (F0
// first, then each moment order ascending). Sketch states are the
// per-member serializations of internal/sketch, in net-mask order.
// The byte after ε is reserved and always 0: it once named the F0
// sketch kind, and 0 was KMV.
func (s *Net) MarshalBinary() ([]byte, error) {
	w := &wire.Writer{}
	w.F64(s.cfg.Alpha)
	w.F64(s.cfg.Epsilon)
	w.U8(0)
	w.U32(uint32(s.cfg.StableReps))
	w.U32(uint32(len(s.moments)))
	for _, p := range s.moments {
		w.F64(p)
	}
	for j := range 1 + len(s.moments) {
		blob, err := s.meta.MarshalSketches(j)
		if err != nil {
			return nil, err
		}
		w.Block(blob)
	}
	return appendEnvelope(KindNet, s.d, s.q, s.cfg.Seed, s.rows, w.Bytes())
}

func decodeNet(env envelope) (*Net, error) {
	r := payloadReader(env)
	cfg := NetConfig{Alpha: r.F64(), Epsilon: r.F64(), Seed: env.seed}
	reserved := r.U8()
	cfg.StableReps = int(r.U32())
	nMoments := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if reserved != 0 {
		return nil, badEncoding("net reserved byte is %d, want 0", reserved)
	}
	if nMoments*8 > r.Remaining() {
		return nil, badEncoding("moment list of %d entries in %d payload bytes", nMoments, r.Remaining())
	}
	for i := 0; i < nMoments; i++ {
		p := r.F64()
		if i > 0 && p <= cfg.Moments[i-1] {
			return nil, badEncoding("moment orders not strictly ascending")
		}
		cfg.Moments = append(cfg.Moments, p)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Bound the reconstruction cost before allocating |N| sketches:
	// the member count follows from (d, alpha) alone, and a legal blob
	// must carry every member's serialized sketch — at least 21 bytes
	// for an F0 sketch (4-byte frame + smallest header) and, for each
	// moment, a p-stable block of 25 + 8·reps bytes. This keeps the
	// decoder's allocation proportional to the blob even when the
	// header claims the largest permitted repetition count.
	if nMoments > maxNetMoments {
		return nil, badEncoding("net with %d moment orders (limit %d)", nMoments, maxNetMoments)
	}
	probe, err := anetProbe(env.d, cfg.Alpha)
	if err != nil {
		return nil, badEncoding("net reconstruction: %v", err)
	}
	// Float arithmetic so that NaN or denormal header values poison
	// the comparison toward rejection instead of overflowing ints.
	effReps := float64(cfg.StableReps)
	if cfg.StableReps == 0 && nMoments > 0 {
		eps := cfg.Epsilon
		if eps == 0 {
			eps = 0.1 // NewNet's default, mirrored
		}
		rf := 6 / (eps * eps)
		if !(rf <= maxStableReps) {
			return nil, badEncoding("net epsilon %v implies an implausible repetition count", cfg.Epsilon)
		}
		// Mirror NewNet's integer truncation exactly, or the floor
		// would overestimate and reject legal default-sized blobs.
		effReps = float64(int(rf) + 3)
	}
	floor := float64(probe) * (21 + float64(nMoments)*(25+8*effReps))
	if !(floor <= float64(r.Remaining())) {
		return nil, badEncoding("net of %d members × %d moments needs ≥ %.0f payload bytes, have %d",
			probe, nMoments, floor, r.Remaining())
	}
	// NewNet enforces the same member and repetition caps decoding
	// relies on, so any constructible net round-trips.
	s, err := NewNet(env.d, env.q, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: rebuilding net: %v", ErrBadEncoding, err)
	}
	for j := range 1 + nMoments {
		if err := s.meta.UnmarshalSketches(j, r.Block()); err != nil {
			if rerr := r.Err(); rerr != nil {
				return nil, rerr
			}
			if j == 0 {
				return nil, badEncoding("F0 sketch block: %v", err)
			}
			return nil, badEncoding("F_%g sketch block: %v", cfg.Moments[j-1], err)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	s.rows = env.rows
	return s, nil
}

// anetProbe returns |N| for a (d, α)-net without materializing any
// member, so net decoding can refuse implausible headers cheaply.
func anetProbe(d int, alpha float64) (int, error) {
	if d > 30 {
		return 0, fmt.Errorf("net dimension %d exceeds the enumeration limit 30", d)
	}
	n, err := anet.NewNet(d, alpha)
	if err != nil {
		return 0, err
	}
	return n.MemberCount()
}

// --- Registered ---

// restoreKMV decodes blob and folds it into dst, which must be a
// freshly constructed (empty) sketch: the merge validates that the
// blob's parameters match the configuration-derived ones, and merging
// into an empty sketch reproduces the decoded state exactly.
func restoreKMV(dst *sketch.KMV, blob []byte, rerr error) error {
	if rerr != nil {
		return rerr
	}
	var dec sketch.KMV
	if err := dec.UnmarshalBinary(blob); err != nil {
		return err
	}
	if err := dst.Merge(&dec); err != nil {
		return fmt.Errorf("sketch state contradicts the summary configuration: %w", err)
	}
	return nil
}

// MarshalBinary encodes the summary: the envelope, the F0 accuracy,
// two zero words where earlier encoders declared a KHLL (value count
// and precision), the subset count 1, the column mask, and the
// length-prefixed KMV state.
func (s *Registered) MarshalBinary() ([]byte, error) {
	f0, err := s.f0.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w := &wire.Writer{}
	w.F64(s.cfg.Epsilon)
	w.U32(0)
	w.U32(0)
	w.U32(1)
	w.U64(s.cols.Mask())
	w.Block(f0)
	return appendEnvelope(KindRegistered, s.d, s.q, s.cfg.Seed, s.rows, w.Bytes())
}

// decodeRegistered reads the layout MarshalBinary writes, and also the
// one earlier encoders wrote: nonzero KHLL parameters and, after the
// KMV block, a KHLL block. That block is checked against the declared
// parameters and dropped, since nothing reads it.
func decodeRegistered(env envelope) (*Registered, error) {
	r := payloadReader(env)
	cfg := RegisteredConfig{Epsilon: r.F64(), Seed: env.seed}
	khllValues, khllPrecision := int(r.U32()), int(r.U32())
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n != 1 {
		return nil, badEncoding("registered subset count %d, want 1", n)
	}
	mask := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	c, err := words.ColumnSetFromMask(mask, env.d)
	if err != nil {
		return nil, badEncoding("registered mask %#x: %v", mask, err)
	}
	s, err := NewRegistered(env.d, env.q, c, cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: rebuilding registered summary: %v", ErrBadEncoding, err)
	}
	if err := restoreKMV(s.f0, r.Block(), r.Err()); err != nil {
		return nil, badEncoding("registered F0 sketch: %v", err)
	}
	if khllValues != 0 || khllPrecision != 0 {
		if err := checkKHLL(r.Block(), r.Err(), khllValues, khllPrecision, env.seed); err != nil {
			return nil, badEncoding("registered KHLL sketch: %v", err)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	s.rows = env.rows
	return s, nil
}

// checkKHLL validates a KHLL block of an earlier encoder against the
// parameters its blob declared: the decoded sketch must merge into an
// empty KHLL built from them, as it had to when it was kept.
func checkKHLL(blob []byte, rerr error, k, precision int, seed uint64) error {
	if rerr != nil {
		return rerr
	}
	if k < 2 || k > maxSketchRetention || precision < 4 || precision > 16 {
		return fmt.Errorf("parameters k=%d precision=%d out of range", k, precision)
	}
	var dec sketch.KHLL
	if err := dec.UnmarshalBinary(blob); err != nil {
		return err
	}
	if err := sketch.NewKHLL(k, precision, seed).Merge(&dec); err != nil {
		return fmt.Errorf("sketch state contradicts the summary configuration: %w", err)
	}
	return nil
}
