// Package comm realizes the communication-complexity framework of
// Section 3.3 as executable protocols: Alice observes the instance
// stream and emits a one-way message (the serialized summary state);
// Bob decodes it and answers the Index question "is y ∈ T?" by
// querying the decoded summary on his column set and thresholding.
// Message length in bytes is exactly the space the paper's lower
// bounds constrain, so sweeping summary sizes against Index success
// rate traces the bound empirically (experiment E9).
package comm

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/anet"
	"repro/internal/freq"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/sketch"
	"repro/internal/words"
	"repro/internal/workload"
)

// Protocol is a one-way Alice→Bob protocol for the projected-F0 Index
// reduction of Theorem 4.1.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// Encode is Alice: stream the instance, emit the message.
	Encode(src words.RowSource) ([]byte, error)
	// Decide is Bob: decode the message and answer whether the
	// instance's test word y lies in Alice's set T.
	Decide(msg []byte, inst *workload.F0Instance) (bool, error)
}

// threshold distinguishes the two Index cases: F0 ≥ Q^k when y ∈ T
// versus F0 ≤ k·Q^{k-1} otherwise; the geometric mean splits them
// symmetrically on the multiplicative scale the approximation factor
// Δ = Q/k lives on.
func threshold(inst *workload.F0Instance) float64 {
	return math.Sqrt(inst.ThresholdHigh() * inst.ThresholdLow())
}

// Exact sends the set of distinct full-dimensional rows verbatim:
// the information-theoretically sufficient (and exponentially large)
// message the lower bound says cannot be compressed below 2^Ω(d).
type Exact struct{}

// Name identifies the protocol.
func (Exact) Name() string { return "exact-rows" }

// Encode deduplicates the stream and serializes the distinct rows.
func (Exact) Encode(src words.RowSource) ([]byte, error) {
	d := src.Dim()
	full := words.FullColumnSet(d)
	seen := make(map[string]struct{})
	var keys []string
	var buf []byte
	for {
		w, ok := src.Next()
		if !ok {
			break
		}
		buf = words.AppendKey(buf[:0], w, full)
		k := string(buf)
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]byte, 0, 8+len(keys)*2*d)
	out = append(out,
		byte(d), byte(d>>8), byte(d>>16), byte(d>>24),
		byte(len(keys)), byte(len(keys)>>8), byte(len(keys)>>16), byte(len(keys)>>24))
	for _, k := range keys {
		out = append(out, k...)
	}
	return out, nil
}

// Decide recomputes exact projected F0 on Bob's query from the
// decoded distinct rows.
func (Exact) Decide(msg []byte, inst *workload.F0Instance) (bool, error) {
	if len(msg) < 8 {
		return false, fmt.Errorf("comm: short exact message")
	}
	d := int(msg[0]) | int(msg[1])<<8 | int(msg[2])<<16 | int(msg[3])<<24
	n := int(msg[4]) | int(msg[5])<<8 | int(msg[6])<<16 | int(msg[7])<<24
	body := msg[8:]
	if d != inst.D || len(body) != n*2*d {
		return false, fmt.Errorf("comm: malformed exact message (d=%d n=%d len=%d)", d, n, len(body))
	}
	v := freq.NewVector()
	for i := 0; i < n; i++ {
		row := words.KeyToWord(string(body[i*2*d : (i+1)*2*d]))
		v.AddWord(row, inst.Query)
	}
	return float64(v.Support()) >= threshold(inst), nil
}

// Net compresses Alice's state through Algorithm 1: an α-net of KMV
// sketches. Message size shrinks as α grows, but once the rounding
// distortion 2^{αd} exceeds the instance's separation Δ = Q/k Bob's
// answers degrade — the space/approximation tradeoff made visible.
type Net struct {
	Alpha   float64
	Epsilon float64
	Seed    uint64
}

// Name identifies the protocol.
func (p Net) Name() string { return fmt.Sprintf("net(alpha=%.2f)", p.Alpha) }

func (p Net) build(d int) (*anet.MetaSummary, error) {
	n, err := anet.NewNet(d, p.Alpha)
	if err != nil {
		return nil, err
	}
	eps := p.Epsilon
	if eps == 0 {
		eps = 0.25
	}
	return anet.NewMetaSummary(n, func(id uint64) anet.Estimator {
		return sketch.KMVForEpsilon(eps, p.Seed^rng.Mix64(id))
	})
}

// Encode builds the meta-summary over the stream and serializes its
// sketches.
func (p Net) Encode(src words.RowSource) ([]byte, error) {
	m, err := p.build(src.Dim())
	if err != nil {
		return nil, err
	}
	m.ObserveBatch(words.Collect(src, -1).Batch())
	return m.MarshalSketches(0)
}

// Decide reconstructs the meta-summary and queries Bob's column set.
func (p Net) Decide(msg []byte, inst *workload.F0Instance) (bool, error) {
	m, err := p.build(inst.D)
	if err != nil {
		return false, err
	}
	if err := m.UnmarshalSketches(0, msg); err != nil {
		return false, err
	}
	ans, err := m.Query(0, inst.Query, 0)
	if err != nil {
		return false, err
	}
	return ans.Estimate >= threshold(inst), nil
}

// Sampled sends a uniform row sample of fixed size: the Theorem 5.1
// summary, which solves ℓp frequency estimation but — as Section 4
// proves and this protocol demonstrates — cannot solve projected F0,
// since a o(F0)-size sample misses almost all distinct patterns.
type Sampled struct {
	T    int
	Seed uint64
}

// Name identifies the protocol.
func (p Sampled) Name() string { return fmt.Sprintf("sample(t=%d)", p.T) }

// Encode reservoir-samples the stream (sample.Reservoir) and
// serializes the sampled rows.
func (p Sampled) Encode(src words.RowSource) ([]byte, error) {
	if p.T < 1 {
		return nil, fmt.Errorf("comm: sample size %d is not positive", p.T)
	}
	d := src.Dim()
	res := sample.NewReservoir(p.T, p.Seed)
	res.ObserveBatch(words.Collect(src, -1).Batch())
	rows, seen := res.Rows(), res.Seen()
	out := make([]byte, 0, 16+len(rows)*2*d)
	out = append(out,
		byte(d), byte(d>>8), byte(d>>16), byte(d>>24),
		byte(len(rows)), byte(len(rows)>>8), byte(len(rows)>>16), byte(len(rows)>>24))
	for i := 0; i < 8; i++ {
		out = append(out, byte(seen>>(8*i)))
	}
	full := words.FullColumnSet(d)
	for _, w := range rows {
		out = words.AppendKey(out, w, full)
	}
	return out, nil
}

// Decide scales the sample's distinct-pattern count by n/t — the
// natural (and provably inadequate) estimator.
func (p Sampled) Decide(msg []byte, inst *workload.F0Instance) (bool, error) {
	if len(msg) < 16 {
		return false, fmt.Errorf("comm: short sample message")
	}
	d := int(msg[0]) | int(msg[1])<<8 | int(msg[2])<<16 | int(msg[3])<<24
	t := int(msg[4]) | int(msg[5])<<8 | int(msg[6])<<16 | int(msg[7])<<24
	var seen int64
	for i := 0; i < 8; i++ {
		seen |= int64(msg[8+i]) << (8 * i)
	}
	body := msg[16:]
	if d != inst.D || len(body) != t*2*d {
		return false, fmt.Errorf("comm: malformed sample message")
	}
	v := freq.NewVector()
	for i := 0; i < t; i++ {
		row := words.KeyToWord(string(body[i*2*d : (i+1)*2*d]))
		v.AddWord(row, inst.Query)
	}
	// Scale distinct patterns in the sample up by the sampling rate;
	// this overcounts duplicates wildly but is the best a frequency
	// sample offers for F0.
	est := float64(v.Support())
	if t > 0 && seen > 0 {
		est *= float64(seen) / float64(t)
	}
	return est >= threshold(inst), nil
}

// TrialResult aggregates a protocol's Index performance.
type TrialResult struct {
	Protocol     string
	Trials       int
	Correct      int
	MessageBytes int // max over trials (message sizes are near-constant)
}

// SuccessRate returns the fraction of correct Index answers.
func (t TrialResult) SuccessRate() float64 {
	if t.Trials == 0 {
		return 0
	}
	return float64(t.Correct) / float64(t.Trials)
}

// RunIndexTrials plays the protocol over `trials` fresh instances,
// alternating planted and unplanted test words, and reports accuracy
// and message size. Instance parameters follow Theorem 4.1.
func RunIndexTrials(p Protocol, d, k, q, tSize, trials int, seed uint64) (TrialResult, error) {
	res := TrialResult{Protocol: p.Name(), Trials: trials}
	src := rng.New(seed)
	for i := 0; i < trials; i++ {
		inT := i%2 == 0
		inst, err := workload.NewF0Instance(d, k, q, tSize, inT, src)
		if err != nil {
			return res, err
		}
		stream, err := inst.Source()
		if err != nil {
			return res, err
		}
		msg, err := p.Encode(stream)
		if err != nil {
			return res, err
		}
		if len(msg) > res.MessageBytes {
			res.MessageBytes = len(msg)
		}
		got, err := p.Decide(msg, inst)
		if err != nil {
			return res, err
		}
		if got == inT {
			res.Correct++
		}
	}
	return res, nil
}
