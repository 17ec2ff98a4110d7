package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"

	"repro/internal/rng"
	"repro/internal/words"
)

// The load model every workload shares: rows are draws from a catalog
// of catalogSize random patterns with Zipf(zipfS) frequencies — the
// distribution of workload.ZipfPatterns — pre-encoded into a pool of at
// most poolBodies distinct batchRows-row /v1/observe bodies that the
// writer cycles in order. workload.ZipfPatterns itself recomputes the
// harmonic table on every draw (~0.3 ms/row at 4096 patterns), which
// would spend a minute generating one pool, so the draws here come
// from rng.Zipf's precomputed table over a catalog built the same way.
const (
	catalogSize = 4096
	zipfS       = 1.1
	batchRows   = 256
	poolBodies  = 1024
	alphabet    = 4
)

// querySpec mirrors projfreqd's /v1/query element.
type querySpec struct {
	Kind    string   `json:"kind"`
	Cols    []int    `json:"cols"`
	P       float64  `json:"p,omitempty"`
	Phi     float64  `json:"phi,omitempty"`
	Pattern []uint16 `json:"pattern,omitempty"`
}

// request is one pre-encoded /v1/query call and the questions in it.
type request struct {
	body    []byte
	queries []querySpec
}

// inputs is everything one run sends, fixed by (workload, seed, sizes)
// before the first process is spawned.
type inputs struct {
	d       int
	catalog []words.Word
	// bodies[i] is the i-th pool body; draws[i] lists the catalog index
	// of each of its rows, which is all the references need.
	bodies [][]byte
	draws  [][]uint16
	// grouped[k] holds pool bodies k·group … (k+1)·group−1 as one body,
	// for a workload whose writer sends several pool bodies per request
	// (nil when group is 1).
	group   int
	grouped [][]byte
	// requests is the post-ingest query stream; dashboard is the fixed
	// batch the open-loop reader repeats (nil when the workload has no
	// reader).
	requests  []request
	dashboard *request
}

// generate builds the inputs of workload w from seed alone: the same
// (w, seed, sizes) gives the same bytes.
func generate(w *workload, sz sizes, seed uint64) *inputs {
	master := rng.New(seed)
	in := &inputs{d: w.d, catalog: make([]words.Word, catalogSize)}
	for i := range in.catalog {
		row := make(words.Word, w.d)
		for j := range row {
			row[j] = uint16(master.Intn(alphabet))
		}
		in.catalog[i] = row
	}
	zipf := rng.NewZipf(rng.New(master.Uint64()), catalogSize, zipfS)
	pool := sz.preload + sz.ingest
	if pool > poolBodies {
		pool = poolBodies
	}
	in.bodies = make([][]byte, pool)
	in.draws = make([][]uint16, pool)
	for i := range in.bodies {
		idx := make([]uint16, batchRows)
		for r := range idx {
			idx[r] = uint16(zipf.Next())
		}
		in.draws[i] = idx
		in.bodies[i] = encodeRows(in.catalog, idx)
	}
	if in.group = max(w.group, 1); in.group > 1 {
		// sizesFor keeps preload and ingest multiples of the group, and so
		// is poolBodies: every group is whole and the cycle stays aligned.
		for k := 0; k+in.group <= pool; k += in.group {
			var idx []uint16
			for _, d := range in.draws[k : k+in.group] {
				idx = append(idx, d...)
			}
			in.grouped = append(in.grouped, encodeRows(in.catalog, idx))
		}
	}

	qr := rng.New(master.Uint64())
	pattern := func(cols []int) []uint16 {
		row := in.catalog[zipf.Next()]
		out := make([]uint16, len(cols))
		for i, j := range cols {
			out[i] = row[j]
		}
		return out
	}
	for _, cols := range columnSets(qr, w, sz.querySets) {
		for _, kind := range w.kinds {
			q := querySpec{Kind: kind, Cols: cols}
			switch kind {
			case "fp":
				q.P = 2
			case "hh":
				q.P, q.Phi = 1, 0.05
			case "freq":
				q.Pattern = pattern(cols)
			}
			in.requests = append(in.requests, encodeRequest(q))
		}
	}
	if w.reader {
		cols := columnSets(qr, w, 1)[0]
		r := encodeRequest(
			querySpec{Kind: "freq", Cols: cols, Pattern: pattern(cols)},
			querySpec{Kind: "freq", Cols: cols, Pattern: pattern(cols)},
			querySpec{Kind: "freq", Cols: cols, Pattern: pattern(cols)},
			querySpec{Kind: "hh", Cols: cols, P: 1, Phi: 0.05},
		)
		in.dashboard = &r
	}
	return in
}

// columnSets draws n distinct column sets, so that no (C, kind) pair of
// a run repeats and the daemon's result cache cannot answer any of
// them. Sizes are uniform in [minCols, maxCols] where that leaves
// enough distinct sets; for small d every non-empty set is shuffled.
func columnSets(r *rng.Source, w *workload, n int) [][]int {
	const minCols, maxCols = 2, 6
	out := make([][]int, 0, n)
	if w.d <= 8 {
		masks := r.Perm(1<<w.d - 1)
		for _, m := range masks[:n] {
			var cols []int
			for j := 0; j < w.d; j++ {
				if (m+1)>>j&1 == 1 {
					cols = append(cols, j)
				}
			}
			out = append(out, cols)
		}
		return out
	}
	seen := make(map[uint64]bool, n)
	for len(out) < n {
		cols := r.Subset(w.d, minCols+r.Intn(maxCols-minCols+1))
		var mask uint64
		for _, j := range cols {
			mask |= 1 << j
		}
		if seen[mask] {
			continue
		}
		seen[mask] = true
		out = append(out, cols)
	}
	return out
}

// encodeRows renders one {"rows":[[…]]} body.
func encodeRows(catalog []words.Word, idx []uint16) []byte {
	b := make([]byte, 0, len(idx)*(2*len(catalog[0])+2)+16)
	b = append(b, `{"rows":[`...)
	for r, i := range idx {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, x := range catalog[i] {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(x), 10)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

func encodeRequest(qs ...querySpec) request {
	body, err := json.Marshal(struct {
		Queries []querySpec `json:"queries"`
	}{qs})
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return request{body: body, queries: qs}
}

// body returns the request that carries pool bodies first … first+n−1:
// one pool body, or one whole group of them.
func (in *inputs) body(first, n int) []byte {
	first %= len(in.bodies)
	if n == 1 {
		return in.bodies[first]
	}
	if n != in.group || first%n != 0 {
		panic("a writer request is one pool body or one aligned group") // a bug in this package
	}
	return in.grouped[first/n]
}

// batch rebuilds pool bodies first … first+n−1 as one flat batch for
// the in-process layers.
func (in *inputs) batch(first, n int) *words.Batch {
	b := words.NewBatch(in.d, n*batchRows)
	for i := first; i < first+n; i++ {
		for _, c := range in.draws[i%len(in.draws)] {
			b.Append(in.catalog[c])
		}
	}
	return b
}

// fingerprint hashes the first bodies and the whole query stream; the
// self-test pins it per seed.
func (in *inputs) fingerprint() string {
	h := sha256.New()
	for i := 0; i < len(in.bodies) && i < 4; i++ {
		h.Write(in.bodies[i])
	}
	for _, r := range in.requests {
		h.Write(r.body)
	}
	if in.dashboard != nil {
		h.Write(in.dashboard.body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
