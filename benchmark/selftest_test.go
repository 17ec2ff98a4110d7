package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// The self-test runs every workload for real — built binaries, spawned
// daemons — at the smallest scale that still produces every metric.
// Run it from this directory: go test ./...

var testRoot, testBin string

func TestMain(m *testing.M) {
	code := 1
	defer func() { os.Exit(code) }()
	var err error
	if testRoot, err = findRoot(""); err != nil {
		println(err.Error())
		return
	}
	testBin = filepath.Join(testRoot, ".bench_build", "selftest-bin")
	if _, err := buildDaemons(testRoot, testBin); err != nil {
		println(err.Error())
		return
	}
	defer os.RemoveAll(testBin)
	code = m.Run()
}

func tinyConfig(trace int) *config {
	return &config{root: testRoot, bin: testBin, seed: 1, seconds: 2, trace: trace}
}

// Every workload produces every metric it lists, with a unit, and no
// operation fails.
func TestWorkloadsProduceEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			res, err := runWorkload(context.Background(), tinyConfig(trace), w)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace %d: %d of %d operations failed: %v", w.name, trace, res.Failed, res.Attempted, res.Failures)
			}
			defs := append(append([]metricDef{}, endToEnd...), perLayer[:3]...) // the tails are printed either way
			if trace == 1 {
				defs = perLayer
			}
			for _, def := range defs {
				m, ok := res.Metrics[def.name]
				if !ok || m.Unit != def.unit {
					t.Errorf("%s trace %d: metric %s is %+v, want unit %s", w.name, trace, def.name, m, def.unit)
				}
			}
			if trace == 0 {
				for _, def := range endToEnd {
					if res.Metrics[def.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, def.name, res.Metrics[def.name].Value)
					}
				}
				continue
			}
			sums := 0
			for _, row := range res.Budget {
				if row.Layer == "sum" {
					sums++
				}
			}
			if sums != 2 {
				t.Errorf("%s: budget has %d sums, want one per path: %+v", w.name, sums, res.Budget)
			}
			checkSpans(t, filepath.Join(testRoot, "benchmark", "out", "spans.jsonl"))
		}
	}
}

// Every span's parent resolves and no self time is negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	ids := map[int64]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
		ids[s.ID] = true
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) was never closed", s.ID, s.Name)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d has negative self time %d", id, self)
		}
	}
}

func TestSelfTimesClipOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps its sibling
		{ID: 4, Parent: 1, Start: 90, End: 150},  // runs past its parent
		{ID: 5, Parent: 2, Start: 10, End: 40},   // covers its parent whole
		{ID: 6, Parent: 1, Start: 200, End: 300}, // outside its parent
	}
	want := map[int64]int64{1: 40, 2: 0, 3: 30, 4: 60, 5: 30, 6: 100}
	for id, self := range selfTimes(spans) {
		if self != want[id] {
			t.Errorf("span %d: self time %d, want %d", id, self, want[id])
		}
	}
}

// The catalog-count reference answers exactly as core.Exact does over
// the same rows, and one corrupted answer is one failed operation.
func TestReferenceMatchesExactAndCatchesCorruption(t *testing.T) {
	w, err := findWorkload("exact-coldquery")
	if err != nil {
		t.Fatal(err)
	}
	sz := sizes{preload: 3, ingest: 9, querySets: 12}
	in := generate(w, sz, 7)
	exact, err := core.NewExact(w.d, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(w, sz, in, nil, nil)
	for ; r.sent < sz.preload+sz.ingest; r.sent++ {
		exact.ObserveBatch(in.batch(r.sent, 1))
	}
	for i := range in.requests {
		req := &in.requests[i]
		q := engineQuery(w.d, req.queries[0])
		var res resultJSON
		switch req.queries[0].Kind {
		case "f0":
			res.Value, err = exact.F0(q.Cols)
		case "fp":
			res.Value, err = exact.Fp(q.Cols, q.P)
		case "freq":
			res.Value, err = exact.Frequency(q.Cols, q.Pattern)
		case "hh":
			var hits []core.HeavyHitter
			hits, err = exact.HeavyHitters(q.Cols, q.P, q.Phi)
			for _, h := range hits {
				res.Hits = append(res.Hits, hitJSON{Pattern: h.Pattern, Estimate: h.Estimate})
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		r.answers = append(r.answers, answer{req: req, resp: queryResponse{Results: []resultJSON{res}}})
	}
	if r.verify(); r.failed != 0 {
		t.Fatalf("the reference disagrees with core.Exact: %v", r.failures)
	}
	r.answers[5].resp.Results[0].Value++
	if r.verify(); r.failed != 1 {
		t.Fatalf("one corrupted answer counted as %d failed operations: %v", r.failed, r.failures)
	}
}

// The generator is byte-deterministic per seed and differs for another.
func TestGeneratorIsDeterministic(t *testing.T) {
	golden := map[string]string{
		"exact-coldquery": "2cb5c0665ef5307b",
		"net-ingest":      "1c37b6360957f85e",
		"durable-mixed":   "9353713b56cb46ce",
		"cluster-router":  "a3ab8911a3f61ea1",
	}
	for _, w := range workloads {
		sz := w.sizesFor(0.1)
		a, b, other := generate(w, sz, 1), generate(w, sz, 1), generate(w, sz, 2)
		if a.fingerprint() != golden[w.name] {
			t.Errorf("%s seed 1: fingerprint %s, golden %s", w.name, a.fingerprint(), golden[w.name])
		}
		if a.fingerprint() != b.fingerprint() || !bytes.Equal(a.bodies[len(a.bodies)-1], b.bodies[len(b.bodies)-1]) {
			t.Errorf("%s: two generations from seed 1 differ", w.name)
		}
		if a.fingerprint() == other.fingerprint() {
			t.Errorf("%s: seeds 1 and 2 give the same inputs", w.name)
		}
	}
}

// BENCHMARK.json and the tables in this package name the same
// workloads and metrics with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join(testRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %s (%s) in the code", i, file.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, def := range want {
			if got[i] != (metric{def.name, def.unit, def.better, def.bound}) {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the code", kind, i, got[i], def)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}

func TestQuartilesMatchPythonsExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 are %v and %v, want 2.75 and 8.25", q1, q3)
	}
}

func TestCompareGivesVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values map[string][]float64) string {
		var rec receipt
		for i := 0; i < 5; i++ {
			run := runResult{Workload: "net-ingest", Metrics: map[string]metricValue{}}
			for metric, vs := range values {
				run.Metrics[metric] = metricValue{vs[i], "x"}
			}
			rec.Runs = append(rec.Runs, run)
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", map[string][]float64{
		"ingest_rows_per_s": {100, 101, 99, 100, 100},
		"ack_p50_ms":        {10, 10.1, 9.9, 10, 10},
		"query_p50_ms":      {1, 2, 3, 4, 5},
		"summary_bytes":     {500, 500, 500, 500, 500},
	})
	b := write("b.json", map[string][]float64{
		"ingest_rows_per_s": {60, 61, 59, 60, 60},
		"ack_p50_ms":        {5, 5.1, 4.9, 5, 5},
		"query_p50_ms":      {1, 2, 3, 4, 5},
		"summary_bytes":     {500, 500, 500, 500, 500},
	})
	var out bytes.Buffer
	if err := compareReceipts(&out, a, b); err != nil {
		t.Fatal(err)
	}
	for metric, verdict := range map[string]string{
		"ingest_rows_per_s": "worse", "ack_p50_ms": "better", "query_p50_ms": "unresolved", "summary_bytes": "within bound",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) && strings.HasSuffix(line, verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s should be %q in:\n%s", metric, verdict, out.String())
		}
	}
}
