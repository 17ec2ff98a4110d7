// Command bench runs the repository's reproducible benchmark suite
// (internal/benchsuite) and writes the results as a JSON trajectory
// file, so perf claims live in committed receipts instead of commit
// messages. Each entry reports ns/op, B/op, allocs/op, and — for
// per-row workloads — rows/sec; the mixed read/write block additionally
// reports the ingestion-throughput ratios the epoch read path is
// accepted against.
//
// Usage:
//
//	go run ./cmd/bench -out BENCH_6.json
//	go run ./cmd/bench -benchtime 2s -only mixed
//	go run ./cmd/bench -only ingest/batch256 -cpuprofile cpu.pprof
//	go run ./cmd/bench -max-allocs ingest/batch256=1   # CI regression gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/benchsuite"
)

// result is one benchmark's receipts.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// RowsPerSec is 1e9/NsPerOp for workloads whose iteration is one
	// row; 0 for batch-per-iteration workloads.
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
	// Extra carries the workload's b.ReportMetric values (e.g. the
	// mixed workload's ns/read — mean reader-observed query latency).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// report is the BENCH_<n>.json schema.
type report struct {
	GeneratedAt time.Time `json:"generated_at"`
	GoVersion   string    `json:"go_version"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	BenchTime   string    `json:"benchtime"`
	Benchmarks  []result  `json:"benchmarks"`
	// Mixed summarizes the read/write decoupling acceptance numbers.
	Mixed *mixedSummary `json:"mixed_read_write,omitempty"`
	// Shipping summarizes the anti-entropy acceptance numbers.
	Shipping *shipSummary `json:"cluster_shipping,omitempty"`
}

// mixedSummary compares ingestion throughput under concurrent reads
// against the read-free ceiling: the epoch ratio is the acceptance
// number (reads no longer stall ingestion), the strict ratio is the
// quiesce-on-every-read baseline it is compared against.
type mixedSummary struct {
	IngestOnlyRowsPerSec    float64 `json:"ingest_only_rows_per_sec"`
	EpochReadersRowsPerSec  float64 `json:"epoch_readers_rows_per_sec"`
	StrictReadersRowsPerSec float64 `json:"strict_readers_rows_per_sec"`
	// EpochVsIngestOnly is epoch-readers throughput as a fraction of
	// the read-free ceiling (acceptance: within ~10%, i.e. ≥ 0.9).
	EpochVsIngestOnly float64 `json:"epoch_vs_ingest_only"`
	// StrictVsIngestOnly is the same fraction for the strict baseline.
	StrictVsIngestOnly float64 `json:"strict_vs_ingest_only"`
	// Reader-observed mean query latency under each mode.
	EpochReadNsPerOp  float64 `json:"epoch_read_ns_per_op,omitempty"`
	StrictReadNsPerOp float64 `json:"strict_read_ns_per_op,omitempty"`
}

// shipSummary compares one aggregator anti-entropy round that ships a
// changed blob against the 304-only probe for an unchanged shard: the
// ratio is the per-round cost the conditional GET saves idle sources.
type shipSummary struct {
	ChangedNsPerRound     float64 `json:"changed_ns_per_round"`
	NotModifiedNsPerRound float64 `json:"not_modified_ns_per_round"`
	// ChangedVsNotModified is changed-round cost as a multiple of the
	// probe-only round (acceptance: > 1, i.e. unchanged shards are
	// strictly cheaper than re-shipping).
	ChangedVsNotModified float64 `json:"changed_vs_not_modified"`
	BlobBytes            float64 `json:"blob_bytes,omitempty"`
}

// workload is one named suite entry; perRow marks workloads whose
// iteration is a single row (enabling the rows/sec conversion).
type workload struct {
	name   string
	perRow bool
	fn     func(*testing.B)
}

func main() {
	// testing.Init registers the testing package's flags (test.benchtime
	// below); without it testing.Benchmark refuses to run outside a test
	// binary.
	testing.Init()
	var (
		out        = flag.String("out", "BENCH.json", "output JSON path")
		benchtime  = flag.Duration("benchtime", time.Second, "target time per benchmark")
		only       = flag.String("only", "", "run only workloads whose name contains this substring")
		reps       = flag.Int("reps", 3, "runs per workload; the fastest is reported (damps scheduler noise)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the runs) to this file")
		maxAllocs  = flag.String("max-allocs", "", "comma-separated name=ceiling allocs/op regression gates (e.g. ingest/batch256=1); exceeding one fails the run")
	)
	flag.Parse()

	ceilings, err := parseMaxAllocs(*maxAllocs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	workloads := []workload{
		{"ingest/batch256", true, benchsuite.IngestBatch},
		{"ingest/sketch256", true, benchsuite.SketchIngest},
		{"query/warm", false, benchsuite.QueryWarm},
		{"query/plan", false, benchsuite.Plan},
		{"query/exact-cold", false, benchsuite.ExactCold},
		{"query/exact-warm", false, benchsuite.ExactWarm},
		{"wal/append256", true, benchsuite.WALAppend},
		{"mixed/ingest-only", true, func(b *testing.B) { benchsuite.MixedReadWrite(b, benchsuite.MixedIngestOnly) }},
		{"mixed/epoch-readers", true, func(b *testing.B) { benchsuite.MixedReadWrite(b, benchsuite.MixedEpochReaders) }},
		{"mixed/strict-readers", true, func(b *testing.B) { benchsuite.MixedReadWrite(b, benchsuite.MixedStrictReaders) }},
		{"ship/changed", false, func(b *testing.B) { benchsuite.ClusterShipping(b, benchsuite.ShipChanged) }},
		{"ship/not-modified", false, func(b *testing.B) { benchsuite.ClusterShipping(b, benchsuite.ShipNotModified) }},
	}

	// testing.Benchmark honours the package-level benchtime flag the
	// testing package registers; set it so every workload gets the same
	// budget.
	if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		fmt.Fprintln(os.Stderr, "bench: setting benchtime:", err)
		os.Exit(1)
	}

	var cpuFile *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench: starting CPU profile:", err)
			os.Exit(1)
		}
		cpuFile = f
	}

	rep := report{
		GeneratedAt: time.Now().UTC(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BenchTime:   benchtime.String(),
	}
	rates := map[string]float64{}
	readNS := map[string]float64{}
	nsOp := map[string]float64{}
	extras := map[string]map[string]float64{}
	for _, w := range workloads {
		if *only != "" && !strings.Contains(w.name, *only) {
			continue
		}
		fmt.Fprintf(os.Stderr, "bench: %-22s", w.name)
		r := testing.Benchmark(w.fn)
		for rep := 1; rep < *reps; rep++ {
			if next := testing.Benchmark(w.fn); next.NsPerOp() < r.NsPerOp() {
				r = next
			}
		}
		res := result{
			Name:        w.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if w.perRow && res.NsPerOp > 0 {
			res.RowsPerSec = 1e9 / res.NsPerOp
			rates[w.name] = res.RowsPerSec
		}
		if len(r.Extra) > 0 {
			res.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Extra[k] = v
			}
			if v, ok := r.Extra["ns/read"]; ok {
				readNS[w.name] = v
			}
		}
		nsOp[w.name] = res.NsPerOp
		extras[w.name] = res.Extra
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Fprintf(os.Stderr, " %12.1f ns/op %8d allocs/op", res.NsPerOp, res.AllocsPerOp)
		if res.RowsPerSec > 0 {
			fmt.Fprintf(os.Stderr, " %14.0f rows/sec", res.RowsPerSec)
		}
		fmt.Fprintln(os.Stderr)
	}

	// The profile covers only the benchmark runs, not report assembly.
	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
		fmt.Fprintf(os.Stderr, "bench: wrote CPU profile %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so the profile shows live state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing heap profile:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "bench: wrote heap profile %s\n", *memprofile)
	}

	if base := rates["mixed/ingest-only"]; base > 0 {
		rep.Mixed = &mixedSummary{
			IngestOnlyRowsPerSec:    base,
			EpochReadersRowsPerSec:  rates["mixed/epoch-readers"],
			StrictReadersRowsPerSec: rates["mixed/strict-readers"],
			EpochVsIngestOnly:       rates["mixed/epoch-readers"] / base,
			StrictVsIngestOnly:      rates["mixed/strict-readers"] / base,
			EpochReadNsPerOp:        readNS["mixed/epoch-readers"],
			StrictReadNsPerOp:       readNS["mixed/strict-readers"],
		}
		fmt.Fprintf(os.Stderr, "bench: mixed ingest retention — epoch %.3f, strict %.3f (1.0 = read-free ceiling)\n",
			rep.Mixed.EpochVsIngestOnly, rep.Mixed.StrictVsIngestOnly)
	}

	if changed, probe := nsOp["ship/changed"], nsOp["ship/not-modified"]; changed > 0 && probe > 0 {
		rep.Shipping = &shipSummary{
			ChangedNsPerRound:     changed,
			NotModifiedNsPerRound: probe,
			ChangedVsNotModified:  changed / probe,
			BlobBytes:             extras["ship/changed"]["blob-bytes"],
		}
		fmt.Fprintf(os.Stderr, "bench: anti-entropy — changed round costs %.1fx a 304 probe (%.0f-byte blob)\n",
			rep.Shipping.ChangedVsNotModified, rep.Shipping.BlobBytes)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d workloads)\n", *out, len(rep.Benchmarks))

	// Allocation regression gates run last, so a failing run still
	// leaves the receipts (and any profiles) behind for diagnosis.
	failed := false
	for _, g := range ceilings {
		found := false
		for _, res := range rep.Benchmarks {
			if res.Name != g.name {
				continue
			}
			found = true
			if res.AllocsPerOp > g.ceiling {
				fmt.Fprintf(os.Stderr, "bench: FAIL %s allocated %d allocs/op, ceiling %d\n",
					res.Name, res.AllocsPerOp, g.ceiling)
				failed = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "bench: FAIL -max-allocs names %q, which did not run\n", g.name)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// allocGate is one parsed -max-allocs entry.
type allocGate struct {
	name    string
	ceiling int64
}

// parseMaxAllocs parses the -max-allocs flag: comma-separated
// name=ceiling pairs.
func parseMaxAllocs(s string) ([]allocGate, error) {
	if s == "" {
		return nil, nil
	}
	var gates []allocGate
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("malformed -max-allocs entry %q (want name=ceiling)", pair)
		}
		ceiling, err := strconv.ParseInt(val, 10, 64)
		if err != nil || ceiling < 0 {
			return nil, fmt.Errorf("malformed -max-allocs ceiling in %q", pair)
		}
		gates = append(gates, allocGate{name: name, ceiling: ceiling})
	}
	return gates, nil
}
