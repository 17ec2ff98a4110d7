// Command benchmark is the repository's yardstick: it builds the real
// projfreqd and projfreq-router, spawns them, drives them over HTTP
// from this one process, checks every answer, and prints what a client
// saw — ingest rate, ack, query and visibility latency, recovery time,
// summary size — for four workloads, plus, with -trace 1, a per-layer
// table and a budget that explains the end-to-end median. README.md in
// this directory says what each workload and constant is for.
//
// One run of one workload, as the acceptance driver calls it:
//
//	bash benchmark/run.sh --workload durable-mixed --seed 3 --seconds 10 --trace 0
//
// ends with one JSON line {"correct", "attempted", "failed", "metrics"}.
// Without -workload every workload runs and a receipt is written with
// -out; -repeat k makes k runs per workload and prints medians and
// quartiles; -compare a.json b.json holds two receipts against each
// other under the bounds of BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef names one reported number. The end-to-end list must stay
// equal to BENCHMARK.json (the self-test compares them).
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // share of the baseline median it may worsen by; 0 for per-layer metrics
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_rows_per_s", "rows/s", "higher", 0.25},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"visible_p50_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"summary_bytes", "bytes", "lower", 0.01},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload as a receipt stores it.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Scale     float64                `json:"scale"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples counts what each percentile was taken over; Info holds
	// timings that are not metrics (build, phase lengths).
	Samples map[string]int     `json:"samples"`
	Info    map[string]float64 `json:"info"`
	Procs   map[string]string  `json:"procs"`
	Budget  []budgetRow        `json:"budget,omitempty"`
}

// receipt is the file -out writes and -compare reads.
type receipt struct {
	Env  environment `json:"env"`
	Runs []runResult `json:"runs"`
}

type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Fsync      string `json:"fsync"`
	Load       string `json:"load"`
}

// config is one invocation's settings.
type config struct {
	root    string // the checkout: holds cmd/, internal/ and this directory
	bin     string
	seed    uint64
	seconds int
	trace   int
}

// scale is the one factor every count of every workload is multiplied
// by: -seconds over the twenty the counts were calibrated for, and an
// eighth of that for a traced run.
func (c *config) scale() float64 {
	s := float64(c.seconds) / nominalSeconds
	if c.trace != 0 {
		s /= 8
	}
	return s
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "", "run this one workload and end with the driver's JSON line (default: all four)")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same rows, column sets and patterns")
		seconds = flag.Int("seconds", nominalSeconds, "nominal length of the timed phases; every count scales with it")
		trace   = flag.Int("trace", 0, "1 runs the traced eighth-scale run and reports the per-layer metrics")
		root    = flag.String("root", "", "checkout to build and measure (default: the directory above this one)")
		out     = flag.String("out", "", "write the receipt of this invocation to this file")
		repeat  = flag.Int("repeat", 1, "runs per workload, each with the next seed; prints median and quartiles")
		compare = flag.Bool("compare", false, "compare two receipts: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two receipt files")
		}
		return compareReceipts(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || *repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be at least 1")
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace}
	var err error
	if cfg.root, err = findRoot(*root); err != nil {
		return err
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.bin = filepath.Join(cfg.root, ".bench_build", "bin")
	built, err := buildDaemons(cfg.root, cfg.bin)
	if err != nil {
		return err
	}

	rec := receipt{Env: describeEnvironment(cfg.root)}
	fmt.Printf("commit %s  %s  nproc %d  GOMAXPROCS %d  build %.2fs\n",
		rec.Env.Commit, rec.Env.GoVersion, rec.Env.NumCPU, rec.Env.GOMAXPROCS, built.Seconds())
	for _, w := range selected {
		for k := 0; k < *repeat; k++ {
			run := *cfg
			run.seed = cfg.seed + uint64(k)
			res, err := runWorkload(ctx, &run, w)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res.Info["build_s"] = built.Seconds()
			rec.Runs = append(rec.Runs, *res)
			printRun(os.Stdout, res)
		}
	}
	if *repeat > 1 {
		printSpread(os.Stdout, rec.Runs)
	}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			return err
		}
	}
	if *name != "" && *repeat == 1 {
		// The acceptance driver reads the last line of standard output.
		res := rec.Runs[0]
		defs := endToEnd
		if cfg.trace != 0 {
			defs = perLayer
		}
		metrics := make(map[string]metricValue, len(defs))
		for _, def := range defs {
			metrics[def.name] = res.Metrics[def.name]
		}
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// findRoot locates the checkout. The benchmark is run from its own
// directory (run.sh) or from the checkout's root.
func findRoot(flagged string) (string, error) {
	candidates := []string{flagged}
	if flagged == "" {
		candidates = []string{"..", "."}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "cmd", "projfreqd")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("no checkout with cmd/projfreqd at %q: the benchmark measures the repository it sits in", candidates)
}

func describeEnvironment(root string) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Fsync:      "durable-mixed: -fsync always; cluster-router ingest nodes: -fsync interval (100ms); files sit on the sandbox's page cache, so fsync latency is the sandbox's and not a device's",
		Load:       "one closed-loop writer of 256-row batches (exact-coldquery: 4096-row requests); visibility poller every 10ms; durable-mixed reader open loop every 20ms, timed from due time; queries one at a time",
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// runWorkload makes one run of w and folds what the phases collected
// into the named metrics.
func runWorkload(ctx context.Context, cfg *config, w *workload) (*runResult, error) {
	if cfg.trace != 0 {
		return runTraced(ctx, cfg, w)
	}
	r, err := execute(ctx, cfg, w, cfg.scale(), nil, nil)
	if err != nil {
		return nil, err
	}
	res := r.result(cfg)
	for _, def := range endToEnd {
		if _, ok := res.Metrics[def.name]; !ok {
			return nil, fmt.Errorf("phase produced no %s", def.name)
		}
	}
	return res, nil
}

// execute runs the phases of w at the given scale. With a tracer the
// client calls are recorded as spans; live, when set, is called after
// the answers are verified and before the crash, while the topology
// still serves.
func execute(ctx context.Context, cfg *config, w *workload, scale float64, tr *tracer, live func(*runner) error) (r *runner, err error) {
	sz := w.sizesFor(scale)
	l, err := newLauncher(cfg.bin, workDir(cfg.root))
	if err != nil {
		return nil, err
	}
	r = newRunner(w, sz, generate(w, sz, cfg.seed), l, tr)
	defer func() {
		keep := filepath.Join(cfg.root, "benchmark", "out", "logs-"+w.name)
		failed := err != nil || r.failed > 0
		if cerr := l.cleanup(failed, keep); err == nil {
			err = cerr
		}
		if failed {
			fmt.Fprintf(os.Stderr, "benchmark: %s failed; daemon logs kept in %s\n", w.name, keep)
		}
	}()
	for i := 0; i < sz.setups; i++ {
		if i > 0 {
			r.tearDown()
		}
		if err := r.setUp(); err != nil {
			return r, err
		}
		switch {
		case i == sz.setups-1:
			// The topology that stays up: ingest and visibility probes
			// take turns, block by block, so that each is sampled over
			// the whole run and not in one window of it.
			for k := 0; k < sz.blocks; k++ {
				r.ingest(ctx, share(sz.ingest, k, sz.blocks))
				r.probeVisibility(share(sz.probes, k, sz.blocks))
			}
		case i >= sz.setups-sz.rounds:
			r.ingest(ctx, sz.ingest)
		}
		if err := ctx.Err(); err != nil {
			return r, err
		}
	}
	r.queries()
	r.fetchSummary()
	r.verify()
	if live != nil {
		if err := live(r); err != nil {
			return r, err
		}
	}
	if err := r.crash(); err != nil {
		return r, err
	}
	l.stopAll()
	return r, nil
}

// share is the k-th of parts nearly equal shares of n.
func share(n, k, parts int) int { return n*(k+1)/parts - n*k/parts }

// result names what the run measured.
func (r *runner) result(cfg *config) *runResult {
	res := &runResult{
		Workload: r.w.name, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale(), Trace: cfg.trace,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures, Correct: r.failed == 0,
		Metrics: map[string]metricValue{}, Samples: map[string]int{}, Info: map[string]float64{},
		Procs: r.l.argvs(),
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metricValue{v, unit} }
	visible := r.visibility()
	put("setup_s", "s", median(r.setup))
	put("ingest_rows_per_s", "rows/s", median(r.ingestRate))
	put("ack_p50_ms", "ms", percentile(r.acks, 50))
	put("ack_p99_ms", "ms", percentile(r.acks, 99))
	put("query_p50_ms", "ms", percentile(r.queryLat, 50))
	put("query_p95_ms", "ms", percentile(r.queryLat, 95))
	put("visible_p50_ms", "ms", percentile(visible, 50))
	put("visible_p95_ms", "ms", percentile(visible, 95))
	put("recover_s", "s", mean(r.recover))
	put("summary_bytes", "bytes", float64(len(r.summary)))
	res.Samples["setup"] = len(r.setup)
	res.Samples["ack"] = len(r.acks)
	res.Samples["query"] = len(r.queryLat)
	res.Samples["visible"] = len(visible)
	res.Samples["recover"] = r.recoveries
	res.Samples["rows"] = r.sent * batchRows
	res.Samples["ingest_rounds"] = len(r.ingestRate)
	return res
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// printRun prints every metric of one run by name, with its unit.
func printRun(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "\n== %s  seed %d  scale %.4g  trace %d  (%d ops, %d failed)\n",
		res.Workload, res.Seed, res.Scale, res.Trace, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	var samples []string
	for k, v := range res.Samples {
		samples = append(samples, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(samples)
	fmt.Fprintf(w, "  samples: %s\n", strings.Join(samples, " "))
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	printBudget(w, res)
}
