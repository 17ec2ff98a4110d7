// Command projfreq builds a summary over a CSV dataset and answers
// projected frequency queries on column subsets chosen after the data
// was read — the paper's computational model as a command-line tool.
//
// Usage:
//
//	projfreq -data rows.csv -q 4 -summary sample -query 0,2,5 -stats f0,f1,hh
//	projfreq -demo -summary net -alpha 0.3 -query 0,1,2,3
//	projfreq -demo -summary exact -shards 8 -query 0,1 -batch "0,1;2,3;0,1"
//
// The -demo flag generates a built-in census-like dataset so the tool
// runs without any input file. With -shards N ingestion fans out
// across an N-shard parallel engine; -batch answers a semicolon-
// separated list of extra F0 projections as one batched query. Rows
// are always ingested in flat 512-row batches (words.Batch).
//
// The tool is also the remote writer of the projfreqd deployment
// model (ARCHITECTURE.md): -save writes the built summary's wire form
// to a file, -push POSTs it to a running projfreqd daemon, and -load
// answers queries from a previously saved blob without re-reading any
// data. A push is named after its input (pushSource), and the daemon
// keeps each name's latest push, so re-pushing an input replaces it:
//
//	projfreq -demo -summary net -save shard.pfqs -query 0,1
//	projfreq -demo -summary net -push http://localhost:8080 -query 0,1
//	projfreq -load shard.pfqs -query 0,1 -stats f0
//
// -save stages the blob in a temporary file and renames it into
// place, so an interrupted save never leaves a torn file. Finally,
// -inspect-dir audits a projfreqd -data-dir offline — every WAL
// segment and checkpoint listed with its CRCs verified, then the
// checkpoint and log a boot would restore and replay:
//
//	projfreq -inspect-dir /var/lib/projfreq
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/freq"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/words"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "projfreq:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataPath   = flag.String("data", "", "CSV file of rows (symbols in [q])")
		q          = flag.Int("q", 2, "alphabet size Q")
		demo       = flag.Bool("demo", false, "use a built-in demo dataset instead of -data")
		kind       = flag.String("summary", "exact", "summary kind: exact | sample | net")
		eps        = flag.Float64("eps", 0.05, "accuracy parameter")
		delta      = flag.Float64("delta", 0.01, "failure probability (sample summary)")
		alpha      = flag.Float64("alpha", 0.3, "alpha-net parameter (net summary)")
		seed       = flag.Uint64("seed", 1, "random seed")
		queryStr   = flag.String("query", "", "comma-separated column indices (required)")
		statsStr   = flag.String("stats", "f0,f1", "comma-separated stats: f0,f1,f2,hh,freq:<pattern>")
		phi        = flag.Float64("phi", 0.1, "heavy hitter threshold")
		shards     = flag.Int("shards", 0, "ingest through an N-shard parallel engine (0 = direct)")
		batchStr   = flag.String("batch", "", "semicolon-separated column lists answered as one F0 query batch (requires -shards)")
		savePath   = flag.String("save", "", "write the built summary's wire form to this file")
		pushURL    = flag.String("push", "", "POST the built summary's wire form to this projfreqd base URL")
		loadPath   = flag.String("load", "", "answer queries from a saved summary blob instead of building one")
		inspectDir = flag.String("inspect-dir", "", "list and CRC-verify a projfreqd data directory (WAL segments + checkpoints), then exit")
	)
	flag.Parse()

	if *inspectDir != "" {
		if *dataPath != "" || *demo || *loadPath != "" || *queryStr != "" ||
			*savePath != "" || *pushURL != "" || *shards > 0 || *batchStr != "" {
			return fmt.Errorf("-inspect-dir only inspects; it cannot be combined with -data, -demo, -load, -query, -save, -push, -shards, or -batch")
		}
		return inspect(*inspectDir, os.Stdout)
	}

	var (
		table *words.Table
		sum   core.Summary
		eng   *engine.Sharded
		d     int
	)
	if *loadPath != "" {
		if *dataPath != "" || *demo {
			return fmt.Errorf("-load replaces -data/-demo: the blob already holds the summary")
		}
		if *shards > 0 || *batchStr != "" || *savePath != "" || *pushURL != "" {
			return fmt.Errorf("-load only answers queries; it cannot be combined with -shards, -batch, -save, or -push")
		}
		blob, err := os.ReadFile(*loadPath)
		if err != nil {
			return err
		}
		sum, err = core.UnmarshalSummary(blob)
		if err != nil {
			return fmt.Errorf("decoding %s: %w", *loadPath, err)
		}
		d = sum.Dim()
	} else {
		var err error
		table, err = loadData(*dataPath, *demo, *q, *seed)
		if err != nil {
			return err
		}
		d = table.Dim()
	}
	if *queryStr == "" {
		return fmt.Errorf("missing -query (columns in [0,%d))", d)
	}
	cols, err := parseInts(*queryStr)
	if err != nil {
		return err
	}
	c, err := words.NewColumnSet(d, cols...)
	if err != nil {
		return err
	}

	if *batchStr != "" && *shards <= 0 {
		return fmt.Errorf("-batch requires -shards")
	}
	if table != nil {
		var err2 error
		if *shards > 0 {
			eng, err2 = engine.NewSharded(func(shard int) (core.Summary, error) {
				return engine.StandardSummary(*kind, d, table.Alphabet(), *eps, *delta, *alpha, *seed, shard)
			}, engine.Config{Shards: *shards})
			if err2 != nil {
				return err2
			}
			defer eng.Close()
			sum = eng
		} else {
			sum, err2 = engine.StandardSummary(*kind, d, table.Alphabet(), *eps, *delta, *alpha, *seed, 0)
			if err2 != nil {
				return err2
			}
		}
		ingest(sum, table)
	}
	fmt.Printf("summary=%s rows=%d dim=%d alphabet=%d bytes=%d\n",
		sum.Name(), sum.Rows(), d, sum.Alphabet(), sum.SizeBytes())
	fmt.Printf("query C=%v (|C|=%d)\n", c, c.Len())

	for _, stat := range strings.Split(*statsStr, ",") {
		stat = strings.TrimSpace(stat)
		if err := answer(sum, table, c, stat, *phi, *seed); err != nil {
			return err
		}
	}
	if *batchStr != "" {
		if err := runBatch(eng, d, *batchStr); err != nil {
			return err
		}
	}
	if *savePath != "" || *pushURL != "" {
		blob, err := core.MarshalSummary(sum)
		if err != nil {
			return err
		}
		if *savePath != "" {
			// Staged write + rename: a crash mid-save can truncate a
			// plain WriteFile and leave a torn blob where a good one may
			// have been; the atomic helper (shared with the store's
			// checkpoints) leaves either the old file or the whole new
			// one.
			if err := store.WriteFileAtomic(*savePath, blob, 0o644); err != nil {
				return err
			}
			fmt.Printf("saved %d-byte summary to %s\n", len(blob), *savePath)
		}
		if *pushURL != "" {
			source, err := pushSource(*dataPath)
			if err != nil {
				return err
			}
			if err := pushSummary(*pushURL, source, blob); err != nil {
				return err
			}
		}
	}
	return nil
}

// ingestBatchRows is how many rows enter a summary (or the sharded
// engine's chunk router) per ObserveBatch call: a batch's rows, keys
// and fingerprints stay L1-resident at 512 rows of 16 columns (256–512
// rows measured 21 ns/row through the key pipeline, 4096 rows 27).
const ingestBatchRows = 512

// ingest feeds every row of t into sum, in order, a batch at a time.
func ingest(sum core.Summary, t *words.Table) {
	all := t.Batch()
	for lo := 0; lo < all.Len(); lo += ingestBatchRows {
		sum.ObserveBatch(all.Slice(lo, min(lo+ingestBatchRows, all.Len())))
	}
}

// inspect prints the -inspect-dir report: every WAL segment and
// checkpoint in a projfreqd data directory, with frame and checkpoint
// CRCs verified and damage called out (a torn tail on the last
// segment is what a crash mid-append leaves; recovery tolerates it),
// then what a boot would restore, read and replay. Nothing is
// modified.
func inspect(dir string, out io.Writer) error {
	rep, err := store.Inspect(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "data directory %s (d=%d, Q=%d)\n", dir, rep.Dim, rep.Alphabet)
	fmt.Fprintf(out, "segments (%d):\n", len(rep.Segments))
	damaged := 0
	for _, s := range rep.Segments {
		switch {
		case s.Err != "":
			damaged++
			fmt.Fprintf(out, "  %s  %d bytes  CORRUPT: %s\n", s.Name, s.Bytes, s.Err)
		case s.Torn:
			damaged++
			fmt.Fprintf(out, "  %s  lsn=%d records=%d rows=%d bytes=%d  TORN TAIL (last frame incomplete)\n",
				s.Name, s.FirstLSN, s.Records, s.Rows, s.Bytes)
		default:
			fmt.Fprintf(out, "  %s  lsn=%d records=%d rows=%d bytes=%d  ok\n",
				s.Name, s.FirstLSN, s.Records, s.Rows, s.Bytes)
		}
	}
	fmt.Fprintf(out, "checkpoints (%d):\n", len(rep.Checkpoints))
	for _, c := range rep.Checkpoints {
		if c.Err != "" {
			damaged++
			fmt.Fprintf(out, "  %s  %d bytes  CORRUPT: %s\n", c.Name, c.Bytes, c.Err)
			continue
		}
		fmt.Fprintf(out, "  %s  lsn=%d rows=%d shards=%d subspaces=%d sources=%d bytes=%d  ok\n",
			c.Name, c.LSN, c.Rows, c.Shards, c.Subspaces, c.Sources, c.Bytes)
	}
	if damaged > 0 {
		fmt.Fprintf(out, "%d damaged file(s)\n", damaged)
	}
	b := rep.Boot
	if b.Err != "" {
		fmt.Fprintf(out, "boot: refuses the directory: %s\n", b.Err)
		return nil
	}
	restores := "no usable checkpoint, replays the whole log"
	if b.Checkpoint != "" {
		restores = fmt.Sprintf("restores %s (lsn=%d)", b.Checkpoint, b.CheckpointLSN)
	}
	fmt.Fprintf(out, "boot: %s; reads %d segment(s), %d bytes, skips %d below the cut; replays records=%d rows=%d\n",
		restores, b.Segments, b.Bytes, b.Skipped, b.Records, b.Rows)
	return nil
}

// pushSource names a push after its input: <hostname>:<absolute path>
// of the -data file, or <hostname>:demo.
func pushSource(dataPath string) (string, error) {
	host, err := os.Hostname()
	if err != nil || dataPath == "" {
		return host + ":demo", err
	}
	abs, err := filepath.Abs(dataPath)
	return host + ":" + abs, err
}

// pushSummary POSTs a wire blob to a projfreqd daemon's push endpoint
// as the named source and reports the daemon's served row total.
func pushSummary(baseURL, source string, blob []byte) error {
	url := strings.TrimSuffix(baseURL, "/") + "/v1/push?source=" + neturl.QueryEscape(source)
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("push to %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	var ack struct {
		RowsMerged int64 `json:"rows_merged"`
		Rows       int64 `json:"rows"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("push to %s: decoding ack: %w", url, err)
	}
	fmt.Printf("pushed %d bytes as source %q: %d rows, daemon now serving %d\n", len(blob), source, ack.RowsMerged, ack.Rows)
	return nil
}

// runBatch answers a semicolon-separated list of F0 projections as
// one QueryBatch against the sharded engine's merged snapshot.
func runBatch(eng *engine.Sharded, d int, spec string) error {
	var queries []engine.Query
	for _, part := range strings.Split(spec, ";") {
		cols, err := parseInts(strings.TrimSpace(part))
		if err != nil {
			return err
		}
		c, err := words.NewColumnSet(d, cols...)
		if err != nil {
			return err
		}
		queries = append(queries, engine.Query{Kind: engine.KindF0, Cols: c})
	}
	fmt.Printf("batch: %d F0 queries in one QueryBatch\n", len(queries))
	for i, r := range eng.QueryBatch(queries) {
		switch {
		case errors.Is(r.Err, core.ErrUnsupported):
			fmt.Printf("  F0%v: unsupported by this summary\n", queries[i].Cols)
		case r.Err != nil:
			return r.Err
		default:
			fmt.Printf("  F0%v = %.1f\n", queries[i].Cols, r.Value)
		}
	}
	return nil
}

func loadData(path string, demo bool, q int, seed uint64) (*words.Table, error) {
	if demo {
		src, err := workload.Census(workload.CensusConfig{
			N: 20000, Card: []int{6, 4, 8, 5, 3, 4, 6, 2}, Groups: 12,
			Skew: 1.1, Mixing: 0.15, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return words.Collect(src, -1), nil
	}
	if path == "" {
		return nil, fmt.Errorf("need -data or -demo")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return words.ReadCSV(f, q)
}

// supported classifies a query error: ok means the answer may be
// printed, fatal aborts the run; (!ok, nil) falls through to the
// stat's "unsupported" message. The sharded engine reports capability
// gaps at query time via ErrUnsupported rather than by not
// implementing the interface.
func supported(err error) (ok bool, fatal error) {
	if err == nil {
		return true, nil
	}
	if errors.Is(err, core.ErrUnsupported) {
		return false, nil
	}
	return false, err
}

func answer(sum core.Summary, table *words.Table, c words.ColumnSet, stat string, phi float64, seed uint64) error {
	switch {
	case stat == "f0":
		if q, qok := sum.(core.F0Querier); qok {
			v, err := q.F0(c)
			if ok, fatal := supported(err); fatal != nil {
				return fatal
			} else if ok {
				fmt.Printf("  F0 = %.1f\n", v)
				return nil
			}
		}
		if table == nil {
			fmt.Println("  F0: unsupported by this summary (Section 4 lower bound)")
			return nil
		}
		fmt.Printf("  F0: unsupported by this summary (Section 4 lower bound); exact = %d\n",
			freq.FromTable(table, c).Support())
	case stat == "f1":
		fmt.Printf("  F1 = %d (query-independent)\n", sum.Rows())
	case stat == "f2":
		if q, qok := sum.(core.FpQuerier); qok {
			v, err := q.Fp(c, 2)
			if ok, fatal := supported(err); fatal != nil {
				return fatal
			} else if ok {
				fmt.Printf("  F2 = %.1f\n", v)
				return nil
			}
		}
		if table == nil {
			fmt.Println("  F2: unsupported by this summary (Theorem 5.4)")
			return nil
		}
		fmt.Printf("  F2: unsupported by this summary (Theorem 5.4); exact = %.1f\n",
			freq.FromTable(table, c).F(2))
	case stat == "hh":
		if q, qok := sum.(core.HeavyHitterQuerier); qok {
			hits, err := q.HeavyHitters(c, 1, phi)
			if ok, fatal := supported(err); fatal != nil {
				return fatal
			} else if ok {
				fmt.Printf("  heavy hitters (phi=%.2f, l1): %d found\n", phi, len(hits))
				for i, h := range hits {
					if i == 10 {
						fmt.Println("    ...")
						break
					}
					fmt.Printf("    %v  est=%.1f\n", h.Pattern, h.Estimate)
				}
				return nil
			}
		}
		fmt.Println("  hh: unsupported by this summary")
	case strings.HasPrefix(stat, "freq:"):
		pat, err := parsePattern(strings.TrimPrefix(stat, "freq:"), c.Len())
		if err != nil {
			return err
		}
		if q, qok := sum.(core.FrequencyQuerier); qok {
			v, err := q.Frequency(c, pat)
			if ok, fatal := supported(err); fatal != nil {
				return fatal
			} else if ok {
				fmt.Printf("  f(%v) = %.1f\n", pat, v)
				return nil
			}
		}
		fmt.Println("  freq: unsupported by this summary")
	case strings.HasPrefix(stat, "sample:"):
		p, err := strconv.ParseFloat(strings.TrimPrefix(stat, "sample:"), 64)
		if err != nil {
			return err
		}
		if q, ok := sum.(core.LpSampleQuerier); ok {
			s, err := q.SampleLp(c, p, rng.New(seed^0x5a))
			if err != nil {
				return err
			}
			fmt.Printf("  l%.2g-sample: %v (p=%.4g)\n", p, s.Pattern, s.Probability)
			return nil
		}
		fmt.Println("  sample: unsupported by this summary (Theorem 5.5)")
	default:
		return fmt.Errorf("unknown stat %q", stat)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad column %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parsePattern(s string, want int) (words.Word, error) {
	vals, err := parseInts(s)
	if err != nil {
		return nil, err
	}
	if len(vals) != want {
		return nil, fmt.Errorf("pattern has %d symbols, query has %d columns", len(vals), want)
	}
	w := make(words.Word, len(vals))
	for i, v := range vals {
		if v < 0 || v >= words.MaxAlphabet {
			return nil, fmt.Errorf("symbol %d out of range", v)
		}
		w[i] = uint16(v)
	}
	return w, nil
}
