// Command projfreqd serves a sharded projected-frequency summary over
// HTTP. The daemon itself — endpoints, durability, anti-entropy — is
// internal/node; this command parses flags into a node.Config and
// serves the result.
//
// Usage:
//
//	projfreqd -addr :8080 -summary net -d 8 -q 8 -alpha 0.3 -seed 7
//	projfreqd -summary sample -d 12 -q 2 -eps 0.02 -shards 8
//	projfreqd -summary exact -d 8 -q 8 -shards 4 -data-dir /var/lib/projfreq -fsync always
//	projfreqd -summary exact -d 8 -q 8 -pull-from http://n1:8080,http://n2:8080
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints for the opt-in -pprof listener
	"os"
	"strings"
	"time"

	"repro/internal/node"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "projfreqd:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg node.Config
	flag.StringVar(&cfg.Summary, "summary", "exact", "summary kind: exact | sample | net")
	flag.IntVar(&cfg.D, "d", 8, "number of columns")
	flag.IntVar(&cfg.Q, "q", 2, "alphabet size Q")
	flag.Float64Var(&cfg.Eps, "eps", 0.05, "accuracy parameter")
	flag.Float64Var(&cfg.Delta, "delta", 0.01, "failure probability (sample summary)")
	flag.Float64Var(&cfg.Alpha, "alpha", 0.3, "alpha-net parameter (net summary)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.IntVar(&cfg.Shards, "shards", 0, "ingest shard count (0 = GOMAXPROCS)")
	flag.StringVar(&cfg.DataDir, "data-dir", "", "durability directory (WAL + checkpoints); empty = in-memory only")
	flag.StringVar(&cfg.Fsync, "fsync", "interval", "WAL fsync policy: always | interval | never")
	flag.Int64Var(&cfg.CheckpointRows, "checkpoint-rows", 1<<20, "checkpoint after this many new rows (0 disables the row trigger)")
	flag.DurationVar(&cfg.CheckpointInterval, "checkpoint-interval", 5*time.Minute, "checkpoint at least this often while data arrives (0 disables the timer)")
	flag.DurationVar(&cfg.PullInterval, "pull-interval", time.Second, "anti-entropy pull cadence (aggregator only)")
	flag.DurationVar(&cfg.PullTimeout, "pull-timeout", 10*time.Second, "per-pull HTTP timeout (aggregator pulls and admin hand-offs)")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		pullFrom = flag.String("pull-from", "", "comma-separated ingest-node base URLs to pull summaries from (makes this daemon an aggregator)")
		pprofAd  = flag.String("pprof", "", "pprof listen address (e.g. localhost:6060); empty disables profiling")
		portfile = flag.String("portfile", "", "write the bound listen address to this file once serving (for -addr :0 callers like the cluster test harness)")
	)
	flag.Parse()
	if *pullFrom != "" {
		cfg.PullFrom = strings.Split(*pullFrom, ",")
	}
	n, err := node.New(cfg)
	if err != nil {
		return err
	}
	if *pprofAd != "" {
		// net/http/pprof registers on the default mux; the API server
		// uses the node's own mux, so this listener exposes only the
		// profiling endpoints — keep it bound to a loopback or otherwise
		// non-public address.
		go func() {
			log.Printf("projfreqd: pprof on %s", *pprofAd)
			if err := http.ListenAndServe(*pprofAd, nil); err != nil {
				log.Printf("projfreqd: pprof listener: %v", err)
			}
		}()
	}
	return node.Serve("projfreqd", *addr, *portfile, n, n)
}
