// Command projfreq-router is the client-facing front of a two-tier
// projfreq cluster: it partitions row batches across the ingest
// daemons and proxies reads to a healthy aggregator. The router itself
// is internal/router; this command parses flags into a router.Config
// and serves the result.
//
// Usage:
//
//	projfreq-router -addr :8090 \
//	    -ingest http://n1:8080,http://n2:8080 \
//	    -aggregators http://agg:8081
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/node"
	"repro/internal/router"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "projfreq-router:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg router.Config
	flag.DurationVar(&cfg.Timeout, "timeout", 30*time.Second, "per-upstream HTTP timeout")
	flag.IntVar(&cfg.RetryQueueRows, "retry-queue-rows", 1<<16, "per-node redelivery queue bound in rows (at least 1)")
	flag.DurationVar(&cfg.RetryBase, "retry-base", 50*time.Millisecond, "initial redelivery backoff")
	flag.DurationVar(&cfg.RetryMax, "retry-max", 5*time.Second, "redelivery backoff ceiling (at least -retry-base)")
	flag.DurationVar(&cfg.HealthInterval, "health-interval", time.Second, "aggregator health probe interval (0 disables the probe loop)")
	flag.IntVar(&cfg.HealthThreshold, "health-threshold", 3, "consecutive failed checks before an aggregator is ejected")
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		portfile = flag.String("portfile", "", "write the bound listen address to this file (for harnesses that spawn with :0)")
		ingest   = flag.String("ingest", "", "comma-separated ingest daemon base URLs (required)")
		aggs     = flag.String("aggregators", "", "comma-separated aggregator base URLs (required)")
	)
	flag.Parse()
	if *ingest == "" || *aggs == "" {
		return errors.New("both -ingest and -aggregators are required")
	}
	cfg.Ingest, cfg.Aggregators = strings.Split(*ingest, ","), strings.Split(*aggs, ",")
	r, err := router.New(cfg)
	if err != nil {
		return err
	}
	return node.Serve("projfreq-router", *addr, *portfile, r, r)
}
