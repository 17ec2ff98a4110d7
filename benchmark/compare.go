package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// series gathers one metric's values over a receipt's runs of one
// workload.
type series struct {
	workload, metric, unit string
	values                 []float64
}

// collect groups the metrics of runs by workload and metric, workloads
// and metrics in the order they are declared (end-to-end first).
func collect(runs []runResult) []series {
	index := map[[2]string]*series{}
	for _, run := range runs {
		for name, m := range run.Metrics {
			key := [2]string{run.Workload, name}
			if index[key] == nil {
				index[key] = &series{workload: run.Workload, metric: name, unit: m.Unit}
			}
			index[key].values = append(index[key].values, m.Value)
		}
	}
	var out []series
	for _, w := range workloads {
		for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if s := index[[2]string{w.name, def.name}]; s != nil {
				out = append(out, *s)
			}
		}
	}
	return out
}

// spread is the distance between the quartiles as a share of the
// median: the acceptance rule's measure of run-to-run noise. One value
// has no spread.
func (s series) spread() float64 {
	if len(s.values) < 2 {
		return 0
	}
	q1, q3 := quartiles(s.values)
	if m := median(s.values); m != 0 {
		return math.Abs((q3 - q1) / m)
	}
	return 0
}

func boundOf(metric string) (metricDef, bool) {
	for _, def := range endToEnd {
		if def.name == metric {
			return def, true
		}
	}
	return metricDef{}, false
}

// printSpread prints, per workload and metric, the median and
// quartiles over the repeated runs, and marks a spread wider than a
// third of the metric's bound: the target the benchmark's phase
// lengths were chosen to meet.
func printSpread(w io.Writer, runs []runResult) {
	fmt.Fprintf(w, "\n%-16s %-20s %5s %14s %14s %14s %8s %7s\n",
		"workload", "metric", "runs", "q1", "median", "q3", "spread", "bound")
	for _, s := range collect(runs) {
		q1, q3 := quartiles(s.values)
		def, bounded := boundOf(s.metric)
		note := ""
		if bounded && s.spread() > def.bound/3 {
			note = "  > bound/3"
		}
		if bounded && s.spread() > def.bound {
			note = "  > BOUND"
		}
		fmt.Fprintf(w, "%-16s %-20s %5d %14.6g %14.6g %14.6g %7.2f%% %6.0f%%%s\n",
			s.workload, s.metric, len(s.values), q1, median(s.values), q3, 100*s.spread(), 100*def.bound, note)
	}
}

func readReceipt(path string) (*receipt, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := new(receipt)
	if err := json.Unmarshal(blob, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// compareReceipts prints one row per (workload, metric) both receipts
// hold: both medians, their ratio with the first as base, the bound,
// and a verdict. A metric whose spread in either receipt is wider than
// its bound cannot resolve a change of that size and is reported as
// unresolved, not as unchanged.
func compareReceipts(w io.Writer, pathA, pathB string) error {
	a, err := readReceipt(pathA)
	if err != nil {
		return err
	}
	b, err := readReceipt(pathB)
	if err != nil {
		return err
	}
	other := map[[2]string]series{}
	for _, s := range collect(b.Runs) {
		other[[2]string{s.workload, s.metric}] = s
	}
	fmt.Fprintf(w, "base %s (%s), against %s (%s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "base median", "median", "ratio", "bound", "spread a", "spread b", "verdict")
	for _, sa := range collect(a.Runs) {
		sb, ok := other[[2]string{sa.workload, sa.metric}]
		def, bounded := boundOf(sa.metric)
		if !ok || !bounded {
			continue
		}
		ma, mb := median(sa.values), median(sb.values)
		ratio := mb / ma
		worse := ratio - 1
		if def.better == "higher" {
			worse = 1 - ratio
		}
		verdict := "within bound"
		switch {
		case sa.spread() > def.bound || sb.spread() > def.bound:
			verdict = "unresolved"
		case worse > def.bound:
			verdict = "worse"
		case worse < -def.bound:
			verdict = "better"
		}
		fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %8.4fx %6.0f%% %7.2f%% %7.2f%%  %s\n",
			sa.workload, sa.metric, ma, mb, ratio, 100*def.bound, 100*sa.spread(), 100*sb.spread(), verdict)
	}
	return nil
}
