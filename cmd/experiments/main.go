// Command experiments runs the paper-reproduction experiment suite
// (Table 1, Figure 1, the per-theorem validations E1–E9 and the E10
// rounding ablation; -list prints the IDs) and renders the reports as
// text or CSV.
//
// Usage:
//
//	experiments [-run E1,E4] [-seed 1] [-quick] [-csv]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	seed := flag.Uint64("seed", 1, "master random seed")
	quick := flag.Bool("quick", false, "shrink parameters for a fast pass")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	var ids []string
	if *run != "" {
		ids = strings.Split(*run, ",")
	}
	if err := runAll(ids, experiments.Options{Seed: *seed, Quick: *quick}, *csv, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runAll executes the selected experiments (all of them when ids is
// empty) and renders each report to out.
func runAll(ids []string, opt experiments.Options, csv bool, out io.Writer) error {
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		rep, err := experiments.Run(id, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if csv {
			for _, t := range rep.Tables {
				fmt.Fprintf(out, "# %s / %s\n", rep.ID, t.Name)
				if err := t.WriteCSV(out); err != nil {
					return err
				}
			}
			continue
		}
		if err := rep.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}
