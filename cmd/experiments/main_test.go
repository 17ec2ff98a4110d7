package main

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRunAllQuickSmoke runs one cheap experiment end-to-end in quick
// mode and checks that a non-empty report reaches the writer.
func TestRunAllQuickSmoke(t *testing.T) {
	ids := experiments.IDs()
	if len(ids) == 0 {
		t.Fatal("no experiments registered")
	}
	var out strings.Builder
	if err := runAll(ids[:1], experiments.Options{Seed: 1, Quick: true}, false, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("experiment produced no output")
	}
}

// TestRunAllCSV exercises the CSV rendering path.
func TestRunAllCSV(t *testing.T) {
	ids := experiments.IDs()
	var out strings.Builder
	if err := runAll(ids[:1], experiments.Options{Seed: 1, Quick: true}, true, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "#") {
		t.Fatalf("CSV output missing table headers: %q", out.String())
	}
}

// TestRunAllUnknownID must surface the registry error.
func TestRunAllUnknownID(t *testing.T) {
	var out strings.Builder
	if err := runAll([]string{"nope"}, experiments.Options{Quick: true}, false, &out); err == nil {
		t.Fatal("unknown experiment ID must error")
	}
}

// csvSection returns the CSV lines (header first) of the table whose
// "# <id> / <name>" banner starts with prefix.
func csvSection(t *testing.T, out, prefix string) []string {
	t.Helper()
	var lines []string
	in := false
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "# ") {
			in = strings.HasPrefix(l, prefix)
			continue
		}
		if in && l != "" {
			lines = append(lines, l)
		}
	}
	if len(lines) == 0 {
		t.Fatalf("no %q section in %q", prefix, out)
	}
	return lines
}

// TestE2CSVPrintsFigure1Sweep: `-run E2 -csv` prints Figure 1's
// analytic sweep at d = 20 — α = i/40 for i = 1..19 — as a header plus
// 19 five-column rows, in any mode.
func TestE2CSVPrintsFigure1Sweep(t *testing.T) {
	var out strings.Builder
	if err := runAll([]string{"E2"}, experiments.Options{Seed: 1, Quick: true}, true, &out); err != nil {
		t.Fatal(err)
	}
	lines := csvSection(t, out.String(), "# E2 / Figure 1 (analytic, d=20)")
	if len(lines) != 20 {
		t.Fatalf("want header + 19 rows, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "alpha,") {
		t.Fatalf("missing CSV header: %q", lines[0])
	}
	for i, l := range lines {
		cells := strings.Split(l, ",")
		if len(cells) != 5 {
			t.Fatalf("line %d has %d columns: %q", i, len(cells), l)
		}
		if i == 0 {
			continue
		}
		if alpha, err := strconv.ParseFloat(cells[0], 64); err != nil || math.Abs(alpha-float64(i)/40) > 1e-9 {
			t.Fatalf("row %d: alpha %q, want %v", i, cells[0], float64(i)/40)
		}
	}
}

// TestE1QuickPrintsLowerBoundRows: `-run E1` prints the Theorem 4.1
// construction and its Corollary 4.4 alphabet reduction, and both
// measure a separation at least the theory's factor.
func TestE1QuickPrintsLowerBoundRows(t *testing.T) {
	var out strings.Builder
	if err := runAll([]string{"E1"}, experiments.Options{Seed: 1, Quick: true}, true, &out); err != nil {
		t.Fatal(err)
	}
	lines := csvSection(t, out.String(), "# E1 / ")
	for _, label := range []string{"Thm 4.1", "Cor 4.4"} {
		found := false
		for _, l := range lines[1:] {
			if cells := strings.Split(l, ","); cells[0] == label {
				found = true
				if cells[len(cells)-1] != "true" {
					t.Errorf("%s: separation below the factor: %q", label, l)
				}
			}
		}
		if !found {
			t.Errorf("no %s row in %q", label, lines)
		}
	}
}
