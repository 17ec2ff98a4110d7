// Package experiments contains one driver per reproduced artifact of
// the paper: Table 1, Figure 1 (all panes), and an empirical
// validation for every theorem with algorithmic content, each
// registered under an ID that cmd/experiments -list prints. Drivers are deterministic given Options.Seed and
// return structured Reports that the cmd/ tools render as text or CSV
// and the test suite asserts shapes on.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Options configures a driver run.
type Options struct {
	// Seed drives all randomness; equal seeds reproduce reports
	// exactly.
	Seed uint64
	// Quick shrinks parameters for CI-speed runs (used by tests);
	// the full-size run regenerates the numbers in EXPERIMENTS.md.
	Quick bool
}

// Report is a driver's structured output.
type Report struct {
	ID     string
	Title  string
	Tables []*Table
	Notes  []string
}

// Table is a rectangular result block.
type Table struct {
	Name    string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row; values are Sprint-ed.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1e6 || x < 1e-3:
		return fmt.Sprintf("%.3g", x)
	case x >= 100:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.4g", x)
	}
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		return b.String()
	}
	if t.Name != "" {
		if _, err := fmt.Fprintf(w, "## %s\n", t.Name); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as comma-separated values.
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders the full report.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if err := t.WriteText(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Runner is a registered experiment driver.
type Runner func(Options) (*Report, error)

var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes the driver with the given ID.
func Run(id string, opt Options) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(opt)
}
