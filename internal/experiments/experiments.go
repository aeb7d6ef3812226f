// Package experiments implements the reproduction harness: one
// experiment per claim or figure in the paper, each producing a table
// whose shape can be compared against the paper's qualitative claims.
// The paper (PLDI 1993) reports no absolute numbers — its evaluation
// is the pair of proportionality claims in the abstract plus four
// figures — so each experiment measures the claim directly, reporting
// both wall-clock time and the collector's own work counters (which
// are deterministic and noise-free).
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result.
type Table struct {
	ID         string
	Title      string
	PaperClaim string
	Header     []string
	Rows       [][]string
	Notes      string
}

// RenderCSV writes the table as CSV (header row then data rows).
func (t *Table) RenderCSV(w io.Writer) {
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title)
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	fmt.Fprintln(w)
}

// Render writes the table in aligned-column form.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "   paper: %s\n", t.PaperClaim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "   %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "   note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Experiment couples an id to its runner.
type Experiment struct {
	ID   string
	Run  func() Table
	Desc string
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"e1", E1, "collector overhead proportional to work done (old registrations free)"},
		{"e2", E2, "mutator overhead proportional to clean-ups performed"},
		{"e3", E3, "guarded hash table reclaims entries (Figure 1)"},
		{"e4", E4, "transport guardians make eq-table rehash proportional to moves"},
		{"e5", E5, "dropped ports are flushed and closed; no descriptor leaks"},
		{"e6", E6, "guardian-fed free list beats reallocation of expensive objects"},
		{"e7", E7, "tconc protocols: throughput of the critical-section-free queue"},
		{"e8", E8, "guardians vs weak lists vs register-for-finalization"},
		{"e9", E9, "weak symbol table (Friedman-Wise oblist pruning)"},
		{"a1", A1, "ablation: dirty set vs scanning all older generations"},
		{"a2", A2, "ablation: weak pass on fresh pairs vs all weak segments"},
		{"a3", A3, "ablation: unswept data space vs pointer-kind sweeping"},
		{"a4", A4, "ablation: guardian fixpoint iteration vs single pass"},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func ns(d float64) string {
	switch {
	case d >= 1e6:
		return fmt.Sprintf("%.2fms", d/1e6)
	case d >= 1e3:
		return fmt.Sprintf("%.2fµs", d/1e3)
	default:
		return fmt.Sprintf("%.0fns", d)
	}
}

func n(v uint64) string { return fmt.Sprintf("%d", v) }
func ni(v int) string   { return fmt.Sprintf("%d", v) }
