// Package stats provides the small numeric and formatting helpers the
// experiment harness uses: geometric means for workload aggregation (the
// paper reports geo-means across workloads), aligned text tables for the
// CLI reports, and the CSV/JSON writers behind the machine-readable
// experiment output.
package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// Geomean returns the geometric mean; it panics on non-positive inputs
// (normalized IPCs are positive by construction).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: Geomean of non-positive value %v", x))
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Table renders aligned text tables for CLI output.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// Add appends one row; missing cells render empty.
func (t *Table) Add(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		var line strings.Builder
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				line.WriteString("  ")
			}
			line.WriteString(c)
			line.WriteString(strings.Repeat(" ", w-len(c)))
		}
		// The final cell's padding (and any empty trailing cells) would
		// leave trailing whitespace on every row; trim it.
		b.WriteString(strings.TrimRight(line.String(), " "))
		b.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// DiffLines reports pairwise line differences between two texts (want vs
// got), one "line N / want / got" block per divergent line. The golden
// equivalence tests and the CLI's spec-vs-golden diff both render
// mismatches with it.
func DiffLines(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	var b strings.Builder
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want: %s\n  got:  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

// WriteCSV emits an RFC 4180 CSV document: one header record followed by
// the data rows (cells are quoted only where the encoding requires it).
func WriteCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits v as indented JSON with a trailing newline — the
// machine-readable counterpart to Table's human output.
func WriteJSON(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
