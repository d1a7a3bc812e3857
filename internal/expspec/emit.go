package expspec

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"mithril/internal/stats"
)

// Formats a Result can be emitted in.
const (
	FormatTable  = "table"  // the CLI's aligned human table
	FormatJSON   = "json"   // machine-readable document with full-precision rows
	FormatCSV    = "csv"    // machine-readable rows, one header line
	FormatGolden = "golden" // the raw line format testdata/golden_*.txt is pinned in
)

// Formats lists the valid -format values.
func Formats() []string { return []string{FormatTable, FormatJSON, FormatCSV, FormatGolden} }

// Result holds one executed spec's rows; exactly one of the row slices is
// populated, matching the spec's kind.
type Result struct {
	Spec  *Spec
	Scale Scale

	Perf   []PerfPoint    // comparison
	Safety []SafetyResult // safety
	Grid   []Figure9Point // configgrid
	AdTH   []Figure7Point // adth

	// Cache effectiveness: how many rows the result store served versus
	// how many the sweep simulated (RowsCached + RowsSimulated equals the
	// row count; storeless executions simulate everything). The counters
	// never influence the rows themselves — output stays byte-identical
	// at any split.
	RowsCached    int
	RowsSimulated int
}

// column is one output column: the machine name (spec "columns"
// vocabulary), the human table header, the format verb its table cell
// renders the value with (the CLI's formatting), and the raw value of a
// result's row i (JSON/CSV).
type column struct {
	name   string
	header string
	verb   string
	value  func(r *Result, i int) any
}

// columns resolves the spec's column selection (or the kind default)
// against the columns the kind can emit.
func (s *Spec) columns() ([]column, error) {
	k, ok := kindTable[s.Kind]
	if !ok {
		return nil, fmt.Errorf("unknown kind %q (want one of %v)", s.Kind, kinds)
	}
	names := s.Columns
	if len(names) == 0 {
		names = k.defaultColumns(s)
	}
	if err := noDuplicates("columns", names); err != nil {
		return nil, err
	}
	all := k.columns(s)
	sel := make([]column, len(names))
	for i, n := range names {
		j := slices.IndexFunc(all, func(c column) bool { return c.name == n })
		if j < 0 {
			avail := make([]string, len(all))
			for a, c := range all {
				avail[a] = c.name
			}
			return nil, fmt.Errorf("unknown column %q (available: %v)", n, avail)
		}
		sel[i] = all[j]
	}
	return sel, nil
}

// rowOrder returns the emission order of the result's rows: grid order,
// which the kind may re-sort for the text table.
func (r *Result) rowOrder(tableSort bool) []int {
	k := kindTable[r.Spec.Kind]
	order := make([]int, k.count(r))
	for i := range order {
		order[i] = i
	}
	if tableSort {
		k.sortTable(r, order)
	}
	return order
}

// Table renders the selected columns as the CLI's aligned text table.
func (r *Result) Table() (string, error) {
	cols, err := r.Spec.columns()
	if err != nil {
		return "", err
	}
	headers := make([]string, len(cols))
	for i, c := range cols {
		headers[i] = c.header
	}
	t := stats.NewTable(headers...)
	for _, i := range r.rowOrder(true) {
		row := make([]string, len(cols))
		for j, c := range cols {
			row[j] = fmt.Sprintf(c.verb, c.value(r, i))
		}
		t.Add(row...)
	}
	return t.String(), nil
}

// machineValue renders a raw value for CSV with full float precision.
func machineValue(v any) string {
	if x, ok := v.(float64); ok {
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// WriteCSV emits one header line of column names plus one row per grid
// cell, floats at full round-trip precision.
func (r *Result) WriteCSV(w io.Writer) error {
	cols, err := r.Spec.columns()
	if err != nil {
		return err
	}
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.name
	}
	order := r.rowOrder(false)
	rows := make([][]string, 0, len(order))
	for _, i := range order {
		row := make([]string, len(cols))
		for j, c := range cols {
			row[j] = machineValue(c.value(r, i))
		}
		rows = append(rows, row)
	}
	return stats.WriteCSV(w, header, rows)
}

// jsonScale is the resolved scale echoed into JSON output so a consumer
// can tell which configuration produced the rows.
type jsonScale struct {
	Cores        int    `json:"cores"`
	InstrPerCore int64  `json:"instr_per_core"`
	FlipTHs      []int  `json:"flipths,omitempty"`
	Seed         uint64 `json:"seed"`
	TimeScale    int    `json:"time_scale"`
}

// jsonDoc is the JSON output shape: spec identity, resolved scale, and the
// selected columns as one object per row.
type jsonDoc struct {
	Name    string           `json:"name"`
	Kind    Kind             `json:"kind"`
	Scale   jsonScale        `json:"scale"`
	Columns []string         `json:"columns"`
	Rows    []map[string]any `json:"rows"`
}

// WriteJSON emits the machine-readable document for the result.
func (r *Result) WriteJSON(w io.Writer) error {
	cols, err := r.Spec.columns()
	if err != nil {
		return err
	}
	doc := jsonDoc{
		Name: r.Spec.Name,
		Kind: r.Spec.Kind,
		Scale: jsonScale{
			Cores: r.Scale.Cores, InstrPerCore: r.Scale.InstrPerCore,
			FlipTHs: r.Scale.FlipTHs, Seed: r.Scale.Seed, TimeScale: r.Scale.TimeScale,
		},
		Rows: []map[string]any{},
	}
	for _, c := range cols {
		doc.Columns = append(doc.Columns, c.name)
	}
	for _, i := range r.rowOrder(false) {
		row := make(map[string]any, len(cols))
		for _, c := range cols {
			row[c.name] = c.value(r, i)
		}
		doc.Rows = append(doc.Rows, row)
	}
	return stats.WriteJSON(w, doc)
}

// Golden renders the raw full-precision line format the repository's
// regression goldens (testdata/golden_*.txt) are pinned in: every field of
// every row in grid order, ignoring the column selection, so any numeric
// drift is visible.
func (r *Result) Golden() string {
	var b strings.Builder
	if k, ok := kindTable[r.Spec.Kind]; ok {
		for i := range k.count(r) {
			k.golden(&b, r, i)
		}
	}
	return b.String()
}

// RowValues renders one streamed row's selected columns as a flat
// name→value map — the NDJSON row shape the serve endpoint emits. The
// column vocabulary, order, and value types match WriteJSON's rows, so a
// consumer can switch between batch and streaming output without
// reparsing.
func (s *Spec) RowValues(sc Scale, row Row) (map[string]any, error) {
	res, err := s.NewResult(sc, []Row{row})
	if err != nil {
		return nil, err
	}
	cols, err := s.columns()
	if err != nil {
		return nil, err
	}
	m := make(map[string]any, len(cols))
	for _, c := range cols {
		m[c.name] = c.value(res, 0)
	}
	return m, nil
}

// Emit writes the result in the named format (FormatTable prints just the
// table; callers prepend their own title banner).
func (r *Result) Emit(w io.Writer, format string) error {
	switch format {
	case FormatTable:
		t, err := r.Table()
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, t)
		return err
	case FormatJSON:
		return r.WriteJSON(w)
	case FormatCSV:
		return r.WriteCSV(w)
	case FormatGolden:
		_, err := io.WriteString(w, r.Golden())
		return err
	default:
		return fmt.Errorf("unknown format %q (want one of %v)", format, Formats())
	}
}
