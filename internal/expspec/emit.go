package expspec

import (
	"fmt"
	"io"
	"sort"
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

// column is one bound output column: the machine name (spec "columns"
// vocabulary), the human table header, and the two renderings of a row.
type column struct {
	name   string
	header string
	value  func(i int) any    // raw value for JSON/CSV
	cell   func(i int) string // table cell (mirrors the CLI's formatting)
}

// availableColumns returns every column the spec's kind can emit, in
// canonical order.
func (s *Spec) availableColumns() []string {
	names := func(cols []column) []string {
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = c.name
		}
		return out
	}
	return names((&Result{Spec: s}).allColumns())
}

// defaultColumns returns the columns emitted when the spec selects none;
// they mirror the CLI tables.
func (s *Spec) defaultColumns() []string {
	switch s.Kind {
	case Comparison:
		return []string{"scheme", "flipth", "workload", "perf", "energy", "tablekb", "safe"}
	case SafetyKind:
		return []string{"attack", "scheme", "flips", "maxdisturbance", "verdict"}
	case ConfigGrid:
		return []string{"flipth", "rfmth", "mithril", "mithril+", "tablekb"}
	case AdTHSweep:
		cols := []string{"flipth", "rfmth", "adth"}
		for _, w := range s.Axes.Workloads {
			cols = append(cols, "energy:"+w)
		}
		return append(cols, "nentry")
	}
	return nil
}

// columns resolves the spec's column selection (or the kind default)
// against the available set.
func (s *Spec) columns() ([]string, error) {
	sel := s.Columns
	if len(sel) == 0 {
		sel = s.defaultColumns()
	}
	avail := s.availableColumns()
	if err := noDuplicates("columns", sel); err != nil {
		return nil, err
	}
	for _, c := range sel {
		found := false
		for _, a := range avail {
			if a == c {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown column %q (available: %v)", c, avail)
		}
	}
	return sel, nil
}

// allColumns binds every available column of the result's kind.
func (r *Result) allColumns() []column {
	f2 := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	switch r.Spec.Kind {
	case Comparison:
		p := r.Perf
		return []column{
			{"scheme", "scheme", func(i int) any { return p[i].Scheme }, func(i int) string { return p[i].Scheme }},
			{"flipth", "FlipTH", func(i int) any { return p[i].FlipTH }, func(i int) string { return strconv.Itoa(p[i].FlipTH) }},
			{"rfmth", "RFMTH", func(i int) any { return p[i].RFMTH }, func(i int) string { return strconv.Itoa(p[i].RFMTH) }},
			{"workload", "workload", func(i int) any { return p[i].Workload }, func(i int) string { return p[i].Workload }},
			{"seed", "seed", func(i int) any { return p[i].Seed }, func(i int) string { return strconv.FormatUint(p[i].Seed, 10) }},
			{"perf", "perf%", func(i int) any { return p[i].RelativePerformance }, func(i int) string { return f2(p[i].RelativePerformance) }},
			{"energy", "energy+%", func(i int) any { return p[i].EnergyOverheadPct }, func(i int) string { return f2(p[i].EnergyOverheadPct) }},
			{"tablekb", "tableKB", func(i int) any { return p[i].TableKB }, func(i int) string { return f2(p[i].TableKB) }},
			{"safe", "safe", func(i int) any { return p[i].Safe }, func(i int) string { return fmt.Sprintf("%v", p[i].Safe) }},
		}
	case SafetyKind:
		s := r.Safety
		return []column{
			{"attack", "attack", func(i int) any { return s[i].Attack }, func(i int) string { return s[i].Attack }},
			{"scheme", "scheme", func(i int) any { return s[i].Scheme }, func(i int) string { return s[i].Scheme }},
			{"flipth", "FlipTH", func(i int) any { return s[i].FlipTH }, func(i int) string { return strconv.Itoa(s[i].FlipTH) }},
			{"seed", "seed", func(i int) any { return s[i].Seed }, func(i int) string { return strconv.FormatUint(s[i].Seed, 10) }},
			{"flips", "flips", func(i int) any { return s[i].Flips }, func(i int) string { return strconv.Itoa(s[i].Flips) }},
			{"maxdisturbance", "max disturbance", func(i int) any { return s[i].MaxDisturbance }, func(i int) string { return fmt.Sprintf("%.0f", s[i].MaxDisturbance) }},
			{"safe", "safe", func(i int) any { return s[i].Safe }, func(i int) string { return fmt.Sprintf("%v", s[i].Safe) }},
			{"verdict", "verdict", func(i int) any { return verdict(s[i].Safe) }, func(i int) string { return verdict(s[i].Safe) }},
		}
	case ConfigGrid:
		g := r.Grid
		return []column{
			{"flipth", "FlipTH", func(i int) any { return g[i].FlipTH }, func(i int) string { return strconv.Itoa(g[i].FlipTH) }},
			{"rfmth", "RFMTH", func(i int) any { return g[i].RFMTH }, func(i int) string { return strconv.Itoa(g[i].RFMTH) }},
			{"seed", "seed", func(i int) any { return g[i].Seed }, func(i int) string { return strconv.FormatUint(g[i].Seed, 10) }},
			{"mithril", "Mithril perf%", func(i int) any { return g[i].Mithril }, func(i int) string { return f2(g[i].Mithril) }},
			{"mithril+", "Mithril+ perf%", func(i int) any { return g[i].MithrilPlus }, func(i int) string { return f2(g[i].MithrilPlus) }},
			{"tablekb", "table KB", func(i int) any { return g[i].TableKB }, func(i int) string { return f2(g[i].TableKB) }},
			{"energy", "Mithril energy+%", func(i int) any { return g[i].EnergyMithril }, func(i int) string { return f2(g[i].EnergyMithril) }},
			{"energy+", "Mithril+ energy+%", func(i int) any { return g[i].EnergyPlus }, func(i int) string { return f2(g[i].EnergyPlus) }},
		}
	case AdTHSweep:
		a := r.AdTH
		cols := []column{
			{"flipth", "FlipTH", func(i int) any { return a[i].FlipTH }, func(i int) string { return strconv.Itoa(a[i].FlipTH) }},
			{"rfmth", "RFMTH", func(i int) any { return a[i].RFMTH }, func(i int) string { return strconv.Itoa(a[i].RFMTH) }},
			{"adth", "AdTH", func(i int) any { return a[i].AdTH }, func(i int) string { return strconv.Itoa(a[i].AdTH) }},
			{"seed", "seed", func(i int) any { return a[i].Seed }, func(i int) string { return strconv.FormatUint(a[i].Seed, 10) }},
		}
		for _, w := range r.Spec.Axes.Workloads {
			w := w
			cols = append(cols, column{
				"energy:" + w, fmt.Sprintf("energy%% (%s)", adthWorkloads[w].short),
				func(i int) any { return a[i].EnergyOverheadPct[w] },
				func(i int) string { return f2(a[i].EnergyOverheadPct[w]) },
			})
		}
		return append(cols, column{"nentry", "+Nentry%",
			func(i int) any { return a[i].AdditionalNEntryPct },
			func(i int) string { return fmt.Sprintf("%.1f", a[i].AdditionalNEntryPct) }})
	}
	return nil
}

func verdict(safe bool) string {
	if safe {
		return "SAFE"
	}
	return "UNSAFE"
}

// selectedColumns binds the spec's column selection.
func (r *Result) selectedColumns() ([]column, error) {
	names, err := r.Spec.columns()
	if err != nil {
		return nil, err
	}
	all := r.allColumns()
	sel := make([]column, 0, len(names))
	for _, n := range names {
		for _, c := range all {
			if c.name == n {
				sel = append(sel, c)
				break
			}
		}
	}
	return sel, nil
}

// rowCount returns the populated row-slice length.
func (r *Result) rowCount() int {
	switch r.Spec.Kind {
	case Comparison:
		return len(r.Perf)
	case SafetyKind:
		return len(r.Safety)
	case ConfigGrid:
		return len(r.Grid)
	case AdTHSweep:
		return len(r.AdTH)
	}
	return 0
}

// rowOrder returns the emission order of table rows. The safety table
// sorts by (attack, scheme) like the CLI always has; every other kind and
// every machine format keeps raw grid order.
func (r *Result) rowOrder(tableSort bool) []int {
	n := r.rowCount()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if tableSort && r.Spec.Kind == SafetyKind {
		s := r.Safety
		sort.SliceStable(order, func(a, b int) bool {
			if s[order[a]].Attack != s[order[b]].Attack {
				return s[order[a]].Attack < s[order[b]].Attack
			}
			return s[order[a]].Scheme < s[order[b]].Scheme
		})
	}
	return order
}

// Table renders the selected columns as the CLI's aligned text table.
func (r *Result) Table() (string, error) {
	cols, err := r.selectedColumns()
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
			row[j] = c.cell(i)
		}
		t.Add(row...)
	}
	return t.String(), nil
}

// machineValue renders a raw value for CSV with full float precision.
func machineValue(v any) string {
	switch x := v.(type) {
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int:
		return strconv.Itoa(x)
	case uint64:
		return strconv.FormatUint(x, 10)
	case bool:
		return strconv.FormatBool(x)
	case string:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}

// WriteCSV emits one header line of column names plus one row per grid
// cell, floats at full round-trip precision.
func (r *Result) WriteCSV(w io.Writer) error {
	cols, err := r.selectedColumns()
	if err != nil {
		return err
	}
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.name
	}
	rows := make([][]string, 0, r.rowCount())
	for _, i := range r.rowOrder(false) {
		row := make([]string, len(cols))
		for j, c := range cols {
			row[j] = machineValue(c.value(i))
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
	cols, err := r.selectedColumns()
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
			row[c.name] = c.value(i)
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
	switch r.Spec.Kind {
	case Comparison:
		for _, p := range r.Perf {
			fmt.Fprintf(&b, "%s flipTH=%d rfmTH=%d workload=%s perf=%g energy=%g tableKB=%g safe=%v\n",
				p.Scheme, p.FlipTH, p.RFMTH, p.Workload,
				p.RelativePerformance, p.EnergyOverheadPct, p.TableKB, p.Safe)
		}
	case SafetyKind:
		for _, s := range r.Safety {
			fmt.Fprintf(&b, "%s attack=%s flipTH=%d flips=%d maxDisturbance=%g safe=%v\n",
				s.Scheme, s.Attack, s.FlipTH, s.Flips, s.MaxDisturbance, s.Safe)
		}
	case ConfigGrid:
		for _, g := range r.Grid {
			fmt.Fprintf(&b, "flipTH=%d rfmTH=%d mithril=%g mithril+=%g tableKB=%g energy=%g energy+=%g\n",
				g.FlipTH, g.RFMTH, g.Mithril, g.MithrilPlus, g.TableKB, g.EnergyMithril, g.EnergyPlus)
		}
	case AdTHSweep:
		for _, a := range r.AdTH {
			fmt.Fprintf(&b, "flipTH=%d rfmTH=%d adTH=%d", a.FlipTH, a.RFMTH, a.AdTH)
			for _, w := range r.Spec.Axes.Workloads {
				fmt.Fprintf(&b, " energy[%s]=%g", w, a.EnergyOverheadPct[w])
			}
			fmt.Fprintf(&b, " nentry=%g\n", a.AdditionalNEntryPct)
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
	cols, err := res.selectedColumns()
	if err != nil {
		return nil, err
	}
	m := make(map[string]any, len(cols))
	for _, c := range cols {
		m[c.name] = c.value(0)
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
