package expspec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"

	"mithril/internal/attack"
	"mithril/internal/mitigation"
)

// Kind selects the experiment family a spec expands into. Every kind shares
// the same execution machinery (sweep fan-out, single-flight baselines) but
// produces a different row shape.
type Kind string

// Experiment kinds.
const (
	// Comparison measures schemes × FlipTHs × workloads as normalized
	// performance/energy/area points (Figures 10 and 11).
	Comparison Kind = "comparison"
	// SafetyKind attacks schemes × attack patterns and reports the
	// fault-model verdicts (the safety sweep).
	SafetyKind Kind = "safety"
	// ConfigGrid sweeps the paired Mithril/Mithril+ (FlipTH, RFMTH)
	// operating-point grid (Figure 9).
	ConfigGrid Kind = "configgrid"
	// AdTHSweep sweeps the adaptive-refresh threshold for fixed
	// (FlipTH, RFMTH) configurations (Figure 7).
	AdTHSweep Kind = "adth"
)

// kinds lists the valid Kind values, in the order validation messages
// name them.
var kinds = []Kind{Comparison, SafetyKind, ConfigGrid, AdTHSweep}

// kindTable is the one place a Kind maps to behaviour: each kind's
// implementation lives in its own kind_<name>.go file.
var kindTable = map[Kind]rowKind{
	Comparison: comparisonKind{points[PerfPoint]{
		func(r Row) *PerfPoint { return r.Perf }, func(r *Result) *[]PerfPoint { return &r.Perf }}},
	SafetyKind: safetyKind{points[SafetyResult]{
		func(r Row) *SafetyResult { return r.Safety }, func(r *Result) *[]SafetyResult { return &r.Safety }}},
	ConfigGrid: configGridKind{points[Figure9Point]{
		func(r Row) *Figure9Point { return r.Grid }, func(r *Result) *[]Figure9Point { return &r.Grid }}},
	AdTHSweep: adthKind{points[Figure7Point]{
		func(r Row) *Figure7Point { return r.AdTH }, func(r *Result) *[]Figure7Point { return &r.AdTH }}},
}

// rowKind is everything one kind of spec does differently from the others.
type rowKind interface {
	// validate checks the kind's axes; the checks every kind shares
	// (known names, no duplicates, value ranges) have already passed.
	validate(a *Axes) error
	// expand appends one seed's cells in emission order.
	expand(s *Spec, sc Scale, seed uint64, cells []Cell) []Cell
	// prepare builds, once each, only the inputs the rows' cells name —
	// so a shard never opens a trace file outside its rows — and rejects
	// any input that would otherwise fail mid-sweep. It returns the
	// function computing one row, safe for concurrent calls.
	prepare(x *Execution, rows []int) (rowFunc, error)
	// mithrilPoint reports the Mithril operating point a cell deploys at
	// the scale's timing, if any, for NewExecution to vet.
	mithrilPoint(sc Scale, c Cell) (mitigation.Options, bool)
	// defaultColumns mirrors the CLI table; columns lists every column
	// the kind can emit, in canonical order.
	defaultColumns(s *Spec) []string
	columns(s *Spec) []column
	// sortTable reorders the text table's rows (machine formats keep grid
	// order).
	sortTable(r *Result, order []int)
	// golden writes row i of r as one full-precision golden line.
	golden(b *strings.Builder, r *Result, i int)
	// keyPart names a kind-specific component of every cell's store key
	// (name "" for none).
	keyPart(s *Spec) (name, value string)

	// The Row and Result fields holding the kind's points.
	has(row Row) bool
	count(r *Result) int
	collect(r *Result, rows []Row)
}

// rowFunc computes one grid row's point.
type rowFunc func(ctx context.Context, c Cell) (Row, error)

// points binds a kind to the Row and Result fields holding its points, and
// supplies the hooks most kinds leave empty.
type points[T any] struct {
	row    func(Row) *T
	result func(*Result) *[]T
}

func (p points[T]) has(row Row) bool    { return p.row(row) != nil }
func (p points[T]) count(r *Result) int { return len(*p.result(r)) }

func (p points[T]) collect(r *Result, rows []Row) {
	out := make([]T, len(rows))
	for i, row := range rows {
		out[i] = *p.row(row)
	}
	*p.result(r) = out
}

func (points[T]) sortTable(*Result, []int)    {}
func (points[T]) keyPart(*Spec) (_, _ string) { return "", "" }

func (points[T]) mithrilPoint(Scale, Cell) (_ mitigation.Options, _ bool) { return }

// ScaleSpec names the simulation scale a spec runs at: a required preset
// plus optional field overrides (0 keeps the preset's value; a negative
// override is an error).
type ScaleSpec struct {
	// Preset is "quick", "full", or "golden" (QuickScale at the regression
	// goldens' instruction budget).
	Preset       string `json:"preset"`
	Cores        int    `json:"cores,omitempty"`
	InstrPerCore int64  `json:"instr_per_core,omitempty"`
	TimeScale    int    `json:"time_scale,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
}

// Resolve turns the named preset plus overrides into a concrete Scale.
func (ss ScaleSpec) Resolve() (Scale, error) {
	var sc Scale
	switch ss.Preset {
	case "quick":
		sc = QuickScale()
	case "full":
		sc = FullScale()
	case "golden":
		sc = GoldenScale()
	default:
		return Scale{}, fmt.Errorf("scale: unknown preset %q (want quick, full, or golden)", ss.Preset)
	}
	if ss.Cores < 0 || ss.InstrPerCore < 0 || ss.TimeScale < 0 {
		return Scale{}, fmt.Errorf("scale: overrides must not be negative (cores %d, instr_per_core %d, time_scale %d)",
			ss.Cores, ss.InstrPerCore, ss.TimeScale)
	}
	if ss.Cores > 0 {
		sc.Cores = ss.Cores
	}
	if ss.InstrPerCore > 0 {
		sc.InstrPerCore = ss.InstrPerCore
	}
	if ss.TimeScale > 0 {
		sc.TimeScale = ss.TimeScale
	}
	if ss.Seed > 0 {
		sc.Seed = ss.Seed
	}
	return sc, nil
}

// GridLevel is one FlipTH row of a configgrid spec: the RFMTH points swept
// at that threshold (the paper pairs each FlipTH with a feasible RFMTH
// range, so a plain cross-product cannot express the grid).
type GridLevel struct {
	FlipTH int   `json:"flipth"`
	RFMTHs []int `json:"rfmths"`
}

// ConfigPoint is one fixed (FlipTH, RFMTH) operating point of an adth spec.
type ConfigPoint struct {
	FlipTH int `json:"flipth"`
	RFMTH  int `json:"rfmth"`
}

// Axes declares the experiment grid. Which axes apply depends on the kind;
// unused axes must stay empty (validation rejects them).
type Axes struct {
	// Schemes is the mitigation list (comparison, safety). Valid names are
	// mitigation.Names(); configgrid pairs mithril/mithril+ implicitly.
	Schemes []string `json:"schemes,omitempty"`
	// FlipTHs overrides the scale's FlipTH sweep (comparison) or sets the
	// attack thresholds (safety, required there).
	FlipTHs []int `json:"flipths,omitempty"`
	// Workloads names the measured workloads. Comparison and configgrid
	// resolve names through the workload table (trace.WorkloadNames lists
	// the paper's five: "fft", "mix-blend", "mix-high", "pagerank",
	// "radix") and accept the "trace:<path>" form, which replays a
	// recorded access-trace file; comparison additionally accepts the
	// geomean-reduced "normal" set and the "multi-sided-rh" attack
	// meta-workload. Adth accepts the
	// Figure 7 classes ("multi-programmed", "multi-threaded"). Safety
	// takes no workloads — its patterns live on the attacks axis.
	Workloads []string `json:"workloads,omitempty"`
	// Attacks names attack patterns from the pattern table (attack.Names
	// lists the set: "single", "double", "multi:<n>", "rowlist",
	// "decoy:<n>", "blockhammer-adversarial"). Safety requires this axis
	// (each pattern attacks one bank alongside a benign background core).
	// Comparison accepts it too: each attack becomes a
	// benign-mix-plus-attacker workload measured like "multi-sided-rh".
	Attacks []string `json:"attacks,omitempty"`
	// Seeds repeats the grid per seed (empty: the scale's seed).
	Seeds []uint64 `json:"seeds,omitempty"`
	// Adversarial adds the per-scheme BlockHammer-collision workload to
	// every (scheme, FlipTH) point (comparison only).
	Adversarial bool `json:"adversarial,omitempty"`
	// Grid is the configgrid FlipTH → RFMTH-list pairing.
	Grid []GridLevel `json:"grid,omitempty"`
	// Configs are the adth operating points.
	Configs []ConfigPoint `json:"configs,omitempty"`
	// AdTHs is the adaptive-refresh threshold sweep (adth only; 0 means
	// adaptive refresh disabled).
	AdTHs []int `json:"adths,omitempty"`
}

// Spec is one declarative experiment: a named grid over the axes at a
// scale, with an optional output-column selection.
type Spec struct {
	Name string `json:"name"`
	// Title is the human table header ("=== Title ===" in table output).
	Title string    `json:"title,omitempty"`
	Kind  Kind      `json:"kind"`
	Scale ScaleSpec `json:"scale"`
	Axes  Axes      `json:"axes"`
	// Columns selects and orders the emitted columns; empty means the
	// kind's default set (which mirrors the CLI tables).
	Columns []string `json:"columns,omitempty"`
}

// Parse decodes and validates one spec. Unknown JSON fields are errors, so
// a typoed axis name fails loudly instead of silently shrinking the grid.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates a spec file from the filesystem.
func Load(name string) (*Spec, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// LoadFS reads and validates a spec from an fs.FS (the shipped specs are
// embedded in the mithril package).
func LoadFS(fsys fs.FS, name string) (*Spec, error) {
	data, err := fs.ReadFile(fsys, name)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// LoadAll parses every *.json spec under dir, sorted by spec name, and
// rejects duplicate names (two files claiming the same spec would make
// name-based lookup ambiguous).
func LoadAll(fsys fs.FS, dir string) ([]*Spec, error) {
	files, err := fs.Glob(fsys, path.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	seen := map[string]string{}
	var specs []*Spec
	for _, f := range files {
		s, err := LoadFS(fsys, f)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[s.Name]; dup {
			return nil, fmt.Errorf("spec %q: duplicate name (declared in both %s and %s)", s.Name, prev, f)
		}
		seen[s.Name] = f
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs, nil
}

// Validate checks the spec's axes against the kind's requirements and the
// known scheme/workload/column names.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec: missing name")
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("spec %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if _, err := s.Scale.Resolve(); err != nil {
		return fail("%v", err)
	}
	for _, err := range []error{
		noDuplicates("schemes", s.Axes.Schemes),
		noDuplicates("flipths", s.Axes.FlipTHs),
		noDuplicates("workloads", s.Axes.Workloads),
		validateAttackAxis(s.Axes.Attacks),
		noDuplicates("seeds", s.Axes.Seeds),
		noDuplicates("adths", s.Axes.AdTHs),
	} {
		if err != nil {
			return fail("%v", err)
		}
	}
	for _, f := range s.Axes.FlipTHs {
		if f <= 0 {
			return fail("flipths: FlipTH %d must be positive", f)
		}
	}
	for _, ad := range s.Axes.AdTHs {
		if ad < 0 {
			return fail("adths: AdTH %d must not be negative (0 disables adaptive refresh)", ad)
		}
	}
	for _, sch := range s.Axes.Schemes {
		if !mitigation.Known(sch) {
			return fail("unknown scheme %q (known: %v)", sch, mitigation.Names())
		}
	}
	k, ok := kindTable[s.Kind]
	if !ok {
		return fail("unknown kind %q (want one of %v)", s.Kind, kinds)
	}
	if err := k.validate(&s.Axes); err != nil {
		return fail("%v", err)
	}
	if _, err := s.columns(); err != nil {
		return fail("%v", err)
	}
	return nil
}

// positivePoint rejects a non-positive FlipTH or RFMTH on a grid/configs
// operating point: the simulator would refuse the one and silently
// substitute the paper's value for the other.
func positivePoint(axis string, flipTH, rfmTH int) error {
	if flipTH <= 0 || rfmTH <= 0 {
		return fmt.Errorf("%s: flipth %d, rfmth %d: FlipTH and RFMTH must be positive", axis, flipTH, rfmTH)
	}
	return nil
}

// validateAttackAxis checks every attacks-axis entry against the attack
// table (name and argument) and rejects two spellings of one
// canonical pattern — "decoy" and "decoy:4" build the same generator and
// would emit indistinguishable rows.
func validateAttackAxis(attacks []string) error {
	seen := map[string]string{}
	for _, a := range attacks {
		canon, err := attack.Canonical(a)
		if err != nil {
			return err
		}
		// A spec has nowhere to carry an explicit row list, so a
		// rows-only pattern would validate and then fail on every run.
		if attack.NeedsRows(a) {
			return fmt.Errorf("attack %q takes an explicit row list and cannot be named in a spec (library use: mithril.NewAttack with AttackParams.Rows)", a)
		}
		if prev, dup := seen[canon]; dup {
			if prev == a {
				return fmt.Errorf("attacks: duplicate value %s", a)
			}
			return fmt.Errorf("attacks: %q duplicates %q (both are %s)", a, prev, canon)
		}
		seen[canon] = a
	}
	return nil
}

// noDuplicates rejects repeated axis values: a doubled value would silently
// double-count its cells in every aggregate.
func noDuplicates[T comparable](axis string, vals []T) error {
	seen := make(map[T]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return fmt.Errorf("%s: duplicate value %v", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// Cell is one output row of the expanded grid, before any simulation runs.
// Fields that do not apply to the kind stay zero. Comparison's "normal"
// workload is one cell: its member workloads are simulated individually and
// geomean-reduced into the single row.
type Cell struct {
	Seed     uint64
	FlipTH   int
	RFMTH    int
	AdTH     int
	Scheme   string
	Workload string
	// Attack is the attack-registry name of an attack cell: the safety
	// pattern, or the attacker of a comparison attacks-axis cell (whose
	// output row carries the built generator's display name).
	Attack      string
	Adversarial bool
}

// Expand returns the output-row grid in deterministic emission order for
// the scale sc (comparison specs without a flipths axis inherit the
// scale's; per scheme, workload cells come first, then attack cells, then
// the adversarial cell; configgrid cells whose (FlipTH, RFMTH) point is
// analytically infeasible under Theorem 1 are excluded, so the returned
// cells pair one-to-one with the rows a run emits). Expansion is pure:
// expanding twice yields identical slices.
func (s *Spec) Expand(sc Scale) []Cell {
	k, ok := kindTable[s.Kind]
	if !ok {
		return nil
	}
	var cells []Cell
	for _, seed := range s.seeds(sc) {
		cells = k.expand(s, sc, seed, cells)
	}
	return cells
}

// seeds resolves the seed axis (empty: the scale's single seed).
func (s *Spec) seeds(sc Scale) []uint64 {
	if len(s.Axes.Seeds) > 0 {
		return s.Axes.Seeds
	}
	return []uint64{sc.Seed}
}
