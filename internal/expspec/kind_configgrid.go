package expspec

import (
	"context"
	"fmt"
	"strings"

	"mithril/internal/analysis"
	"mithril/internal/mitigation"
	"mithril/internal/timing"
	"mithril/internal/trace"
)

// configGridKind sweeps the paired Mithril/Mithril+ (FlipTH, RFMTH)
// operating-point grid (Figure 9).
type configGridKind struct{ points[Figure9Point] }

// Figure9Point compares Mithril and Mithril+ at one operating point.
type Figure9Point struct {
	FlipTH, RFMTH int
	Seed          uint64
	Mithril       float64 // relative performance %
	MithrilPlus   float64
	TableKB       float64
	EnergyMithril float64
	EnergyPlus    float64
}

func (configGridKind) validate(a *Axes) error {
	if len(a.Grid) == 0 {
		return fmt.Errorf("configgrid needs a non-empty grid axis")
	}
	seenTH := map[int]bool{}
	for _, lvl := range a.Grid {
		if seenTH[lvl.FlipTH] {
			return fmt.Errorf("grid: duplicate flipth %d", lvl.FlipTH)
		}
		seenTH[lvl.FlipTH] = true
		if len(lvl.RFMTHs) == 0 {
			return fmt.Errorf("grid: flipth %d has an empty rfmths list", lvl.FlipTH)
		}
		if err := noDuplicates(fmt.Sprintf("grid[flipth=%d].rfmths", lvl.FlipTH), lvl.RFMTHs); err != nil {
			return err
		}
		for _, rfmTH := range lvl.RFMTHs {
			if err := positivePoint("grid", lvl.FlipTH, rfmTH); err != nil {
				return err
			}
		}
	}
	if len(a.Workloads) != 1 {
		return fmt.Errorf("configgrid needs exactly one benign workload")
	}
	if err := trace.ValidateWorkloadName(a.Workloads[0]); err != nil {
		return err
	}
	if len(a.Schemes) > 0 || len(a.FlipTHs) > 0 || a.Adversarial || len(a.Attacks) > 0 || len(a.Configs) > 0 || len(a.AdTHs) > 0 {
		return fmt.Errorf("configgrid pairs mithril/mithril+ implicitly; only grid/workloads/seeds axes apply")
	}
	return nil
}

// expand skips the points Theorem 1 cannot size a table for — the check
// is analytic, no simulation — so every emitted cell runs.
func (configGridKind) expand(s *Spec, sc Scale, seed uint64, cells []Cell) []Cell {
	p := sc.Params()
	for _, lvl := range s.Axes.Grid {
		for _, rfmTH := range lvl.RFMTHs {
			if mitigation.CheckMithril(mitigation.Options{Timing: p, FlipTH: lvl.FlipTH, RFMTH: rfmTH}) != nil {
				continue
			}
			cells = append(cells, Cell{Seed: seed, FlipTH: lvl.FlipTH, RFMTH: rfmTH, Workload: s.Axes.Workloads[0]})
		}
	}
	return cells
}

func (configGridKind) prepare(x *Execution, rows []int) (rowFunc, error) {
	ws := memo[workloadKey, trace.Workload]{}
	for _, i := range rows {
		c := x.cells[i]
		if _, err := ws.get(workloadKeyOf(c), func() (trace.Workload, error) {
			return trace.BuildWorkload(c.Workload, x.sc.Cores, c.Seed)
		}); err != nil {
			return nil, err
		}
	}
	return func(ctx context.Context, c Cell) (Row, error) { return configGridRow(ctx, x, ws[workloadKeyOf(c)], c) }, nil
}

// configGridRow measures the paired Mithril/Mithril+ point of one feasible
// (FlipTH, RFMTH) grid cell on workload w.
func configGridRow(ctx context.Context, x *Execution, w trace.Workload, c Cell) (Row, error) {
	opt := mitigation.Options{Timing: x.sc.Params(), FlipTH: c.FlipTH, RFMTH: c.RFMTH, Seed: c.Seed}
	var rel, energy [2]float64
	for i, name := range []string{"mithril", "mithril+"} {
		scheme, err := mitigation.Build(name, opt)
		if err != nil {
			return Row{}, err
		}
		m, err := x.measure(ctx, scheme, c.Seed, c.FlipTH, w, w.Name)
		if err != nil {
			return Row{}, err
		}
		rel[i], energy[i] = m.RelativePerformance, m.EnergyOverheadPct
	}
	kb, _ := analysis.MithrilTableKB(timing.DDR5(), c.FlipTH, c.RFMTH, 0)
	return Row{Grid: &Figure9Point{
		FlipTH: c.FlipTH, RFMTH: c.RFMTH, Seed: c.Seed,
		Mithril: rel[0], MithrilPlus: rel[1],
		TableKB:       kb,
		EnergyMithril: energy[0], EnergyPlus: energy[1],
	}}, nil
}

var configGridDefaults = []string{"flipth", "rfmth", "mithril", "mithril+", "tablekb"}

func (configGridKind) defaultColumns(*Spec) []string { return configGridDefaults }

var configGridColumns = []column{
	{"flipth", "FlipTH", "%v", func(r *Result, i int) any { return r.Grid[i].FlipTH }},
	{"rfmth", "RFMTH", "%v", func(r *Result, i int) any { return r.Grid[i].RFMTH }},
	{"seed", "seed", "%v", func(r *Result, i int) any { return r.Grid[i].Seed }},
	{"mithril", "Mithril perf%", "%.2f", func(r *Result, i int) any { return r.Grid[i].Mithril }},
	{"mithril+", "Mithril+ perf%", "%.2f", func(r *Result, i int) any { return r.Grid[i].MithrilPlus }},
	{"tablekb", "table KB", "%.2f", func(r *Result, i int) any { return r.Grid[i].TableKB }},
	{"energy", "Mithril energy+%", "%.2f", func(r *Result, i int) any { return r.Grid[i].EnergyMithril }},
	{"energy+", "Mithril+ energy+%", "%.2f", func(r *Result, i int) any { return r.Grid[i].EnergyPlus }},
}

func (configGridKind) columns(*Spec) []column { return configGridColumns }

func (configGridKind) golden(b *strings.Builder, r *Result, i int) {
	g := &r.Grid[i]
	fmt.Fprintf(b, "flipTH=%d rfmTH=%d mithril=%g mithril+=%g tableKB=%g energy=%g energy+=%g\n",
		g.FlipTH, g.RFMTH, g.Mithril, g.MithrilPlus, g.TableKB, g.EnergyMithril, g.EnergyPlus)
}
