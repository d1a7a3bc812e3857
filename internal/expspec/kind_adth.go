package expspec

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"mithril/internal/analysis"
	"mithril/internal/energy"
	"mithril/internal/mitigation"
	"mithril/internal/sim"
	"mithril/internal/sweep"
	"mithril/internal/trace"
)

// adthKind sweeps the adaptive-refresh threshold for fixed (FlipTH, RFMTH)
// configurations (Figure 7). One row covers every workload class.
//
// A row does not simulate its own AdTH level. Plain Mithril's AdTH only
// picks what the DRAM refreshes inside an RFM window the controller has
// already granted: the MC issues every RFM and holds the bank for the
// fixed tRFM either way, so runs that differ only in AdTH take identical
// timing and differ only in the preventive rows they refresh
// (TestAdTHLeavesTimingUnchanged). Each (config, seed, workload) therefore
// runs once, with one Mithril tracker lane per AdTH level the execution
// covers (mitigation.MithrilLanes), and each row prices its own lane's
// refreshes against the shared device and controller counts.
type adthKind struct{ points[Figure7Point] }

// Figure7Point is one AdTH level of Figure 7.
type Figure7Point struct {
	FlipTH, RFMTH, AdTH int
	Seed                uint64
	// EnergyOverheadPct per workload class (multi-programmed/threaded).
	EnergyOverheadPct map[string]float64
	// AdditionalNEntryPct is the Theorem 2 table growth (right axis).
	AdditionalNEntryPct float64
}

// adthWorkloads maps the Figure 7 workload classes to generators, plus the
// short labels its energy-column headers use.
var adthWorkloads = map[string]struct {
	short string
	build func(cores int, seed uint64) trace.Workload
}{
	"multi-programmed": {"multi-prog", trace.MixHigh},
	"multi-threaded":   {"multi-thread", trace.FFT},
}

func (adthKind) validate(a *Axes) error {
	if len(a.Configs) == 0 {
		return fmt.Errorf("adth needs a non-empty configs axis")
	}
	for _, cfg := range a.Configs {
		if err := positivePoint("configs", cfg.FlipTH, cfg.RFMTH); err != nil {
			return err
		}
	}
	if len(a.AdTHs) == 0 {
		return fmt.Errorf("adth needs a non-empty adths axis")
	}
	if len(a.Workloads) == 0 {
		return fmt.Errorf("adth needs a non-empty workloads axis")
	}
	for _, w := range a.Workloads {
		if _, ok := adthWorkloads[w]; !ok {
			return fmt.Errorf("unknown workload %q (known: %v)", w, slices.Sorted(maps.Keys(adthWorkloads)))
		}
	}
	if len(a.Schemes) > 0 || len(a.FlipTHs) > 0 || a.Adversarial || len(a.Attacks) > 0 || len(a.Grid) > 0 {
		return fmt.Errorf("adth accepts only configs/adths/workloads/seeds axes")
	}
	return nil
}

func (adthKind) expand(s *Spec, _ Scale, seed uint64, cells []Cell) []Cell {
	for _, cfg := range s.Axes.Configs {
		for _, adTH := range s.Axes.AdTHs {
			cells = append(cells, Cell{Seed: seed, FlipTH: cfg.FlipTH, RFMTH: cfg.RFMTH, AdTH: adTH})
		}
	}
	return cells
}

// adthOption maps a cell's AdTH level to Options.AdTH, where 0 is the
// package default and a negative value disables the adaptive policy.
func adthOption(adTH int) int {
	if adTH == 0 {
		return -1
	}
	return adTH
}

// mithrilPoint is the Mithril configuration of every adth cell.
func (adthKind) mithrilPoint(sc Scale, c Cell) (mitigation.Options, bool) {
	return mitigation.Options{Timing: sc.Params(), FlipTH: c.FlipTH, RFMTH: c.RFMTH, AdTH: adthOption(c.AdTH)}, true
}

// laneKey names one laned simulation.
type laneKey struct {
	cfg      ConfigPoint
	seed     uint64
	workload string
}

// laneRun is what the rows read of one laned simulation: the shared
// device and controller counts, each lane's preventive rows, and the
// baseline energy.
type laneRun struct {
	res        sim.Result
	preventive []uint64
	base       energy.Breakdown
}

// energyOverhead prices lane's refreshes against the baseline, as an
// independent run at the lane's AdTH would.
func (r laneRun) energyOverhead(lane int) float64 {
	dev := r.res.Device
	dev.PreventiveRows = r.preventive[lane]
	return energy.OverheadPercent(energy.Compute(dev, r.res.MC, energy.DefaultParams()), r.base)
}

// prepare collects each config's AdTH levels among the covered rows: one
// laned simulation per (config, seed, workload) covers them all, and rows
// read their lanes from a single-flight cache private to the execution.
func (adthKind) prepare(x *Execution, rows []int) (rowFunc, error) {
	levels := map[ConfigPoint][]int{}
	for _, i := range rows {
		c := x.cells[i]
		cfg := ConfigPoint{c.FlipTH, c.RFMTH}
		if !slices.Contains(levels[cfg], c.AdTH) {
			levels[cfg] = append(levels[cfg], c.AdTH)
		}
	}
	runs := &sweep.Cache[laneKey, laneRun]{}
	return func(ctx context.Context, c Cell) (Row, error) {
		return adthRow(ctx, x, runs, levels[ConfigPoint{c.FlipTH, c.RFMTH}], c)
	}, nil
}

// adthRow reports one (seed, config, AdTH) point's energy overhead per
// workload class, plus the Theorem 2 table growth. It visits the classes
// starting at its own lane's index, so the first rows of a config fill
// different classes' runs side by side instead of queueing on one.
func adthRow(ctx context.Context, x *Execution, runs *sweep.Cache[laneKey, laneRun], levels []int, c Cell) (Row, error) {
	pt := &Figure7Point{FlipTH: c.FlipTH, RFMTH: c.RFMTH, AdTH: c.AdTH, Seed: c.Seed,
		EnergyOverheadPct: map[string]float64{}}
	if pct, ok := analysis.AdditionalNEntryPercent(x.sc.Params(), c.FlipTH, c.RFMTH, c.AdTH); ok {
		pt.AdditionalNEntryPct = pct
	}
	lane := slices.Index(levels, c.AdTH)
	ws := x.spec.Axes.Workloads
	for j := range ws {
		key := laneKey{ConfigPoint{c.FlipTH, c.RFMTH}, c.Seed, ws[(lane+j)%len(ws)]}
		r, err := runs.Get(key, func() (laneRun, error) { return runLanes(ctx, x, key, levels) }, nil)
		if err != nil {
			return Row{}, err
		}
		pt.EnergyOverheadPct[key.workload] = r.energyOverhead(lane)
	}
	return Row{AdTH: pt}, nil
}

// runLanes simulates key's workload once under one Mithril lane per AdTH
// level, beside its shared baseline.
func runLanes(ctx context.Context, x *Execution, key laneKey, levels []int) (laneRun, error) {
	ads := make([]int, len(levels))
	for i, ad := range levels {
		ads[i] = adthOption(ad)
	}
	opt := mitigation.Options{Timing: x.sc.Params(), FlipTH: key.cfg.FlipTH, RFMTH: key.cfg.RFMTH, Seed: key.seed}
	lanes, err := mitigation.BuildLanes("mithril", opt, ads)
	if err != nil {
		return laneRun{}, err
	}
	w := adthWorkloads[key.workload].build(x.sc.Cores, key.seed)
	res, base, err := x.simulate(ctx, lanes, key.seed, key.cfg.FlipTH, w, w.Name)
	if err != nil {
		return laneRun{}, err
	}
	return laneRun{res: res, preventive: lanes.PreventiveRows(), base: base.energy}, nil
}

func (adthKind) defaultColumns(s *Spec) []string {
	cols := []string{"flipth", "rfmth", "adth"}
	for _, w := range s.Axes.Workloads {
		cols = append(cols, "energy:"+w)
	}
	return append(cols, "nentry")
}

func (adthKind) columns(s *Spec) []column {
	cols := []column{
		{"flipth", "FlipTH", "%v", func(r *Result, i int) any { return r.AdTH[i].FlipTH }},
		{"rfmth", "RFMTH", "%v", func(r *Result, i int) any { return r.AdTH[i].RFMTH }},
		{"adth", "AdTH", "%v", func(r *Result, i int) any { return r.AdTH[i].AdTH }},
		{"seed", "seed", "%v", func(r *Result, i int) any { return r.AdTH[i].Seed }},
	}
	for _, w := range s.Axes.Workloads {
		cols = append(cols, column{"energy:" + w, fmt.Sprintf("energy%% (%s)", adthWorkloads[w].short), "%.2f",
			func(r *Result, i int) any { return r.AdTH[i].EnergyOverheadPct[w] }})
	}
	return append(cols, column{"nentry", "+Nentry%", "%.1f", func(r *Result, i int) any { return r.AdTH[i].AdditionalNEntryPct }})
}

func (adthKind) golden(b *strings.Builder, r *Result, i int) {
	a := &r.AdTH[i]
	fmt.Fprintf(b, "flipTH=%d rfmTH=%d adTH=%d", a.FlipTH, a.RFMTH, a.AdTH)
	for _, w := range r.Spec.Axes.Workloads {
		fmt.Fprintf(b, " energy[%s]=%g", w, a.EnergyOverheadPct[w])
	}
	fmt.Fprintf(b, " nentry=%g\n", a.AdditionalNEntryPct)
}

// keyPart keys an adth row by its workload set: one row sweeps every
// class, and the sorted set (not the axis order, which cannot change the
// map-shaped row) is part of what it measures.
func (adthKind) keyPart(s *Spec) (name, value string) {
	ws := slices.Clone(s.Axes.Workloads)
	slices.Sort(ws)
	return "workloads", strings.Join(ws, ",")
}
