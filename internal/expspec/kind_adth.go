package expspec

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"mithril/internal/analysis"
	"mithril/internal/mitigation"
	"mithril/internal/trace"
)

// adthKind sweeps the adaptive-refresh threshold for fixed (FlipTH, RFMTH)
// configurations (Figure 7). One row covers every workload class.
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

// mithrilPoint is the Mithril configuration of every adth cell; AdTH 0
// maps to the mitigation package's "disabled" encoding.
func (adthKind) mithrilPoint(sc Scale, c Cell) (mitigation.Options, bool) {
	ad := c.AdTH
	if ad == 0 {
		ad = -1
	}
	return mitigation.Options{Timing: sc.Params(), FlipTH: c.FlipTH, RFMTH: c.RFMTH, AdTH: ad}, true
}

func (k adthKind) prepare(x *Execution, _ []int) (rowFunc, error) {
	return func(ctx context.Context, c Cell) (Row, error) { return k.row(ctx, x, c) }, nil
}

// row sweeps the workload classes for one (seed, config, AdTH) point,
// reporting energy overheads plus the Theorem 2 table growth.
func (k adthKind) row(ctx context.Context, x *Execution, c Cell) (Row, error) {
	pt := &Figure7Point{FlipTH: c.FlipTH, RFMTH: c.RFMTH, AdTH: c.AdTH, Seed: c.Seed,
		EnergyOverheadPct: map[string]float64{}}
	if pct, ok := analysis.AdditionalNEntryPercent(x.sc.Params(), c.FlipTH, c.RFMTH, c.AdTH); ok {
		pt.AdditionalNEntryPct = pct
	}
	opt, _ := k.mithrilPoint(x.sc, c)
	opt.Seed = c.Seed
	for _, wName := range x.spec.Axes.Workloads {
		w := adthWorkloads[wName].build(x.sc.Cores, c.Seed)
		scheme, err := mitigation.Build("mithril", opt)
		if err != nil {
			return Row{}, err
		}
		m, err := x.measure(ctx, scheme, c.Seed, c.FlipTH, w, w.Name)
		if err != nil {
			return Row{}, err
		}
		pt.EnergyOverheadPct[wName] = m.EnergyOverheadPct
	}
	return Row{AdTH: pt}, nil
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
