package mithril

import (
	"context"
	"embed"
	"fmt"
	"io/fs"

	"mithril/internal/analysis"
	"mithril/internal/expspec"
	"mithril/internal/mc"
	"mithril/internal/sim"
	"mithril/internal/trace"
)

// specsFS embeds the shipped experiment specs: the declarative grids the
// simulation figures (7, 9, 10, 11) and the safety sweep run as, one file
// per figure in quick/full (and CI golden) variants.
//
//go:embed specs/*.json
var specsFS embed.FS

// SpecsFS returns the shipped experiment spec files (specs/*.json). The
// mithrilsim CLI lists and runs them by name; library users can parse them
// with internal/expspec via the figure wrappers below.
func SpecsFS() fs.FS { return specsFS }

// Scale sizes the simulation experiments; see expspec.Scale. The paper
// runs 400M instructions over 16 cores on McSimA+; the simulator is
// cycle-approximate and the rate-based metrics converge at far smaller
// budgets, so Quick is the default for tests/benches and Full for the CLI.
type Scale = expspec.Scale

// QuickScale is the fast experiment configuration.
func QuickScale() Scale { return expspec.QuickScale() }

// FullScale matches the paper's system size (16 cores, all FlipTH levels).
func FullScale() Scale { return expspec.FullScale() }

// StandardFlipTHs re-exports the evaluation's FlipTH sweep.
func StandardFlipTHs() []int { return append([]int(nil), analysis.StandardFlipTHs...) }

// baseSimConfig builds the Table III system configuration at the scale's
// (possibly time-compressed) timing.
func baseSimConfig(flipTH int, sc Scale) SimConfig {
	return expspec.BaseSimConfig(flipTH, sc)
}

// benignIPC sums per-core IPCs excluding trailing attacker cores.
func benignIPC(res sim.Result, attackers int) float64 {
	return expspec.BenignIPC(res.IPCs, attackers)
}

// runSpec executes the named shipped spec's axes at the caller's scale
// (the spec's own scale section only applies when run via the CLI).
func runSpec(name string, sc Scale) (*expspec.Result, error) {
	sp, err := LoadShippedSpec(name)
	if err != nil {
		return nil, fmt.Errorf("shipped spec %s: %w", name, err)
	}
	return runToCompletion(sp, sc)
}

// runToCompletion executes a spec for the figure wrappers, whose
// signatures carry no context: they run uncancellable, with a private
// baseline cache and no store. Engine.RunSpecAt is the cancellable path.
func runToCompletion(sp *ExperimentSpec, sc Scale) (*expspec.Result, error) {
	//mithril:allow ctxflow figure wrappers keep ctx-less signatures; Engine.RunSpecAt is the ctx path
	return sp.RunAtContext(context.Background(), sc, nil)
}

// ---------------------------------------------------------------- Figure 2

// Figure2Point re-exports the analytic Figure 2 data point.
type Figure2Point = analysis.Figure2Point

// Figure2Data evaluates the ARR-vs-RFM Graphene incompatibility curves.
func Figure2Data() []Figure2Point {
	thresholds := []int{250, 500, 1000, 2000, 4000, 8000}
	rfmths := []int{256, 128, 64, 32}
	return analysis.Figure2Curve(DDR5(), thresholds, rfmths)
}

// ---------------------------------------------------------------- Figure 6

// Figure6Series is one FlipTH line of Figure 6.
type Figure6Series struct {
	FlipTH int
	CbS    []MithrilConfig // feasible (RFMTH → table) points, CbS tracker
	Lossy  []MithrilConfig // same with Lossy Counting (dotted lines)
}

// Figure6Data computes the feasible configuration curves.
func Figure6Data() []Figure6Series {
	p := DDR5()
	rfmths := []int{416, 384, 352, 320, 288, 256, 224, 192, 160, 128, 96, 64, 48, 32, 16}
	flipTHs := []int{1560, 3125, 6250, 12500, 25000, 50000}
	out := make([]Figure6Series, 0, len(flipTHs))
	for _, f := range flipTHs {
		s := Figure6Series{FlipTH: f}
		s.CbS = analysis.ConfigCurve(p, f, rfmths, 0, analysis.DoubleSidedBlast)
		if f >= 25000 { // the paper plots lossy counting at 25K and 50K
			s.Lossy = analysis.LossyConfigCurve(p, f, rfmths, analysis.DoubleSidedBlast)
		}
		out = append(out, s)
	}
	return out
}

// ---------------------------------------------------------------- Figure 7

// Figure7Point is one AdTH level of Figure 7.
type Figure7Point = expspec.Figure7Point

// Figure7Data sweeps AdTH for the paper's two configurations on one
// multi-programmed and one multi-threaded workload (specs/figure7.*.json).
func Figure7Data(sc Scale) ([]Figure7Point, error) {
	res, err := runSpec("figure7.quick", sc)
	if err != nil {
		return nil, err
	}
	return res.AdTH, nil
}

// ---------------------------------------------------------------- Figure 8

// Figure8Data reproduces the lbm-like access/activation characterization.
type Figure8Data struct {
	LargeWindow   []trace.RowSample
	SmallWindow   []trace.RowSample
	Activations   []trace.RowSample
	LargeDistinct int
	SmallDistinct int
	SmallMaxRow   int // max accesses to one row in the small window
}

// Figure8 generates the large-object-sweep data series.
func Figure8() Figure8Data {
	mapper := mc.NewAddressMapper(DDR5())
	large := trace.RowSeries(trace.NewStream("lbm", 0, 128<<20, 12, 4), mapper, 100_000)
	small := trace.RowSeries(trace.NewStream("lbm", 0, 128<<20, 12, 4), mapper, 512)
	acts := trace.ActivationSeries(small, DDR5().TotalBanks())
	ld, _ := trace.ConcentrationStats(large)
	sd, sm := trace.ConcentrationStats(small)
	return Figure8Data{
		LargeWindow: large, SmallWindow: small, Activations: acts,
		LargeDistinct: ld, SmallDistinct: sd, SmallMaxRow: sm,
	}
}

// --------------------------------------------------------------- Figures 9–11

// PerfPoint is one (scheme, FlipTH, workload) measurement.
type PerfPoint = expspec.PerfPoint

// Figure9Point compares Mithril and Mithril+ at one operating point.
type Figure9Point = expspec.Figure9Point

// Figure9Data sweeps the paper's (FlipTH, RFMTH) grid on the mix-high
// workload (specs/figure9.*.json); grid cells run in parallel on the
// sweep engine.
func Figure9Data(sc Scale) ([]Figure9Point, error) {
	res, err := runSpec("figure9.quick", sc)
	if err != nil {
		return nil, err
	}
	return res.Grid, nil
}

// Figure10Data evaluates the RFM-compatible schemes (PARFM, BlockHammer,
// Mithril, Mithril+) across FlipTH on normal, multi-sided-RH, and
// BlockHammer-adversarial workloads, plus energy and area
// (specs/figure10.*.json).
func Figure10Data(sc Scale) ([]PerfPoint, error) {
	res, err := runSpec("figure10.quick", sc)
	if err != nil {
		return nil, err
	}
	return res.Perf, nil
}

// Figure11Data evaluates the RFM-non-compatible baselines (PARA, CBT,
// TWiCe, Graphene) against Mithril and Mithril+ on normal and multi-sided
// workloads (specs/figure11.*.json).
func Figure11Data(sc Scale) ([]PerfPoint, error) {
	res, err := runSpec("figure11.quick", sc)
	if err != nil {
		return nil, err
	}
	return res.Perf, nil
}

// ---------------------------------------------------------------- Table IV

// TableIVRow re-exports the area table row.
type TableIVRow = analysis.TableIVRow

// Table4Data returns our computed Table IV and the paper's reference values.
func Table4Data() (computed, paper []TableIVRow) {
	return analysis.TableIV(DDR5()), analysis.PaperTableIV()
}

// ------------------------------------------------------------- Safety (E11)

// SafetyResult is one scheme × attack verdict.
type SafetyResult = expspec.SafetyResult

// SafetySweep attacks every scheme with double- and multi-sided patterns in
// the full simulator (specs/safety.*.json, with the FlipTH axis overridden
// by the caller) and reports the fault-model verdicts; results come back in
// a fixed (attack, then scheme) order.
func SafetySweep(sc Scale, flipTH int) ([]SafetyResult, error) {
	sp, err := LoadShippedSpec("safety.quick")
	if err != nil {
		return nil, err
	}
	sp.Axes.FlipTHs = []int{flipTH}
	res, err := runToCompletion(sp, sc)
	if err != nil {
		return nil, err
	}
	return res.Safety, nil
}

// PARFMFailure re-exports the Appendix C failure model for the CLI.
func PARFMFailure(flipTH, rfmTH int) (bank, system float64) {
	p := DDR5()
	return analysis.ParfmBankFailure(p, flipTH, rfmTH),
		analysis.ParfmSystemFailure(p, flipTH, rfmTH, analysis.DefaultAttackableBanks)
}

// PARFMRequiredRFMTH re-exports the RFMTH search (1e-15 target).
func PARFMRequiredRFMTH(flipTH int) (int, bool) {
	return analysis.ParfmRequiredRFMTH(DDR5(), flipTH, analysis.DefaultAttackableBanks, 1e-15)
}
