package mithril

import (
	"embed"
	"io/fs"

	"mithril/internal/analysis"
	"mithril/internal/expspec"
	"mithril/internal/mc"
	"mithril/internal/trace"
)

// specsFS embeds the shipped experiment specs: the declarative grids the
// simulation figures (7, 9, 10, 11) and the safety sweep run as, one file
// per figure in quick/full (and CI golden) variants.
//
//go:embed specs/*.json
var specsFS embed.FS

// SpecsFS returns the shipped experiment spec files (specs/*.json). The
// mithrilsim CLI lists and runs them by name; library users load one with
// LoadShippedSpec and run it with Engine.RunSpec.
func SpecsFS() fs.FS { return specsFS }

// Scale sizes the simulation experiments; see expspec.Scale. The paper
// runs 400M instructions over 16 cores on McSimA+; the simulator is
// cycle-approximate and the rate-based metrics converge at far smaller
// budgets. Each shipped spec names its own scale preset; Engine.RunSpecAt
// runs a spec at an explicit one.
type Scale = expspec.Scale

// StandardFlipTHs re-exports the evaluation's FlipTH sweep.
func StandardFlipTHs() []int { return append([]int(nil), analysis.StandardFlipTHs...) }

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

// ---------------------------------------------------------------- Figure 8

// Figure8Data reproduces the lbm-like access/activation characterization.
type Figure8Data struct {
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
		SmallWindow: small, Activations: acts,
		LargeDistinct: ld, SmallDistinct: sd, SmallMaxRow: sm,
	}
}

// ---------------------------------------------------------------- Table IV

// TableIVRow re-exports the area table row.
type TableIVRow = analysis.TableIVRow

// Table4Data returns our computed Table IV and the paper's reference values.
func Table4Data() (computed, paper []TableIVRow) {
	return analysis.TableIV(DDR5()), analysis.PaperTableIV()
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
