package mithril

import (
	"context"
	"math"
	"reflect"
	"testing"

	"mithril/internal/expspec"
)

// tinyScale keeps the API-level tests fast.
func tinyScale() Scale {
	return Scale{Cores: 4, InstrPerCore: 6_000, FlipTHs: []int{6250}, Seed: 1}
}

// runShipped runs the named shipped spec on eng at scale sc.
func runShipped(t testing.TB, eng *Engine, name string, sc Scale) *ExperimentResult {
	t.Helper()
	sp, err := LoadShippedSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunSpecAt(context.Background(), sp, sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFigure2DataShape(t *testing.T) {
	pts := Figure2Data()
	if len(pts) == 0 {
		t.Fatal("no data")
	}
	// ARR line linear and below the RFM curves at low thresholds.
	first := pts[0]
	if first.RFM[64] < first.ARR {
		t.Fatal("RFM retrofit should be no better than ARR")
	}
}

func TestFigure6DataShape(t *testing.T) {
	series := Figure6Data()
	if len(series) != 6 {
		t.Fatalf("series = %d, want 6 FlipTH levels", len(series))
	}
	for _, s := range series {
		if len(s.CbS) == 0 {
			t.Fatalf("FlipTH %d has no feasible configs", s.FlipTH)
		}
		// Table size shrinks with RFMTH within one FlipTH line.
		for i := 1; i < len(s.CbS); i++ {
			if s.CbS[i].RFMTH < s.CbS[i-1].RFMTH && s.CbS[i].TableKB > s.CbS[i-1].TableKB {
				t.Fatalf("FlipTH %d: table should shrink as RFMTH drops (%v then %v)",
					s.FlipTH, s.CbS[i-1], s.CbS[i])
			}
		}
	}
	// Lossy lines exist at 25K/50K and are larger than CbS at equal RFMTH.
	for _, s := range series {
		if s.FlipTH < 25000 {
			continue
		}
		if len(s.Lossy) == 0 {
			t.Fatalf("FlipTH %d: missing lossy curve", s.FlipTH)
		}
		cbs := map[int]float64{}
		for _, c := range s.CbS {
			cbs[c.RFMTH] = c.TableKB
		}
		for _, l := range s.Lossy {
			if kb, ok := cbs[l.RFMTH]; ok && l.TableKB <= kb {
				t.Fatalf("FlipTH %d RFMTH %d: lossy %.3fKB not larger than CbS %.3fKB",
					s.FlipTH, l.RFMTH, l.TableKB, kb)
			}
		}
	}
}

func TestFigure8Characterization(t *testing.T) {
	d := Figure8()
	if d.SmallDistinct > 10 || d.LargeDistinct < 20*d.SmallDistinct {
		t.Fatalf("sweep concentration broken: small=%d large=%d", d.SmallDistinct, d.LargeDistinct)
	}
	// Paper: ~128 accesses per row (8KB row / 64B line) — per channel ~64+.
	if d.SmallMaxRow < 60 {
		t.Fatalf("per-row burst = %d, want ≥ 60", d.SmallMaxRow)
	}
	if len(d.Activations) == 0 || len(d.Activations) >= len(d.SmallWindow) {
		t.Fatalf("activations = %d of %d", len(d.Activations), len(d.SmallWindow))
	}
}

func TestTable4DataFeasibilityMatchesPaper(t *testing.T) {
	computed, paper := Table4Data()
	if len(computed) != len(paper) {
		t.Fatalf("row counts differ: %d vs %d", len(computed), len(paper))
	}
	for i := range computed {
		for f, ours := range computed[i].KB {
			ref := paper[i].KB[f]
			if math.IsNaN(ours) != math.IsNaN(ref) {
				t.Errorf("%s @ %d: dash mismatch", computed[i].Scheme, f)
			}
		}
	}
}

func TestConfigureAPI(t *testing.T) {
	c, ok := Configure(DDR5(), 6250, 128, 0)
	if !ok || c.NEntry == 0 {
		t.Fatalf("Configure failed: %+v", c)
	}
	if BoundM(DDR5(), c.NEntry, 128) >= 6250/2 {
		t.Fatal("returned config violates Theorem 1")
	}
	if BoundMPrime(DDR5(), c.NEntry, 128, 200) < BoundM(DDR5(), c.NEntry, 128) {
		t.Fatal("M' should not be below M")
	}
	if _, ok := Configure(DDR5(), 1500, 256, 0); ok {
		t.Fatal("1.5K @ 256 should be infeasible")
	}
}

func TestPARFMAnalysisAPI(t *testing.T) {
	r, ok := PARFMRequiredRFMTH(6250)
	if !ok || r <= 0 {
		t.Fatalf("required RFMTH = %d", r)
	}
	bank, system := PARFMFailure(6250, r)
	if system > 1e-15 || bank > system {
		t.Fatalf("failure probabilities: bank=%g system=%g", bank, system)
	}
}

func TestNewSchemeAndRunEndToEnd(t *testing.T) {
	s, err := NewScheme("mithril+", SchemeOptions{Timing: DDR5(), FlipTH: 6250})
	if err != nil {
		t.Fatal(err)
	}
	sc := tinyScale()
	cfg := expspec.BaseSimConfig(6250, sc)
	cmp, err := NewEngine(DDR5()).Compare(context.Background(), cfg, MixBlend(sc.Cores, 1), s)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.RelativePerformance <= 0 {
		t.Fatalf("relative performance = %v", cmp.RelativePerformance)
	}
	if !cmp.Protected.Safety.Safe() {
		t.Fatal("benign run must stay safe")
	}
}

func TestFigure7DataSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	pts := runShipped(t, NewEngine(DDR5()), "figure7.quick", tinyScale()).AdTH
	if len(pts) != 10 {
		t.Fatalf("points = %d, want 2 configs × 5 AdTH", len(pts))
	}
	// AdTH=200 must not cost more energy than AdTH=0 on the same config
	// and workload (the entire point of adaptive refresh).
	for _, w := range []string{"multi-programmed", "multi-threaded"} {
		if pts[4].EnergyOverheadPct[w] > pts[0].EnergyOverheadPct[w]+0.5 {
			t.Errorf("%s: energy at AdTH=200 (%.2f%%) above AdTH=0 (%.2f%%)",
				w, pts[4].EnergyOverheadPct[w], pts[0].EnergyOverheadPct[w])
		}
	}
	// Additional Nentry grows with AdTH and stays modest.
	if pts[0].AdditionalNEntryPct != 0 || pts[4].AdditionalNEntryPct <= 0 || pts[4].AdditionalNEntryPct > 25 {
		t.Errorf("additional Nentry: %v .. %v", pts[0].AdditionalNEntryPct, pts[4].AdditionalNEntryPct)
	}
}

// TestParallelSweepMatchesSerial pins the sweep engine's determinism
// guarantee: fanning the cells out over workers must return exactly the
// serial path's results, in the serial path's order. The specs share
// baselines across rows (figure7's adth rows, figure9's Mithril/Mithril+
// pairs, figure10's schemes), so workers that find a baseline in flight run
// their protected simulation first; the points must not move.
func TestParallelSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sc := tinyScale()
	sc.InstrPerCore = 2_000
	points := func(res *ExperimentResult) any {
		switch {
		case res.Perf != nil:
			return res.Perf
		case res.Grid != nil:
			return res.Grid
		default:
			return res.AdTH
		}
	}
	serial := NewEngine(DDR5(), WithJobs(1))
	for _, name := range []string{"figure7.quick", "figure9.quick", "figure10.quick"} {
		want := points(runShipped(t, serial, name, sc))
		if reflect.ValueOf(want).Len() == 0 {
			t.Fatalf("%s: no points", name)
		}
		for _, jobs := range []int{2, 4} {
			got := points(runShipped(t, NewEngine(DDR5(), WithJobs(jobs)), name, sc))
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s at jobs=%d diverges:\nserial:   %v\nparallel: %v", name, jobs, want, got)
			}
		}
	}
}

func TestSafetySweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sc := tinyScale()
	sc.InstrPerCore = 10_000
	results := runShipped(t, NewEngine(DDR5()), "safety.quick", sc).Safety
	sawUnprotectedFlip := false
	for _, r := range results {
		if r.Scheme == "none" {
			if !r.Safe {
				sawUnprotectedFlip = true
			}
			continue
		}
		if !r.Safe {
			t.Errorf("%s flipped under %s: %d flips (max disturbance %.0f)",
				r.Scheme, r.Attack, r.Flips, r.MaxDisturbance)
		}
	}
	if !sawUnprotectedFlip {
		t.Error("control (none) never flipped — attack too weak to be meaningful")
	}
}
