package expspec

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"mithril/internal/energy"
	"mithril/internal/mc"
	"mithril/internal/mitigation"
	"mithril/internal/rh"
	"mithril/internal/sim"
	"mithril/internal/sweep"
	"mithril/internal/trace"
)

// TestUnprotectedRunIndependentOfFlipTH is the proof baselineKey rests on:
// FlipTH parameterizes only the rh fault checker, so an unprotected run of
// every comparison workload shape — benign, multi-sided, the adversarial
// cell's fallback rows, an attacks-axis pattern — simulates the same
// machine at any threshold.
func TestUnprotectedRunIndependentOfFlipTH(t *testing.T) {
	sc := QuickScale()
	const seed = 1
	multi8, err := attackWorkload(sc, seed, "multi:8")
	if err != nil {
		t.Fatal(err)
	}
	adversarial, _ := adversarialWorkload(sc, seed, mc.NoProtection{})
	for _, w := range []trace.Workload{
		trace.MixHigh(sc.Cores, seed),
		trace.FFT(sc.Cores, seed),
		multiSidedWorkload(sc, seed),
		adversarial,
		multi8,
	} {
		t.Run(w.Name, func(t *testing.T) {
			a, err := sim.RunContext(context.Background(), sc.cfgFor(6250, w))
			if err != nil {
				t.Fatal(err)
			}
			b, err := sim.RunContext(context.Background(), sc.cfgFor(1500, w))
			if err != nil {
				t.Fatal(err)
			}
			if a.Safety.FlipTH == b.Safety.FlipTH {
				t.Fatalf("both runs checked at FlipTH %d; the threshold never reached the checker", a.Safety.FlipTH)
			}
			for _, f := range []struct {
				name string
				a, b any
			}{
				{"IPCs", a.IPCs, b.IPCs},
				{"Energy", a.Energy, b.Energy},
				{"Device", a.Device, b.Device},
				{"MC", a.MC, b.MC},
				{"SimulatedTime", a.SimulatedTime, b.SimulatedTime},
				{"LLCHitRate", a.LLCHitRate, b.LLCHitRate},
				{"Finished", a.Finished, b.Finished},
			} {
				if !reflect.DeepEqual(f.a, f.b) {
					t.Errorf("%s differs between FlipTH 6250 and 1500:\n%+v\n%+v", f.name, f.a, f.b)
				}
			}
		})
	}
}

// TestAdTHLeavesTimingUnchanged is the proof the adth kind's lanes rest
// on: plain Mithril's AdTH picks only what is refreshed inside RFM windows
// the controller grants anyway, so independent runs at every AdTH level
// agree on everything but the preventive rows, the energy they cost, and
// the fault checker's view of them.
func TestAdTHLeavesTimingUnchanged(t *testing.T) {
	sc := QuickScale()
	const seed = 1
	for _, cfg := range []ConfigPoint{{FlipTH: 3125, RFMTH: 16}, {FlipTH: 6250, RFMTH: 64}} {
		for _, w := range []trace.Workload{trace.MixHigh(sc.Cores, seed), trace.FFT(sc.Cores, seed)} {
			t.Run(fmt.Sprintf("%s/%d-%d", w.Name, cfg.FlipTH, cfg.RFMTH), func(t *testing.T) {
				var ref sim.Result
				preventive := map[uint64]bool{}
				for i, ad := range []int{0, 50, 100, 150, 200} {
					scheme, err := mitigation.Build("mithril", mitigation.Options{
						Timing: sc.Params(), FlipTH: cfg.FlipTH, RFMTH: cfg.RFMTH, AdTH: adthOption(ad), Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					run := sc.cfgFor(cfg.FlipTH, w)
					run.Scheme = scheme
					res, err := sim.RunContext(context.Background(), run)
					if err != nil {
						t.Fatal(err)
					}
					preventive[res.Device.PreventiveRows] = true
					res.Device.PreventiveRows, res.Energy, res.Safety = 0, energy.Breakdown{}, rh.Report{}
					if i == 0 {
						ref = res
					} else if !reflect.DeepEqual(res, ref) {
						t.Errorf("AdTH %d moved the run:\n%+v\nAdTH 0:\n%+v", ad, res, ref)
					}
				}
				if len(preventive) < 2 {
					t.Errorf("every AdTH level refreshed the same rows: the levels are never told apart")
				}
			})
		}
	}
}

// TestAdTHLanesMatchIndependentRuns checks laned adth rows against rows
// simulated one AdTH level at a time, at a point no golden pins: a
// non-default seed, an unsorted AdTH axis, and a shard that covers only
// some of the rows. A laned run is also the lane-0 run exactly, down to
// the fault checker, since lane 0 alone refreshes the device's rows.
func TestAdTHLanesMatchIndependentRuns(t *testing.T) {
	s := &Spec{
		Name:  "lanes",
		Title: "AdTH lanes",
		Kind:  AdTHSweep,
		Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{
			Configs:   []ConfigPoint{{FlipTH: 6250, RFMTH: 64}},
			AdTHs:     []int{150, 0, 200, 50, 100},
			Workloads: []string{"multi-threaded", "multi-programmed"},
			Seeds:     []uint64{7},
		},
	}
	sc, err := s.Scale.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sc.Jobs = 2
	ctx := context.Background()
	shard := []int{3, 0, 2} // AdTH 50, 150 and 200
	seq, err := s.StreamRowsAt(ctx, sc, shard, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.NewExecution(sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	energies := map[float64]bool{}
	rows := 0
	for row, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		rows++
		c := row.Cell
		for _, wName := range s.Axes.Workloads {
			w := adthWorkloads[wName].build(sc.Cores, c.Seed)
			opt, _ := adthKind{}.mithrilPoint(sc, c)
			opt.Seed = c.Seed
			scheme, err := mitigation.Build("mithril", opt)
			if err != nil {
				t.Fatal(err)
			}
			alone, err := x.measure(ctx, scheme, c.Seed, c.FlipTH, w, w.Name)
			if err != nil {
				t.Fatal(err)
			}
			got := row.AdTH.EnergyOverheadPct[wName]
			if got != alone.EnergyOverheadPct {
				t.Errorf("row %d (AdTH %d) %s: laned energy %v%%, alone %v%%", row.Index, c.AdTH, wName, got, alone.EnergyOverheadPct)
			}
			energies[got] = true
		}
	}
	if rows != len(shard) {
		t.Fatalf("shard yielded %d rows, want %d", rows, len(shard))
	}
	if len(energies) < 2 {
		t.Fatal("every laned row priced the same energy: the lanes are never told apart")
	}

	// The laned run itself is the lane-0 run.
	levels := []int{adthOption(50), adthOption(0), adthOption(200)}
	opt := mitigation.Options{Timing: sc.Params(), FlipTH: 6250, RFMTH: 64, Seed: 7}
	w := trace.MixHigh(sc.Cores, 7)
	lanes, err := mitigation.BuildLanes("mithril", opt, levels)
	if err != nil {
		t.Fatal(err)
	}
	run := sc.cfgFor(opt.FlipTH, w)
	run.Scheme = lanes
	laned, err := sim.RunContext(ctx, run)
	if err != nil {
		t.Fatal(err)
	}
	opt.AdTH = levels[0]
	if run.Scheme, err = mitigation.Build("mithril", opt); err != nil {
		t.Fatal(err)
	}
	run.Workload = w.Fresh()
	alone, err := sim.RunContext(ctx, run)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(laned, alone) {
		t.Errorf("laned run differs from its lane-0 run:\n%+v\n%+v", laned, alone)
	}
	if p := lanes.PreventiveRows(); p[0] != alone.Device.PreventiveRows || p[0] == p[1] && p[1] == p[2] {
		t.Errorf("lane preventive rows %v, lane-0 run %d: want lane 0 to match and the lanes to differ", p, alone.Device.PreventiveRows)
	}
}

// TestBaselineSharingMatchesRowsAlone runs a Figure 10 grid over two
// thresholds against one cache, pins how many baselines it simulates, and
// checks every row against the same row executed alone with a private
// cache: sharing a baseline across FlipTH and scheme never moves a byte.
// The grid is the repository benchmark's attack-sweep comparison grid, at
// its golden scale (QuickScale geometry at half the instruction budget).
func TestBaselineSharingMatchesRowsAlone(t *testing.T) {
	s := &Spec{
		Name:  "sharing",
		Title: "baseline sharing",
		Kind:  Comparison,
		Scale: ScaleSpec{Preset: "golden"},
		Axes: Axes{
			Schemes:     []string{"parfm", "blockhammer", "mithril", "mithril+"},
			FlipTHs:     []int{6250, 1500},
			Workloads:   []string{normalSet, multiSidedRH},
			Adversarial: true,
		},
	}
	sc, err := s.Scale.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sc.Jobs = 2
	ctx := context.Background()
	cache := NewBaselineCache()
	res, err := s.RunAtContext(ctx, sc, &ExecOptions{Baselines: cache})
	if err != nil {
		t.Fatal(err)
	}
	// mix-high and fft (the quick normal set) and multi-sided-rh once
	// each; the adversarial cell once for the fallback rows parfm, mithril
	// and mithril+ share at both thresholds, and once per threshold for
	// BlockHammer, whose filter size (so its collision rows) follows FlipTH.
	if got, want := cache.Len(), 6; got != want {
		t.Errorf("grid simulated %d baselines, want %d", got, want)
	}
	cells := s.Expand(sc)
	if len(res.Perf) != len(cells) {
		t.Fatalf("rows = %d, want %d", len(res.Perf), len(cells))
	}
	alone, err := sweep.RunContext(ctx, 2, len(cells), func(ctx context.Context, i int) (Row, error) {
		seq, err := s.StreamRowsAt(ctx, sc, []int{i}, nil)
		if err != nil {
			return Row{}, err
		}
		var row Row
		for r, err := range seq {
			if err != nil {
				return Row{}, err
			}
			row = r
		}
		return row, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range alone {
		shared, err := encodeRow(Row{Perf: &res.Perf[i]})
		if err != nil {
			t.Fatal(err)
		}
		own, err := encodeRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(shared, own) {
			t.Errorf("row %d (%+v): shared-baseline run %s, alone %s", i, cells[i], shared, own)
		}
	}
}
