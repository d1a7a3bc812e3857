package expspec

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"mithril/internal/mc"
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
