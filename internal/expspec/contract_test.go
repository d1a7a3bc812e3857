package expspec

import (
	"context"
	"errors"
	"io/fs"
	"testing"
)

// The stored-row contract: stamps, keys and payload bytes of rows already
// on disk (or in flight between fleet processes) must not move, or every
// warm store silently goes cold and mixed-version fleets stop merging.
// One fixed cell and row per kind is pinned to literal bytes.
func TestStoreContract(t *testing.T) {
	const wantStamp = "v1+1fcb407ff7ac3aca"
	if got := StoreStamp(); got != wantStamp {
		t.Errorf("StoreStamp() = %q, want %q", got, wantStamp)
	}
	sc := QuickScale()
	cases := []struct {
		spec        *Spec
		cell        Cell
		row         Row
		wantKey     string
		wantPayload string
	}{
		{
			spec: &Spec{Name: "c", Kind: Comparison, Scale: ScaleSpec{Preset: "quick"},
				Axes: Axes{Schemes: []string{"mithril"}, Workloads: []string{"mix-high"}}},
			cell: Cell{Seed: 1, FlipTH: 6250, Scheme: "mithril", Workload: "mix-high"},
			row: Row{Perf: &PerfPoint{Scheme: "mithril", FlipTH: 6250, Workload: "mix-high", Seed: 1,
				RelativePerformance: 98.7654321012345, EnergyOverheadPct: 1.0000000000000002, TableKB: 33.3, Safe: true}},
			wantKey:     "94df5417eb9eb342ee05ed97be202ff6d06a73650378e63929ae0540c33c198d",
			wantPayload: `{"perf":{"Scheme":"mithril","FlipTH":6250,"RFMTH":0,"Workload":"mix-high","Seed":1,"RelativePerformance":98.7654321012345,"EnergyOverheadPct":1.0000000000000002,"TableKB":33.3,"Safe":true}}`,
		},
		{
			spec: &Spec{Name: "s", Kind: SafetyKind, Scale: ScaleSpec{Preset: "quick"},
				Axes: Axes{Schemes: []string{"graphene"}, FlipTHs: []int{2000}, Attacks: []string{"multi:08"}}},
			cell: Cell{Seed: 1, FlipTH: 2000, Scheme: "graphene", Attack: "multi:08"},
			row: Row{Safety: &SafetyResult{Scheme: "graphene", Attack: "multi-sided-8", FlipTH: 2000, Seed: 1,
				Flips: 3, MaxDisturbance: 2047.5, Safe: false}},
			wantKey:     "11d0c4cd90010602a0f97cad186970b00865fba79cc34e5b05c21ed72dcd21f2",
			wantPayload: `{"safety":{"Scheme":"graphene","Attack":"multi-sided-8","FlipTH":2000,"Seed":1,"Flips":3,"MaxDisturbance":2047.5,"Safe":false}}`,
		},
		{
			spec: &Spec{Name: "g", Kind: ConfigGrid, Scale: ScaleSpec{Preset: "quick"},
				Axes: Axes{Workloads: []string{"fft"}, Grid: []GridLevel{{FlipTH: 3125, RFMTHs: []int{64}}}}},
			cell: Cell{Seed: 2, FlipTH: 3125, RFMTH: 64, Workload: "fft"},
			row: Row{Grid: &Figure9Point{FlipTH: 3125, RFMTH: 64, Seed: 2, Mithril: 99.25, MithrilPlus: 99.5,
				TableKB: 12.125, EnergyMithril: 0.1, EnergyPlus: -0.2}},
			wantKey:     "3cb1aa09f7652658ac798adb5bd96bdc08880bfc35ee3607eede7f379507975e",
			wantPayload: `{"grid":{"FlipTH":3125,"RFMTH":64,"Seed":2,"Mithril":99.25,"MithrilPlus":99.5,"TableKB":12.125,"EnergyMithril":0.1,"EnergyPlus":-0.2}}`,
		},
		{
			spec: &Spec{Name: "a", Kind: AdTHSweep, Scale: ScaleSpec{Preset: "quick"},
				Axes: Axes{Configs: []ConfigPoint{{FlipTH: 6250, RFMTH: 64}}, AdTHs: []int{100},
					Workloads: []string{"multi-threaded", "multi-programmed"}}},
			cell: Cell{Seed: 1, FlipTH: 6250, RFMTH: 64, AdTH: 100},
			row: Row{AdTH: &Figure7Point{FlipTH: 6250, RFMTH: 64, AdTH: 100, Seed: 1,
				EnergyOverheadPct:   map[string]float64{"multi-threaded": 2.5, "multi-programmed": -1.25},
				AdditionalNEntryPct: 4.3478260869565215}},
			wantKey:     "4bdce3b4ba1edc6bc95430dd6519bb29c8474c1d81636e5da7ce7d10d4795650",
			wantPayload: `{"adth":{"FlipTH":6250,"RFMTH":64,"AdTH":100,"Seed":1,"EnergyOverheadPct":{"multi-programmed":-1.25,"multi-threaded":2.5},"AdditionalNEntryPct":4.3478260869565215}}`,
		},
	}
	for _, tc := range cases {
		t.Run(string(tc.spec.Kind), func(t *testing.T) {
			if err := tc.spec.Validate(); err != nil {
				t.Fatal(err)
			}
			key, ok, err := tc.spec.cellKey(sc, tc.cell, wantStamp)
			if err != nil || !ok {
				t.Fatalf("cellKey: ok=%v err=%v", ok, err)
			}
			if key.String() != tc.wantKey {
				t.Errorf("cellKey = %s, want %s", key, tc.wantKey)
			}
			payload, err := encodeRow(tc.row)
			if err != nil {
				t.Fatal(err)
			}
			if string(payload) != tc.wantPayload {
				t.Errorf("encodeRow = %s, want %s", payload, tc.wantPayload)
			}
			back := Row{}
			if !decodeRow(tc.spec.Kind, payload, &back) {
				t.Fatal("decodeRow rejected its own kind's payload")
			}
			again, err := encodeRow(back)
			if err != nil || string(again) != tc.wantPayload {
				t.Errorf("re-encoded decoded row = %s (%v), want %s", again, err, tc.wantPayload)
			}
		})
	}
}

// A shard prepares only the inputs its own rows name: a worker handed row
// 0 of a spec that also replays a missing trace file must run it cleanly,
// while the shard that does include the trace row fails before its first
// yield with the open error.
func TestSubsetPreparesOnlyItsRows(t *testing.T) {
	const missing = "trace:/nonexistent/x.trace"
	s := &Spec{Name: "subset", Kind: Comparison,
		Scale: ScaleSpec{Preset: "quick", Cores: 2, InstrPerCore: 500},
		Axes:  Axes{Schemes: []string{"mithril"}, FlipTHs: []int{6250}, Workloads: []string{"mix-high", missing}}}
	sc, err := s.Scale.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := s.StreamRowsAt(context.Background(), sc, []int{0}, nil)
	if err != nil {
		t.Fatalf("row 0 alone: %v", err)
	}
	n := 0
	for row, err := range seq {
		if err != nil {
			t.Fatalf("row 0 alone: %v", err)
		}
		if row.Index != 0 || row.Perf == nil || row.Perf.Workload != "mix-high" {
			t.Fatalf("row 0 alone yielded %+v", row)
		}
		n++
	}
	if n != 1 {
		t.Fatalf("row 0 alone yielded %d rows", n)
	}
	seq, err = s.StreamRowsAt(context.Background(), sc, []int{1}, nil)
	if err == nil || seq != nil || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("row 1: err=%v seq=%v, want the trace open error before the first yield", err, seq != nil)
	}
}
