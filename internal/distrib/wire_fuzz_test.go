package distrib_test

import (
	"encoding/json"
	"testing"

	"mithril/internal/distrib"
	"mithril/internal/expspec"
)

// FuzzDecodeShardRow drives the coordinator's decoding of worker NDJSON
// records with arbitrary lines, each decoded against a spec of every kind
// the way the merge loop decodes them. Decoding must never panic, and a
// record it accepts must yield a row inside the grid that carries exactly
// one point, of the spec's kind.
func FuzzDecodeShardRow(f *testing.F) {
	points := []expspec.Row{
		{Perf: &expspec.PerfPoint{Scheme: "mithril", FlipTH: 6250, RFMTH: 64, Workload: "mix-high", Seed: 1, RelativePerformance: 99.5}},
		{Safety: &expspec.SafetyResult{Scheme: "graphene", Attack: "double", FlipTH: 2000, MaxDisturbance: 812.5}},
		{Grid: &expspec.Figure9Point{FlipTH: 3125, RFMTH: 64, Mithril: 99.1, MithrilPlus: 100, TableKB: 1.79}},
		{AdTH: &expspec.Figure7Point{FlipTH: 6250, RFMTH: 128, AdTH: 200, EnergyOverheadPct: map[string]float64{"multi": 0.5}}},
	}
	for i, row := range points {
		payload, err := expspec.EncodeRowPayload(row)
		if err != nil {
			f.Fatal(err)
		}
		line, err := json.Marshal(distrib.ShardRecord{Row: i, Cached: i%2 == 0, Point: payload})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line, 4)
	}
	f.Add([]byte(`{"row":0,"point":{"perf":{"Scheme":"none"},"safety":{"Scheme":"none"}}}`), 1) // two points
	f.Add([]byte(`{"row":0,"point":{}}`), 1)                                                    // no point
	f.Add([]byte(`{"row":0,"point":null}`), 1)
	f.Add([]byte(`{"row":0}`), 1)
	f.Add([]byte(`{"row":-1,"point":{"perf":{}}}`), 1)
	f.Add([]byte(`{"row":7,"point":{"perf":{}}}`), 7)
	f.Add([]byte(`{"row":0,"point":"perf"}`), 1)
	f.Add([]byte(`{"row":0,"point":{"adth":{"EnergyOverheadPct":{"x":1e400}}}}`), 1)
	kinds := []expspec.Kind{expspec.Comparison, expspec.SafetyKind, expspec.ConfigGrid, expspec.AdTHSweep}

	f.Fuzz(func(t *testing.T, line []byte, grid int) {
		var rec distrib.ShardRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return // the merge loop rejects the line before decoding it
		}
		for _, kind := range kinds {
			row, err := distrib.DecodeShardRow(&expspec.Spec{Kind: kind}, grid, rec)
			if err != nil {
				continue
			}
			if row.Index != rec.Row || row.Index < 0 || row.Index >= grid {
				t.Fatalf("%s: accepted row %d for record row %d in a %d-row grid", kind, row.Index, rec.Row, grid)
			}
			if got := pointKinds(row); len(got) != 1 || got[0] != kind {
				t.Fatalf("%s: accepted a row carrying points %v", kind, got)
			}
		}
	})
}

// pointKinds lists the kinds whose point a row carries.
func pointKinds(row expspec.Row) []expspec.Kind {
	var kinds []expspec.Kind
	if row.Perf != nil {
		kinds = append(kinds, expspec.Comparison)
	}
	if row.Safety != nil {
		kinds = append(kinds, expspec.SafetyKind)
	}
	if row.Grid != nil {
		kinds = append(kinds, expspec.ConfigGrid)
	}
	if row.AdTH != nil {
		kinds = append(kinds, expspec.AdTHSweep)
	}
	return kinds
}
