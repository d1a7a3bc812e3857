package expspec

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// tiny returns a comparison spec whose grid is small enough to simulate in
// unit tests (two cores, a few hundred instructions).
func tiny() *Spec {
	return &Spec{
		Name:  "tiny",
		Title: "tiny comparison",
		Kind:  Comparison,
		Scale: ScaleSpec{Preset: "quick", Cores: 2, InstrPerCore: 400},
		Axes: Axes{
			Schemes:   []string{"none", "mithril"},
			FlipTHs:   []int{6250},
			Workloads: []string{"mix-high"},
		},
	}
}

// run executes s at its own resolved scale, failing the test on error.
func run(t *testing.T, s *Spec) *Result {
	t.Helper()
	sc, err := s.Scale.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunAtContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunComparisonRows(t *testing.T) {
	res := run(t, tiny())
	if len(res.Perf) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Perf))
	}
	for i, scheme := range []string{"none", "mithril"} {
		p := res.Perf[i]
		if p.Scheme != scheme || p.FlipTH != 6250 || p.Workload != "mix-high" || p.Seed != 1 {
			t.Errorf("row %d = %+v", i, p)
		}
		if p.RelativePerformance <= 0 {
			t.Errorf("row %d: non-positive perf %v", i, p.RelativePerformance)
		}
	}
	// The unprotected scheme is measured against the identical baseline
	// run, so it must sit at exactly 100%.
	if res.Perf[0].RelativePerformance != 100 {
		t.Errorf("none perf = %v, want 100", res.Perf[0].RelativePerformance)
	}
}

// Identical specs must produce identical results regardless of worker
// count: the sweep engine pins enumeration order.
func TestRunDeterministicAcrossJobs(t *testing.T) {
	serial := tiny()
	serialSc, _ := serial.Scale.Resolve()
	serialSc.Jobs = 1
	a, err := serial.RunAtContext(context.Background(), serialSc, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel := tiny()
	parallelSc, _ := parallel.Scale.Resolve()
	parallelSc.Jobs = 4
	b, err := parallel.RunAtContext(context.Background(), parallelSc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Perf, b.Perf) {
		t.Errorf("serial %v != parallel %v", a.Perf, b.Perf)
	}
}

// The seeds axis repeats the grid with seed outermost, and each seed's
// cells really use their own seed (different seeds perturb the random
// generators, so rows may differ).
func TestRunSeedsAxis(t *testing.T) {
	s := tiny()
	s.Axes.Seeds = []uint64{1, 2}
	res := run(t, s)
	if len(res.Perf) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Perf))
	}
	if res.Perf[0].Seed != 1 || res.Perf[2].Seed != 2 {
		t.Errorf("seeds = %d,%d want 1,2", res.Perf[0].Seed, res.Perf[2].Seed)
	}
}

func TestTableRendering(t *testing.T) {
	res := run(t, tiny())
	table, err := res.Table()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("table has %d lines:\n%s", len(lines), table)
	}
	wantHeader := []string{"scheme", "FlipTH", "workload", "perf%", "energy+%", "tableKB", "safe"}
	if got := strings.Fields(lines[0]); !reflect.DeepEqual(got, wantHeader) {
		t.Errorf("header = %v, want %v", got, wantHeader)
	}
	if !strings.HasPrefix(lines[2], "none") || !strings.HasPrefix(lines[3], "mithril") {
		t.Errorf("rows out of order:\n%s", table)
	}
}

func TestColumnSelection(t *testing.T) {
	s := tiny()
	s.Columns = []string{"scheme", "perf", "seed"}
	res := run(t, s)
	table, err := res.Table()
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(table, "\n", 2)[0]
	if got := strings.Fields(head); !reflect.DeepEqual(got, []string{"scheme", "perf%", "seed"}) {
		t.Errorf("selected table:\n%s", table)
	}
}

// CSV output must parse back with encoding/csv and preserve full float
// precision (strconv round-trip).
func TestCSVRoundTrip(t *testing.T) {
	res := run(t, tiny())
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("records = %d, want header + 2 rows", len(records))
	}
	wantHeader := []string{"scheme", "flipth", "workload", "perf", "energy", "tablekb", "safe"}
	if !reflect.DeepEqual(records[0], wantHeader) {
		t.Errorf("header = %v, want %v", records[0], wantHeader)
	}
	perfIdx := 3
	for i, row := range records[1:] {
		v, err := strconv.ParseFloat(row[perfIdx], 64)
		if err != nil {
			t.Fatalf("row %d perf %q: %v", i, row[perfIdx], err)
		}
		if v != res.Perf[i].RelativePerformance {
			t.Errorf("row %d perf %v does not round-trip %v", i, v, res.Perf[i].RelativePerformance)
		}
	}
}

// JSON output must parse back and carry the spec identity, resolved scale,
// and one object per row.
func TestJSONRoundTrip(t *testing.T) {
	res := run(t, tiny())
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Name  string `json:"name"`
		Kind  string `json:"kind"`
		Scale struct {
			Cores        int   `json:"cores"`
			InstrPerCore int64 `json:"instr_per_core"`
		} `json:"scale"`
		Columns []string         `json:"columns"`
		Rows    []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Name != "tiny" || doc.Kind != "comparison" || doc.Scale.Cores != 2 || doc.Scale.InstrPerCore != 400 {
		t.Errorf("doc identity = %+v", doc)
	}
	if len(doc.Rows) != 2 || doc.Rows[1]["scheme"] != "mithril" {
		t.Errorf("rows = %v", doc.Rows)
	}
	if got := doc.Rows[0]["perf"].(float64); got != res.Perf[0].RelativePerformance {
		t.Errorf("perf %v does not round-trip %v", got, res.Perf[0].RelativePerformance)
	}
}

// The golden emitter must match the equivalence tests' line format exactly
// — the CI golden gate diffs it against testdata/golden_*.txt.
func TestGoldenFormat(t *testing.T) {
	res := &Result{
		Spec: &Spec{Kind: Comparison},
		Perf: []PerfPoint{{
			Scheme: "mithril", FlipTH: 6250, Workload: "normal",
			RelativePerformance: 101.94179805479314, EnergyOverheadPct: -0.08182748039549836,
			TableKB: 0.90625, Safe: true,
		}},
	}
	want := "mithril flipTH=6250 rfmTH=0 workload=normal perf=101.94179805479314 energy=-0.08182748039549836 tableKB=0.90625 safe=true\n"
	if got := res.Golden(); got != want {
		t.Errorf("Golden() = %q, want %q", got, want)
	}
	sres := &Result{
		Spec:   &Spec{Kind: SafetyKind},
		Safety: []SafetyResult{{Scheme: "none", Attack: "double-sided", FlipTH: 2000, Flips: 3, MaxDisturbance: 4188, Safe: false}},
	}
	swant := "none attack=double-sided flipTH=2000 flips=3 maxDisturbance=4188 safe=false\n"
	if got := sres.Golden(); got != swant {
		t.Errorf("Golden() = %q, want %q", got, swant)
	}
}

// The safety table sorts by (attack, scheme) like the CLI, while machine
// formats keep raw grid order.
func TestSafetyTableSorted(t *testing.T) {
	res := &Result{
		Spec: &Spec{Kind: SafetyKind},
		Safety: []SafetyResult{
			{Scheme: "parfm", Attack: "double-sided"},
			{Scheme: "blockhammer", Attack: "double-sided"},
		},
	}
	table, err := res.Table()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(table, "\n")
	if !strings.Contains(lines[2], "blockhammer") || !strings.Contains(lines[3], "parfm") {
		t.Errorf("table not sorted:\n%s", table)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, _ := csv.NewReader(&buf).ReadAll()
	if records[1][1] != "parfm" {
		t.Errorf("CSV reordered rows: %v", records)
	}
}

func TestEmitUnknownFormat(t *testing.T) {
	res := &Result{Spec: &Spec{Kind: Comparison}}
	if err := res.Emit(&bytes.Buffer{}, "yaml"); err == nil {
		t.Error("Emit(yaml) succeeded, want error")
	}
}

func TestBenignIPCAttackerClamp(t *testing.T) {
	ipcs := []float64{1, 2, 4}
	cases := []struct {
		attackers int
		want      float64
	}{
		{0, 7},
		{1, 3},
		{2, 1},
		{-1, 7}, // negative count means none — must not walk past the slice
		{-10, 7},
		{3, 0},
		{5, 0}, // more attackers than cores: nothing benign to sum
	}
	for _, c := range cases {
		if got := BenignIPC(ipcs, c.attackers); got != c.want {
			t.Errorf("BenignIPC(attackers=%d) = %v, want %v", c.attackers, got, c.want)
		}
	}
}
