package mithril

// Round-trip tests for the declarative experiment layer: every shipped
// spec must parse and validate, and the shipped scenario and figure10
// specs must run through the generic expspec executor at a
// unit-test-sized scale, emitting one row per grid cell in every format.

import (
	"context"
	"strings"
	"testing"

	"mithril/internal/expspec"
)

// TestShippedSpecsValidate parses the whole embedded spec inventory; a
// broken shipped spec should fail `go test`, not the first CLI user.
func TestShippedSpecsValidate(t *testing.T) {
	specs, err := expspec.LoadAll(SpecsFS(), "specs")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 14 {
		t.Fatalf("only %d shipped specs found", len(specs))
	}
	// Every simulation figure ships quick and full variants, the CI
	// golden gate needs the golden variants, and the scenario sampler
	// exercises the attacks axis and the trace-file workload.
	want := []string{
		"figure7.quick", "figure7.full",
		"figure9.quick", "figure9.full", "figure9.golden",
		"figure10.quick", "figure10.full", "figure10.golden",
		"figure11.quick", "figure11.full",
		"safety.quick", "safety.full", "safety.golden",
		"scenario.quick",
	}
	byName := map[string]*expspec.Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	for _, name := range want {
		if byName[name] == nil {
			t.Errorf("shipped spec %q missing", name)
		}
	}
	// The golden variants must actually run at the golden scale the
	// testdata files were generated at.
	for _, name := range []string{"figure9.golden", "figure10.golden", "safety.golden"} {
		sp := byName[name]
		if sp == nil {
			continue
		}
		sc, err := sp.Scale.Resolve()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if g := expspec.GoldenScale(); sc.Cores != g.Cores || sc.InstrPerCore != g.InstrPerCore || sc.TimeScale != g.TimeScale {
			t.Errorf("%s resolves to %+v, want golden scale %+v", name, sc, g)
		}
	}
}

// roundTripScale is small enough for a unit test yet runs the full
// comparison machinery (normal geomean, multi-sided attack, adversarial
// workload construction).
func roundTripScale() Scale {
	return Scale{Cores: 4, InstrPerCore: 2_000, FlipTHs: []int{6250}, Seed: 1, TimeScale: 8}
}

// TestScenarioSpecRoundTrip runs the shipped scenario sampler — the spec
// that exercises the attacks axis and the trace:<path> workload — at a
// unit-test scale and emits it in every machine format, pinning the
// acceptance path `mithrilsim run scenario.quick -format=...` exercises.
func TestScenarioSpecRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sp, err := expspec.LoadFS(SpecsFS(), "specs/scenario.quick.json")
	if err != nil {
		t.Fatal(err)
	}
	sc := roundTripScale()
	res, err := sp.RunAtContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := sp.Expand(sc)
	if len(res.Perf) != len(cells) {
		t.Fatalf("emitted %d rows for %d cells", len(res.Perf), len(cells))
	}
	// Per scheme: the trace-replay workload row, then the attack rows
	// under their generators' display names.
	wantWorkloads := []string{"trace:testdata/sample_workload.trace", "multi-sided-8", "decoy-4"}
	for i, p := range res.Perf {
		if want := wantWorkloads[i%len(wantWorkloads)]; p.Workload != want {
			t.Errorf("row %d workload = %q, want %q", i, p.Workload, want)
		}
		if p.RelativePerformance <= 0 {
			t.Errorf("row %d has no measured performance: %+v", i, p)
		}
	}
	for _, format := range []string{expspec.FormatTable, expspec.FormatCSV, expspec.FormatJSON} {
		var b strings.Builder
		if err := res.Emit(&b, format); err != nil {
			t.Fatalf("emit %s: %v", format, err)
		}
		if !strings.Contains(b.String(), "multi-sided-8") {
			t.Errorf("%s output lacks the attack row:\n%s", format, b.String())
		}
	}
}

func TestSpecDrivenFigure10RoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	sc := roundTripScale()
	sp, err := expspec.LoadFS(SpecsFS(), "specs/figure10.quick.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.RunAtContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The spec grid names what actually ran, in order.
	cells := sp.Expand(sc)
	if len(cells) != len(res.Perf) {
		t.Fatalf("Expand = %d cells, run emitted %d rows", len(cells), len(res.Perf))
	}
	for i, c := range cells {
		if res.Perf[i].Scheme != c.Scheme || res.Perf[i].FlipTH != c.FlipTH ||
			res.Perf[i].Workload != c.Workload {
			t.Errorf("row %d = %+v, want cell %+v", i, res.Perf[i], c)
		}
	}
	// Machine formats stay available on the same result.
	var b strings.Builder
	if err := res.Emit(&b, expspec.FormatCSV); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(b.String(), "\n"); lines != len(res.Perf)+1 {
		t.Errorf("CSV emitted %d lines, want %d rows + header", lines, len(res.Perf))
	}
}
