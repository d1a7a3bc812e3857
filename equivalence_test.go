package mithril

// Golden equivalence tests for the dense per-bank state refactor: the
// PerfPoint tables of the QuickScale Figure 9/10 sweeps and the SafetySweep
// verdicts are pinned byte-for-byte in testdata/. The goldens were generated
// from the map-based implementation the dense layout replaced, so a passing
// run proves the refactor is output-equivalent, not merely plausible.
// Regenerate with `go test -run TestGolden -update` (only when a behaviour
// change is intentional and explained in the commit).

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mithril/internal/expspec"
	"mithril/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden testdata files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s diverges from golden; diff:\n%s", name, stats.DiffLines(string(want), got))
	}
}

// formatPerfPoints renders every field of every point with the full float64
// round-trip precision ('g' verb), so any numeric drift fails the test.
func formatPerfPoints(pts []PerfPoint) string {
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "%s flipTH=%d rfmTH=%d workload=%s perf=%g energy=%g tableKB=%g safe=%v\n",
			p.Scheme, p.FlipTH, p.RFMTH, p.Workload,
			p.RelativePerformance, p.EnergyOverheadPct, p.TableKB, p.Safe)
	}
	return b.String()
}

func TestGoldenFigure9(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	pts, err := Figure9Data(expspec.GoldenScale())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "flipTH=%d rfmTH=%d mithril=%g mithril+=%g tableKB=%g energy=%g energy+=%g\n",
			p.FlipTH, p.RFMTH, p.Mithril, p.MithrilPlus, p.TableKB, p.EnergyMithril, p.EnergyPlus)
	}
	checkGolden(t, "golden_figure9.txt", b.String())
}

func TestGoldenFigure10(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	pts, err := Figure10Data(expspec.GoldenScale())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_figure10.txt", formatPerfPoints(pts))
}

func TestGoldenSafetySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	results, err := SafetySweep(expspec.GoldenScale(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%s attack=%s flipTH=%d flips=%d maxDisturbance=%g safe=%v\n",
			r.Scheme, r.Attack, r.FlipTH, r.Flips, r.MaxDisturbance, r.Safe)
	}
	checkGolden(t, "golden_safety.txt", b.String())
}
