package mithril

// Shipped-spec goldens: every specs/*.golden.json and specs/*.quick.json
// runs at its own scale, and its full-precision golden rendering must
// match testdata/golden_<spec>.txt byte for byte — the same check
// `mithrilsim diff specs/<spec>.json testdata/golden_<spec>.txt` makes
// from the CLI, under the same name mapping (figure9.golden ->
// golden_figure9.txt, figure9.quick -> golden_figure9.quick.txt). The
// golden-scale files were first generated from the map-based per-bank
// state the dense layout replaced, and the quick files pin the
// event-calendar loop, which internal/sim holds to its tick-all reference
// on whole Results. Regenerate with `go test -run TestShippedSpecGoldens
// -update` (only when a behaviour change is intentional and explained in
// the commit).

import (
	"context"
	"flag"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"

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

// goldenFile names the testdata file a shipped spec is pinned in.
func goldenFile(spec string) string {
	return "golden_" + strings.TrimSuffix(spec, ".golden") + ".txt"
}

func TestShippedSpecGoldens(t *testing.T) {
	var names []string
	for _, pattern := range []string{"specs/*.golden.json", "specs/*.quick.json"} {
		paths, err := fs.Glob(SpecsFS(), pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatalf("no shipped specs match %s", pattern)
		}
		for _, p := range paths {
			names = append(names, strings.TrimSuffix(path.Base(p), ".json"))
		}
	}

	// A golden file no shipped spec renders is never checked.
	pinned := map[string]bool{}
	for _, name := range names {
		pinned[goldenFile(name)] = true
	}
	files, err := filepath.Glob(filepath.Join("testdata", "golden_*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !pinned[filepath.Base(f)] {
			t.Errorf("%s has no shipped spec to check it", f)
		}
	}

	if testing.Short() {
		t.Skip("simulation sweep")
	}
	eng := NewEngine(DDR5())
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			sp, err := LoadShippedSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunSpec(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, goldenFile(name), res.Golden())
		})
	}
}
