package mithril

// Quick-spec goldens for the simulator loop: every shipped quick spec runs
// at its own scale and its full-precision golden rendering must match
// testdata/golden_<spec>.txt byte for byte (regenerate with -update), the
// same check `mithrilsim diff specs/<spec>.json testdata/golden_<spec>.txt`
// makes from the CLI. The calendar loop they pin was held to the tick-all
// loop it replaced on every spec; internal/sim keeps holding the calendar
// to that tick-all reference on whole Results, and internal/mc holds the
// controller's skip and deadline caches to a from-scratch rescan.

import (
	"context"
	"io/fs"
	"path"
	"strings"
	"testing"
)

func TestLoopEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	names, err := fs.Glob(SpecsFS(), "specs/*.quick.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no shipped quick specs found")
	}
	for _, specPath := range names {
		name := strings.TrimSuffix(path.Base(specPath), ".json")
		t.Run(name, func(t *testing.T) {
			sp, err := LoadShippedSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			// The quick preset's instruction budget is large enough that
			// refresh windows, RFM pacing, and throttling all fire, so a
			// wrong skip decision shows.
			sc, err := sp.Scale.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			res, err := sp.RunAtContext(context.Background(), sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "golden_"+name+".txt", res.Golden())
		})
	}
}
