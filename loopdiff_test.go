package mithril

// Quick-spec goldens for the simulator loop: every shipped quick spec runs
// at the golden scale and its full-precision golden rendering must match
// testdata/golden_<spec>.txt byte for byte (regenerate with -update). The
// files were recorded while the event calendar and the tick-all loop it
// replaced still ran side by side and agreed on every spec, so they carry
// that equivalence forward as data. internal/sim holds the calendar to its
// tick-all reference loop on whole Results, and internal/mc holds the
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
	// The goldens' instruction budget: large enough that refresh windows,
	// RFM pacing, and throttling all fire, so a wrong skip decision shows.
	sc := goldenScale()
	for _, specPath := range names {
		name := strings.TrimSuffix(path.Base(specPath), ".json")
		t.Run(name, func(t *testing.T) {
			sp, err := LoadShippedSpec(name)
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
