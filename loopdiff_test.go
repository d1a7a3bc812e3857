package mithril

// Differential equivalence for the PR 8 event calendar: every shipped
// quick spec runs twice in-process — once through the legacy tick loop
// (sim.SetLegacyTickLoop, the pre-calendar reference implementation that
// polls every subsystem every iteration) and once through the next-event
// calendar — and the full-precision golden renderings must match byte for
// byte. The tick loop computes nothing lazily, so any divergence indicts
// a calendar skip or deadline-cache decision, with the row-level diff
// pointing at the first affected cell. The calendar rendering is also
// pinned in testdata/golden_<spec>.txt (regenerate with -update), so a
// change that moves both loops alike still fails.

import (
	"context"
	"io/fs"
	"path"
	"strings"
	"testing"

	"mithril/internal/sim"
	"mithril/internal/stats"
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
	// RFM pacing, and throttling all fire, so the loops can actually
	// disagree if a skip decision is wrong.
	sc := goldenScale()
	for _, specPath := range names {
		name := strings.TrimSuffix(path.Base(specPath), ".json")
		t.Run(name, func(t *testing.T) {
			sp, err := LoadShippedSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			prev := sim.SetLegacyTickLoop(true)
			legacyRes, err := sp.RunAtContext(context.Background(), sc, nil)
			sim.SetLegacyTickLoop(prev)
			if err != nil {
				t.Fatalf("legacy tick loop: %v", err)
			}
			calRes, err := sp.RunAtContext(context.Background(), sc, nil)
			if err != nil {
				t.Fatalf("calendar loop: %v", err)
			}
			legacy, calendar := legacyRes.Golden(), calRes.Golden()
			if legacy != calendar {
				t.Errorf("calendar loop diverges from tick loop on %s; diff (-tick +calendar):\n%s",
					name, stats.DiffLines(legacy, calendar))
			}
			checkGolden(t, "golden_"+name+".txt", calendar)
		})
	}
}
