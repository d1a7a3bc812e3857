//go:build !race

// The race runtime allocates on its own, so the allocation checks build
// only without -race.

package mitigation

import (
	"testing"

	"mithril/internal/mc"
	"mithril/internal/timing"
)

// allocExceptions names the schemes whose steady state allocates by
// design, with the reason.
var allocExceptions = map[string]string{
	"twice": "TWiCe's lossy table is heap-backed: every row that enters it allocates an entry (the modeled inefficiency)",
}

// TestSchemesSteadyStateAllocFree checks that, once every per-bank
// structure exists, a scheme's ACT and RFM handling allocates nothing: not
// per ACT, and not at the periodic table resets and filter swaps, which
// the measured stretch crosses at the quick scale's compressed refresh
// window. The Mithril lane scheme the AdTH sweep runs is checked too.
func TestSchemesSteadyStateAllocFree(t *testing.T) {
	p := timing.DDR5()
	p.TREFW /= 8 // the quick scale's time compression
	p.RefreshGroups /= 8
	opt := Options{Timing: p, FlipTH: 2000, Seed: 7}
	acts := 2 * p.ACTsPerREFW() // per measured stretch: four Graphene resets
	builders := map[string]func() (mc.Scheme, error){
		"mithril lanes": func() (mc.Scheme, error) { return BuildLanes("mithril", opt, []int{-1, 50, 0}) },
	}
	for _, name := range Names() {
		builders[name] = func() (mc.Scheme, error) { return Build(name, opt) }
	}
	for name, b := range builders {
		if why, ok := allocExceptions[name]; ok {
			t.Logf("%s: skipped: %s", name, why)
			continue
		}
		build := func() mc.Scheme {
			s, err := b()
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		patterns := map[string][]uint32{
			"double-sided": {1000, 1002},
			"many-sided":   stridedRows(4000, 32),
		}
		if n := tableEntries(build()); n > 0 {
			patterns["rotate-N+1"] = stridedRows(8000, n+1)
		}
		for pattern, rows := range patterns {
			d := &actLoop{s: build(), p: p, rows: rows}
			d.run(acts) // build every lazy per-bank structure
			if got := testing.AllocsPerRun(2, func() { d.run(acts) }); got != 0 {
				t.Errorf("%s %s: %v allocations per %d-ACT steady-state stretch, want 0", name, pattern, got, acts)
			}
		}
	}
}

// tableEntries reports the per-bank table size of the table-based schemes,
// or 0 for the rest.
func tableEntries(s mc.Scheme) int {
	switch s := s.(type) {
	case *MithrilScheme:
		return s.cfg.NEntry
	case *MithrilLanes:
		return s.lanes[0].cfg.NEntry
	case *Graphene:
		return s.nEntry
	}
	return 0
}

func stridedRows(first uint32, n int) []uint32 {
	rows := make([]uint32, n)
	for i := range rows {
		rows[i] = first + 2*uint32(i)
	}
	return rows
}

// actLoop replays a row pattern on bank 0 the way the controller drives
// a scheme: throttle check, ACT at tRC pace, and an RFM (unless skipped)
// every RFMTH ACTs for RFM-compatible schemes.
type actLoop struct {
	s    mc.Scheme
	p    timing.Params
	rows []uint32
	i    int
	raa  int
	now  timing.PicoSeconds
}

func (d *actLoop) run(acts int) {
	for range acts {
		row := d.rows[d.i%len(d.rows)]
		d.i++
		if until := d.s.PreACTDelay(0, row, 0, d.now); until > d.now {
			d.now = until
		}
		d.s.OnActivate(0, row, 0, d.now)
		d.now += d.p.TRC
		if !d.s.RFMCompatible() {
			continue
		}
		if d.raa++; d.raa >= d.s.RFMTH() {
			d.raa = 0
			if !d.s.SkipRFM(0) {
				d.s.OnRFM(0, d.now)
				d.now += d.p.TRFM
			}
		}
	}
}
