package mitigation

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"mithril/internal/mc"
	"mithril/internal/timing"
)

// laneLevels are the AdTH levels the lane tests sweep, in Options.AdTH's
// encoding and deliberately unsorted: disabled, the default, then 50.
var laneLevels = []int{-1, 0, 50}

// laneStream drives the ACT/RFM stream a controller would send one bank:
// skewed traffic over a few rows, the bank's top row among them, and an RFM
// every RFMTH ACTs. onRFM sees each RFM's index.
func laneStream(s mc.Scheme, rows, acts int, onRFM func(n int)) {
	rng := rand.New(rand.NewPCG(7, 11))
	hot := []uint32{uint32(rows - 1), 1000, 1002}
	var now timing.PicoSeconds
	for i, raa, n := 0, 0, 0; i < acts; i++ {
		row := hot[rng.IntN(len(hot))]
		if rng.IntN(4) == 0 {
			row = 2000 + 2*uint32(rng.IntN(300))
		}
		s.OnActivate(0, row, 0, now)
		now += 50_000
		if raa++; raa == s.RFMTH() {
			raa = 0
			onRFM(n)
			n++
		}
	}
}

// TestMithrilLanesMatchIndependentSchemes feeds one stream to a lane
// scheme and to an independent Mithril per AdTH level: the lanes must hand
// the controller exactly lane 0's victims, and each lane must count the
// in-range victims its independent scheme returns.
func TestMithrilLanesMatchIndependentSchemes(t *testing.T) {
	o := opts(2000)
	lanes, err := BuildLanes("mithril", o, laneLevels)
	if err != nil {
		t.Fatal(err)
	}
	indep := make([]mc.Scheme, len(laneLevels))
	for k, ad := range laneLevels {
		oo := o
		oo.AdTH = ad
		indep[k] = mithril(t, oo, false)
	}
	rows := o.Timing.Rows
	want := make([]uint64, len(laneLevels))
	var pastEdge int
	feed := func(bank int, row uint32, now timing.PicoSeconds) {
		for _, s := range indep {
			s.OnActivate(bank, row, 0, now)
		}
	}
	driver := &laneFeeder{MithrilLanes: lanes, feed: feed}
	laneStream(driver, rows, 200_000, func(n int) {
		got := slices.Clone(lanes.OnRFM(0, 0))
		for k, s := range indep {
			v := s.OnRFM(0, 0)
			for _, r := range v {
				if int(r) < rows {
					want[k]++
				} else if k == 0 {
					pastEdge++
				}
			}
			if k == 0 && !slices.Equal(got, v) {
				t.Fatalf("RFM %d: lanes refreshed %v, lane 0 alone refreshes %v", n, got, v)
			}
		}
	})
	if got := lanes.PreventiveRows(); !slices.Equal(got, want) {
		t.Fatalf("per-lane preventive rows %v, independent schemes %v", got, want)
	}
	if want[0] == want[1] && want[1] == want[2] {
		t.Fatalf("every lane refreshed %d rows: the stream never tells the AdTH levels apart", want[0])
	}
	if pastEdge == 0 {
		t.Fatal("no victim fell past the bank edge: the stream never tests the clamp")
	}
}

// laneFeeder mirrors each ACT the lanes see into the independent schemes.
type laneFeeder struct {
	*MithrilLanes
	feed func(bank int, row uint32, now timing.PicoSeconds)
}

func (f *laneFeeder) OnActivate(bank int, row uint32, coreID int, now timing.PicoSeconds) []uint32 {
	f.feed(bank, row, now)
	return f.MithrilLanes.OnActivate(bank, row, coreID, now)
}

// Only plain Mithril can be laned: Mithril+'s skip flag drops RFMs, so its
// AdTH moves timing. An empty level list and an infeasible level fail too.
func TestBuildLanesRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opt    Options
		levels []int
		want   string
	}{
		{"mithril+", opts(6250), laneLevels, "cannot be laned"},
		{"graphene", opts(6250), laneLevels, "cannot be laned"},
		{"bogus", opts(6250), laneLevels, "unknown mitigation scheme"},
		{"mithril", opts(6250), nil, "at least one AdTH level"},
		{"mithril", Options{Timing: timing.DDR5(), FlipTH: 1500, RFMTH: 256}, laneLevels, "no feasible Mithril config"},
	} {
		l, err := BuildLanes(tc.name, tc.opt, tc.levels)
		if err == nil || l != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("BuildLanes(%q, %v) = %v, %v; want an error containing %q", tc.name, tc.levels, l != nil, err, tc.want)
		}
	}
	l, err := BuildLanes("mithril", opts(6250), laneLevels)
	if err != nil || l.Name() != "mithril" || !l.RFMCompatible() || l.RFMTH() != 128 || l.SkipRFM(0) {
		t.Fatalf("lanes at 6.25K: err %v; want mithril, RFM-compatible, RFMTH 128, never skipping", err)
	}
}
