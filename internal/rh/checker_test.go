package rh

import (
	"testing"
	"testing/quick"

	"mithril/internal/timing"
)

func TestDoubleSidedDisturbance(t *testing.T) {
	c := NewChecker(100, 1, 1000, nil)
	c.OnActivate(50, 0)
	if got := c.Disturbance(49); got != 1 {
		t.Errorf("row 49 disturbance = %v, want 1", got)
	}
	if got := c.Disturbance(51); got != 1 {
		t.Errorf("row 51 disturbance = %v, want 1", got)
	}
	if got := c.Disturbance(50); got != 0 {
		t.Errorf("aggressor itself should not accumulate, got %v", got)
	}
	if got := c.Disturbance(48); got != 0 {
		t.Errorf("distance-2 should be untouched in double-sided model, got %v", got)
	}
}

func TestDoubleSidedAttackFlipsAtHalfFlipTH(t *testing.T) {
	// Two aggressors around one victim: FlipTH/2 ACTs on each flips it.
	const flipTH = 100
	c := NewChecker(10, 1, flipTH, nil)
	for i := 0; i < flipTH/2; i++ {
		c.OnActivate(4, timing.PicoSeconds(i))
		c.OnActivate(6, timing.PicoSeconds(i))
	}
	flips := c.flips
	if len(flips) != 1 {
		t.Fatalf("got %d flips, want exactly 1 (the shared victim)", len(flips))
	}
	if flips[0].Row != 5 {
		t.Errorf("flipped row %d, want 5", flips[0].Row)
	}
	if r := c.Report(); r.Safe() {
		t.Error("report should be unsafe")
	}
}

func TestSingleSidedNeedsFullFlipTH(t *testing.T) {
	const flipTH = 100
	c := NewChecker(10, 1, flipTH, nil)
	for i := 0; i < flipTH-1; i++ {
		c.OnActivate(4, 0)
	}
	if len(c.flips) != 0 {
		t.Fatal("one-sided attack below FlipTH must not flip")
	}
	c.OnActivate(4, 0)
	if len(c.flips) != 2 {
		t.Fatalf("at FlipTH both neighbours flip, got %d", len(c.flips))
	}
}

func TestRefreshResetsDisturbance(t *testing.T) {
	const flipTH = 50
	c := NewChecker(10, 1, flipTH, nil)
	for i := 0; i < flipTH-1; i++ {
		c.OnActivate(4, 0)
	}
	c.OnRefresh(3)
	c.OnRefresh(5)
	for i := 0; i < flipTH-1; i++ {
		c.OnActivate(4, 0)
	}
	if len(c.flips) != 0 {
		t.Fatal("refresh between bursts should prevent flips")
	}
	if got := c.Disturbance(3); got != flipTH-1 {
		t.Errorf("post-refresh accumulation = %v, want %d", got, flipTH-1)
	}
}

func TestFlipLatchedUntilRefresh(t *testing.T) {
	c := NewChecker(10, 1, 10, nil)
	for i := 0; i < 30; i++ {
		c.OnActivate(4, 0)
	}
	if len(c.flips) != 2 {
		t.Fatalf("flips should be latched once per epoch, got %d", len(c.flips))
	}
	c.OnRefresh(3)
	for i := 0; i < 10; i++ {
		c.OnActivate(4, 0)
	}
	if len(c.flips) != 3 {
		t.Fatalf("after refresh a new epoch can flip again, got %d", len(c.flips))
	}
}

func TestNonAdjacentWeights(t *testing.T) {
	// A victim with every row of the blast radius hammered once sums the
	// aggregated effect: 3.5 for range 3 (Section V-C), 2 double-sided.
	for _, tc := range []struct {
		weights []float64
		want    float64
	}{{nonAdjacentWeights, 3.5}, {DoubleSidedWeights(), 2}} {
		c := NewChecker(100, 1, 1000, tc.weights)
		for d := 1; d <= len(tc.weights); d++ {
			c.OnActivate(50-d, 0)
			c.OnActivate(50+d, 0)
		}
		if got := c.Disturbance(50); got != tc.want {
			t.Fatalf("aggregated effect = %v, want %v", got, tc.want)
		}
	}
	c := NewChecker(100, 1, 1000, nonAdjacentWeights)
	c.OnActivate(50, 0)
	for _, tc := range []struct {
		row  int
		want float64
	}{{49, 1}, {51, 1}, {48, 0.5}, {52, 0.5}, {47, 0.25}, {53, 0.25}, {46, 0}} {
		if got := c.Disturbance(tc.row); got != tc.want {
			t.Errorf("row %d disturbance = %v, want %v", tc.row, got, tc.want)
		}
	}
}

func TestEdgeRowsHaveFewerNeighbours(t *testing.T) {
	c := NewChecker(4, 1, 100, nonAdjacentWeights)
	c.OnActivate(0, 0) // neighbours only on the right
	if got := c.Disturbance(1); got != 1 {
		t.Errorf("row 1 = %v, want 1", got)
	}
	if got := c.Disturbance(3); got != 0.25 {
		t.Errorf("row 3 = %v, want 0.25", got)
	}
}

func TestMaxDisturbanceTracksHighWaterMark(t *testing.T) {
	c := NewChecker(10, 1, 1000, nil)
	for i := 0; i < 42; i++ {
		c.OnActivate(4, 0)
	}
	c.OnRefresh(3)
	c.OnRefresh(5)
	max, row := c.maxSeen, c.maxRow
	if max != 42 || (row != 3 && row != 5) {
		t.Fatalf("MaxDisturbance = (%v, %d), want (42, 3 or 5)", max, row)
	}
}

func TestReportFields(t *testing.T) {
	c := NewChecker(10, 1, 100, nil)
	for i := 0; i < 40; i++ {
		c.OnActivate(4, 0)
	}
	c.OnRefresh(3)
	r := c.Report()
	if !r.Safe() {
		t.Fatal("should be safe")
	}
	if r.ACTs != 40 || r.Refreshes != 1 {
		t.Errorf("counts = (%d, %d), want (40, 1)", r.ACTs, r.Refreshes)
	}
	if r.MarginPercent != 60 {
		t.Errorf("margin = %v%%, want 60%%", r.MarginPercent)
	}
	if r.String() == "" || (Flip{}).String() == "" {
		t.Error("String() should render")
	}
}

func TestOutOfRangeHandling(t *testing.T) {
	c := NewChecker(10, 1, 100, nil)
	c.OnRefresh(-1) // ignored
	c.OnRefresh(99) // ignored
	if got := c.Disturbance(-5); got != 0 {
		t.Error("out-of-range disturbance should read 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("OnActivate out of range should panic (simulator bug)")
		}
	}()
	c.OnActivate(10, 0)
}

func TestConstructorPanics(t *testing.T) {
	for _, build := range []func(){
		func() { NewChecker(0, 1, 100, nil) },
		func() { NewChecker(10, 1, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid constructor args should panic")
				}
			}()
			build()
		}()
	}
}

func TestDisturbanceConservationProperty(t *testing.T) {
	// Property: with double-sided weights and no refreshes, total
	// disturbance equals ACTs × (neighbours in range).
	f := func(seed uint64) bool {
		c := NewChecker(64, 1, 1<<30, nil)
		r := seed
		total := 0.0
		for i := 0; i < 500; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			row := int(r>>33)%62 + 1 // interior rows: always 2 neighbours
			c.OnActivate(row, 0)
			total += 2
		}
		sum := 0.0
		for row := 0; row < 64; row++ {
			sum += c.Disturbance(row)
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestResetRestoresFreshBehaviour(t *testing.T) {
	hammer := func(c *Checker) (int, float64) {
		for i := 0; i < 30; i++ {
			c.OnActivate(8, timing.PicoSeconds(i))
		}
		r := c.Report()
		return r.Flips, r.MaxDisturbance
	}
	c := NewChecker(64, 1, 10, nil)
	fresh := NewChecker(64, 1, 10, nil)
	wantFlips, wantMax := hammer(fresh)
	if wantFlips == 0 {
		t.Fatal("setup: hammering must produce flips")
	}
	hammer(c)
	c.Reset(10, nil)
	// All per-row state must read as untouched without clearing any slot.
	for row := 0; row < 64; row++ {
		if d := c.Disturbance(row); d != 0 {
			t.Fatalf("row %d keeps disturbance %g after Reset", row, d)
		}
	}
	if r := c.Report(); r.ACTs != 0 || r.Refreshes != 0 {
		t.Fatalf("counters survive Reset: %d ACTs, %d refreshes", r.ACTs, r.Refreshes)
	}
	if len(c.flips) != 0 {
		t.Fatalf("flip log survives Reset: %v", c.flips)
	}
	// The next epoch must latch flips again exactly like a fresh checker.
	if flips, max := hammer(c); flips != wantFlips || max != wantMax {
		t.Fatalf("post-Reset epoch: %d flips / max %g, fresh checker: %d / %g",
			flips, max, wantFlips, wantMax)
	}
}

func TestRefreshOfUntouchedRowStillCounts(t *testing.T) {
	c := NewChecker(64, 1, 10, nil)
	c.OnRefresh(5) // row never activated: no slot to clear
	c.OnActivate(10, 0)
	c.OnRefresh(9) // touched neighbour: its slot is cleared
	if d := c.Disturbance(9); d != 0 {
		t.Fatalf("refreshed row keeps disturbance %g", d)
	}
	if refs := c.Report().Refreshes; refs != 2 {
		t.Fatalf("refresh count = %d, want 2 (untouched rows still count)", refs)
	}
}

// nonAdjacentWeights models the range-3 effect of Section V-C: per-side
// weights 1, 0.5, 0.25 aggregate to 3.5 as reported by BlockHammer.
var nonAdjacentWeights = []float64{1, 0.5, 0.25}
