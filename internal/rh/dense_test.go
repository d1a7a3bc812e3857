package rh

import (
	"math/rand/v2"
	"slices"
	"testing"

	"mithril/internal/timing"
)

// denseChecker is the reference fault model the sparse Checker must match:
// three row-length arrays, and an auto-refresh that eagerly walks the rows
// of the next group on every REF.
type denseChecker struct {
	rows, groups int
	flipTH       float64
	weights      []float64

	disturb   []float64
	flipped   []bool
	refGroup  int
	flips     []Flip
	maxSeen   float64
	maxRow    int
	acts      uint64
	refreshes uint64
}

func newDenseChecker(rows, groups, flipTH int, weights []float64) *denseChecker {
	c := &denseChecker{rows: rows, groups: groups}
	c.reset(flipTH, weights)
	return c
}

func (c *denseChecker) reset(flipTH int, weights []float64) {
	if len(weights) == 0 {
		weights = DoubleSidedWeights()
	}
	*c = denseChecker{
		rows: c.rows, groups: c.groups, flipTH: float64(flipTH), weights: weights,
		disturb: make([]float64, c.rows), flipped: make([]bool, c.rows),
	}
}

func (c *denseChecker) onActivate(row int, now timing.PicoSeconds) {
	c.acts++
	for d := 1; d <= len(c.weights); d++ {
		for _, v := range [2]int{row - d, row + d} {
			if v < 0 || v >= c.rows {
				continue
			}
			c.disturb[v] += c.weights[d-1]
			if c.disturb[v] > c.maxSeen {
				c.maxSeen, c.maxRow = c.disturb[v], v
			}
			if c.disturb[v] >= c.flipTH && !c.flipped[v] {
				c.flipped[v] = true
				c.flips = append(c.flips, Flip{Row: v, Time: now, Disturbance: c.disturb[v]})
			}
		}
	}
}

func (c *denseChecker) onRefresh(row int) {
	if row < 0 || row >= c.rows {
		return
	}
	c.refreshes++
	c.disturb[row] = 0
	c.flipped[row] = false
}

// onAutoRefresh restores the next group's rows, as a DRAM REF does.
func (c *denseChecker) onAutoRefresh() {
	group := c.refGroup
	c.refGroup = (group + 1) % c.groups
	n := max(1, c.rows/c.groups)
	for r := group * n; r < (group+1)*n && r < c.rows; r++ {
		c.onRefresh(r)
	}
}

func (c *denseChecker) report() Report {
	return Report{
		FlipTH:         int(c.flipTH),
		Flips:          len(c.flips),
		MaxDisturbance: c.maxSeen,
		MarginPercent:  100 * (c.flipTH - c.maxSeen) / c.flipTH,
		ACTs:           c.acts,
		Refreshes:      c.refreshes,
	}
}

// TestSparseCheckerMatchesDense drives the sparse checker and the dense
// reference with the same seeded, interleaved streams of ACTs, REFs,
// preventive refreshes and Resets, and compares every observable after
// every operation.
func TestSparseCheckerMatchesDense(t *testing.T) {
	geometries := []struct{ rows, groups int }{
		{64, 8},  // rows divide evenly
		{100, 8}, // 4 rows past the last group are never auto-refreshed
		{10, 16}, // more groups than rows: groups 10–15 restore nothing
		{37, 5},  // odd sizes
		{1, 1},   // a bank with no neighbours at all
		{300, 300},
	}
	models := map[string][]float64{"double": DoubleSidedWeights(), "nonadjacent": nonAdjacentWeights}
	for _, g := range geometries {
		for name, weights := range models {
			for seed := uint64(1); seed <= 4; seed++ {
				diffStream(t, g.rows, g.groups, name, weights, seed)
			}
		}
	}
}

func diffStream(t *testing.T, rows, groups int, model string, weights []float64, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, uint64(rows)*1000+uint64(groups)))
	flipTH := 4 + rng.IntN(12)
	sparse := NewChecker(rows, groups, flipTH, weights)
	dense := newDenseChecker(rows, groups, flipTH, weights)
	// A few hot aggressors (edges included) make flips and refresh races
	// likely; the rest of the ACTs scatter over the bank.
	hot := []int{0, rows - 1, rows / 2, min(2, rows-1)}
	for op := 0; op < 3000; op++ {
		now := timing.PicoSeconds(op)
		switch r := rng.IntN(100); {
		case r < 60:
			row := rng.IntN(rows)
			if rng.IntN(2) == 0 {
				row = hot[rng.IntN(len(hot))]
			}
			sparse.OnActivate(row, now)
			dense.onActivate(row, now)
		case r < 80:
			sparse.OnAutoRefresh()
			dense.onAutoRefresh()
		case r < 82: // a burst that wraps the sweep at least once
			for n := rng.IntN(3*groups) + 1; n > 0; n-- {
				sparse.OnAutoRefresh()
				dense.onAutoRefresh()
			}
		case r < 99: // preventive victim refresh, sometimes past an edge
			row := rng.IntN(rows+4) - 2
			sparse.OnRefresh(row)
			dense.onRefresh(row)
		default:
			flipTH = 4 + rng.IntN(12)
			w := weights
			if rng.IntN(2) == 0 {
				w = nonAdjacentWeights
			}
			sparse.Reset(flipTH, w)
			dense.reset(flipTH, w)
		}
		for row := -1; row <= rows; row++ {
			if s, d := sparse.Disturbance(row), dense.disturbance(row); s != d {
				t.Fatalf("%d rows/%d groups %s seed %d op %d: row %d disturbance sparse %g, dense %g",
					rows, groups, model, seed, op, row, s, d)
			}
		}
		if s, d := sparse.Report(), dense.report(); s != d {
			t.Fatalf("%d rows/%d groups %s seed %d op %d: report\nsparse %+v\ndense  %+v", rows, groups, model, seed, op, s, d)
		}
		if !slices.Equal(sparse.flips, dense.flips) {
			t.Fatalf("%d rows/%d groups %s seed %d op %d: flips\nsparse %v\ndense  %v", rows, groups, model, seed, op, sparse.flips, dense.flips)
		}
		if m, r := sparse.maxSeen, sparse.maxRow; m != dense.maxSeen || r != dense.maxRow {
			t.Fatalf("%d rows/%d groups %s seed %d op %d: max (%g, %d), dense (%g, %d)",
				rows, groups, model, seed, op, m, r, dense.maxSeen, dense.maxRow)
		}
	}
}

func (c *denseChecker) disturbance(row int) float64 {
	if row < 0 || row >= c.rows {
		return 0
	}
	return c.disturb[row]
}
