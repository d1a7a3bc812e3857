// Package rh models the RowHammer fault mechanism itself: per-row
// disturbance accumulation with a configurable blast radius, bit-flip
// detection against FlipTH, and safety reports. The simulator wires a
// Checker into every DRAM bank; mitigation schemes are judged by whether any
// victim row ever accumulates FlipTH of disturbance between refreshes
// (Section II-B of the paper).
package rh

import (
	"fmt"
	"math"
	"math/bits"

	"mithril/internal/timing"
)

// Flip records one detected bit flip: a victim row whose accumulated
// disturbance reached FlipTH before it was refreshed.
type Flip struct {
	Row         int
	Time        timing.PicoSeconds
	Disturbance float64
}

// String renders the flip for reports.
func (f Flip) String() string {
	return fmt.Sprintf("bit flip: row %d at %v (disturbance %.0f)", f.Row, f.Time, f.Disturbance)
}

// Checker accumulates RowHammer disturbance for one DRAM bank.
//
// A simulation touches a small fraction of a bank's rows (no golden-spec
// run touches more than 1,024 of a DDR5 bank's 65,536), so per-row state
// lives in a sparse open-addressing table of touched rows rather than in
// row-length arrays: host memory scales with the rows a run touches. Slots carry an
// epoch stamp, and a slot whose stamp differs from the current epoch is
// empty, so Reset costs O(1) and a pooled checker keeps its grown table.
//
// Auto-refresh is applied lazily. OnAutoRefresh only counts the REF: REF k
// (0-based since Reset) restores group k mod refreshGroups, and each slot
// records the REF count at which its row's group is next restored. A row
// whose due count has passed reads as refreshed and is zeroed on its next
// touch, which is indistinguishable from zeroing it eagerly at the REF.
type Checker struct {
	rows      int
	groups    int // auto-refresh groups, restored round-robin one per REF
	groupRows int // rows per group: max(1, rows/groups); rows past groups×groupRows are never auto-refreshed
	flipTH    float64
	weights   []float64 // weights[d-1] = disturbance added at distance d per ACT

	slots []slot // power-of-two length; empty when stamp != epoch
	shift uint   // 32 − log2(len(slots)), for Fibonacci hashing
	used  int    // live slots in the current epoch
	epoch uint32

	autoRefs   uint64 // REFs since Reset
	preventive uint64 // preventive (RFM/ARR) row refreshes since Reset
	flips      []Flip
	maxSeen    float64
	acts       uint64
}

// slot is the state of one touched row.
type slot struct {
	row     uint32
	stamp   uint32 // epoch the slot belongs to
	due     uint64 // autoRefs value at which the row's group is next restored
	disturb float64
	flipped bool // latched per refresh epoch to avoid duplicate reports
}

// initialSlots is a fresh table's capacity: 2 KB of slots per bank, so a
// 64-bank device starts with 128 KB. Tables double on demand, keeping the
// load factor at or below 1/2.
const initialSlots = 64

// DoubleSidedWeights is the classic adjacent-only model: each ACT disturbs
// the two distance-1 neighbours with weight 1 (aggregated effect 2).
func DoubleSidedWeights() []float64 { return []float64{1} }

// doubleSided is the shared default a checker reads when given no weights,
// so a Reset on every pooled acquisition allocates nothing.
var doubleSided = DoubleSidedWeights()

// NewChecker builds a checker for a bank with rows rows whose auto-refresh
// sweeps refreshGroups groups round-robin, with flip threshold flipTH and
// the given per-distance weights (nil means double-sided).
func NewChecker(rows, refreshGroups, flipTH int, weights []float64) *Checker {
	if rows <= 0 || uint64(rows) > math.MaxUint32 {
		panic(fmt.Sprintf("rh: rows must be in [1, 2^32), got %d", rows))
	}
	if refreshGroups <= 0 {
		panic(fmt.Sprintf("rh: refresh groups must be positive, got %d", refreshGroups))
	}
	c := &Checker{rows: rows, groups: refreshGroups, groupRows: max(1, rows/refreshGroups)}
	c.setSlots(make([]slot, initialSlots))
	c.Reset(flipTH, weights)
	return c
}

// Reset returns the checker to the state NewChecker would build for the
// same bank geometry and the given fault model, in O(1): a new epoch
// empties every slot lazily, and the counters and flip log are cleared.
// The slot table and the flip log keep their grown capacity.
func (c *Checker) Reset(flipTH int, weights []float64) {
	if flipTH <= 0 {
		panic(fmt.Sprintf("rh: FlipTH must be positive, got %d", flipTH))
	}
	if len(weights) == 0 {
		weights = doubleSided
	}
	c.flipTH = float64(flipTH)
	c.weights = weights
	c.epoch++
	if c.epoch == 0 {
		// uint32 wrap (once per ~4G resets): stale stamps could collide
		// with a recycled epoch value, so hard-clear them.
		for i := range c.slots {
			c.slots[i].stamp = 0
		}
		c.epoch = 1
	}
	c.used = 0
	c.autoRefs = 0
	c.preventive = 0
	c.flips = c.flips[:0]
	c.maxSeen = 0
	c.acts = 0
}

func (c *Checker) setSlots(s []slot) {
	c.slots = s
	c.shift = uint(32 - bits.TrailingZeros(uint(len(s))))
}

// home is row's first probe position.
//
//mithril:hotpath
func (c *Checker) home(row uint32) int { return int((row * 0x9E3779B9) >> c.shift) }

// lookup returns row's live slot, or nil when the row is untouched since
// Reset.
//
//mithril:hotpath
func (c *Checker) lookup(row int) *slot {
	mask := len(c.slots) - 1
	for i := c.home(uint32(row)); ; i = (i + 1) & mask {
		s := &c.slots[i]
		if s.stamp != c.epoch {
			return nil
		}
		if s.row == uint32(row) {
			return s
		}
	}
}

// touch returns row's live slot, claiming one when the row is untouched
// since Reset and applying any auto-refresh that restored the row since
// its last update.
//
//mithril:hotpath
func (c *Checker) touch(row int) *slot {
	mask := len(c.slots) - 1
	for i := c.home(uint32(row)); ; i = (i + 1) & mask {
		s := &c.slots[i]
		if s.stamp != c.epoch {
			if 2*(c.used+1) > len(c.slots) {
				c.grow() //mithril:allow hotpathalloc doubles a bank's table at most log2(touched rows) times per device lifetime; pooled devices keep the capacity
				return c.touch(row)
			}
			c.used++
			*s = slot{row: uint32(row), stamp: c.epoch, due: c.nextDue(row)}
			return s
		}
		if s.row == uint32(row) {
			if c.autoRefs >= s.due {
				s.disturb = 0
				s.flipped = false
				s.due = c.nextDue(row)
			}
			return s
		}
	}
}

// grow doubles the slot table and rehashes the live slots.
func (c *Checker) grow() {
	old := c.slots
	c.setSlots(make([]slot, 2*len(old)))
	mask := len(c.slots) - 1
	for _, s := range old {
		if s.stamp != c.epoch {
			continue
		}
		i := c.home(s.row)
		for c.slots[i].stamp == c.epoch {
			i = (i + 1) & mask
		}
		c.slots[i] = s
	}
}

// nextDue is the autoRefs value at which row is next auto-refreshed: REF k
// restores group k mod groups, so the first REF at or after the current
// count that hits row's group is autoRefs + (group − autoRefs) mod groups,
// and the count passes it one REF later. Rows past the last full group are
// never auto-refreshed.
//
//mithril:hotpath
func (c *Checker) nextDue(row int) uint64 {
	g := uint64(row / c.groupRows)
	n := uint64(c.groups)
	if g >= n {
		return math.MaxUint64
	}
	return c.autoRefs + (g+n-c.autoRefs%n)%n + 1
}

// OnActivate records one ACT on row at the given time, disturbing every
// neighbour within the blast radius.
//
//mithril:hotpath
func (c *Checker) OnActivate(row int, now timing.PicoSeconds) {
	if row < 0 || row >= c.rows {
		panic(fmt.Sprintf("rh: activate of row %d outside bank of %d rows", row, c.rows))
	}
	c.acts++
	for d := 1; d <= len(c.weights); d++ {
		w := c.weights[d-1]
		for _, v := range [2]int{row - d, row + d} {
			if v < 0 || v >= c.rows {
				continue
			}
			s := c.touch(v)
			s.disturb += w
			if s.disturb > c.maxSeen {
				c.maxSeen = s.disturb
			}
			if s.disturb >= c.flipTH && !s.flipped {
				s.flipped = true
				c.flips = append(c.flips, Flip{Row: v, Time: now, Disturbance: s.disturb})
			}
		}
	}
}

// OnAutoRefresh records one auto-refresh (REF) command: the next group of
// the round-robin sweep is restored. The rows are zeroed lazily, on their
// next touch.
//
//mithril:hotpath
func (c *Checker) OnAutoRefresh() { c.autoRefs++ }

// OnRefresh records a preventive refresh (RFM or ARR victim refresh) of
// row, resetting its accumulated disturbance.
//
//mithril:hotpath
func (c *Checker) OnRefresh(row int) {
	if row < 0 || row >= c.rows {
		return // victim lists may address rows past the bank edge; ignore
	}
	c.preventive++
	if s := c.lookup(row); s != nil {
		// An untouched row already reads as zero disturbance.
		s.disturb = 0
		s.flipped = false
	}
}

// Disturbance reports the current accumulated disturbance of row.
//
//mithril:allow testonly the dram tests read one row's disturbance to check that REF, RFM and preventive refreshes reset it
func (c *Checker) Disturbance(row int) float64 {
	if row < 0 || row >= c.rows {
		return 0
	}
	s := c.lookup(row)
	if s == nil || c.autoRefs >= s.due {
		return 0
	}
	return s.disturb
}

// refreshes adds the rows restored by the REFs so far to the preventive
// refreshes. A full sweep of all groups restores the covered rows once;
// the k REFs of a partial sweep restore the first k groups.
func (c *Checker) refreshes() uint64 {
	n := uint64(c.groups)
	perGroup := uint64(c.groupRows)
	rows := uint64(c.rows)
	covered := min(n*perGroup, rows)
	return c.preventive + c.autoRefs/n*covered + min(c.autoRefs%n*perGroup, rows)
}

// Report summarizes the verdict for one bank.
type Report struct {
	FlipTH         int
	Flips          int
	MaxDisturbance float64
	MarginPercent  float64 // (FlipTH − max) / FlipTH × 100
	ACTs           uint64
	Refreshes      uint64
}

// Report produces the bank's safety summary.
func (c *Checker) Report() Report {
	return Report{
		FlipTH:         int(c.flipTH),
		Flips:          len(c.flips),
		MaxDisturbance: c.maxSeen,
		MarginPercent:  100 * (c.flipTH - c.maxSeen) / c.flipTH,
		ACTs:           c.acts,
		Refreshes:      c.refreshes(),
	}
}

// Safe reports whether no bit flip was detected.
func (r Report) Safe() bool { return r.Flips == 0 }

// String renders the report.
func (r Report) String() string {
	verdict := "SAFE"
	if !r.Safe() {
		verdict = fmt.Sprintf("UNSAFE (%d flips)", r.Flips)
	}
	return fmt.Sprintf("%s: max disturbance %.0f / FlipTH %d (margin %.1f%%), %d ACTs, %d refreshes",
		verdict, r.MaxDisturbance, r.FlipTH, r.MarginPercent, r.ACTs, r.Refreshes)
}
