package streaming

import (
	"fmt"
	"math"
)

// CBFMaxCount is the value at which a DualCBF counter saturates. A
// threshold test Estimate(key) >= t gives the exact-count answer for every
// t <= CBFMaxCount: below saturation a count is exact, and a saturated
// counter passes every such threshold.
const CBFMaxCount = math.MaxUint16

// DualCBF is BlockHammer's pair of time-interleaved counting Bloom filters.
// Each filter is a count-min sketch (Cormode & Muthukrishnan, 2005): d hash
// rows of w counters whose point query, the minimum across rows, never
// underestimates. Both filters observe every ACT. Every half epoch (tCBF/2)
// the active filter is cleared and the other one, which has observed the
// longer history, becomes active. Queries use the active filter, so they
// see every ACT of the last half epoch and none older than a full epoch.
//
// Counters are 16 bits wide and saturate at CBFMaxCount. Until the first
// rotation both filters hold the same counts, so the second one is built
// only then.
type DualCBF struct {
	width     int
	mask      uint64   // width-1 when width is a power of two above 1, else 0
	seeds     []uint64 // per hash row, pre-mixed
	active    []uint16 // queried filter: one row of width counters per seed, row-major
	standby   []uint16 // the other filter; nil until the first rotation
	epochACTs int      // half-epoch length expressed in observations
	observed  int
}

// NewDualCBF builds the dual filter with rows hash rows of width counters;
// epochACTs is the number of observations after which the filters rotate
// (BlockHammer uses tCBF/2 expressed in time; the simulator drives it by
// ACT count, which is equivalent at a fixed ACT rate).
func NewDualCBF(rows, width, epochACTs int) *DualCBF {
	if rows <= 0 || width <= 0 {
		panic(fmt.Sprintf("streaming: DualCBF dimensions must be positive, got %dx%d", rows, width))
	}
	if epochACTs <= 0 {
		panic(fmt.Sprintf("streaming: DualCBF epoch must be positive, got %d", epochACTs))
	}
	d := &DualCBF{
		width:     width,
		seeds:     make([]uint64, rows),
		active:    make([]uint16, rows*width),
		epochACTs: epochACTs,
	}
	if width > 1 && width&(width-1) == 0 {
		d.mask = uint64(width - 1)
	}
	for i := range d.seeds {
		d.seeds[i] = rowSeed(i)
	}
	return d
}

// rowSeed is the pre-mixed seed of hash row i.
func rowSeed(i int) uint64 { return splitmix64(splitmix64(uint64(i) + 0xabcdef)) }

// SlotIndex reproduces the slot a key maps to in hash row `row` of any
// DualCBF of the given width: the collision oracle the BlockHammer
// performance attack relies on (Figure 10(c)).
func SlotIndex(key uint32, row, width int) uint64 {
	return splitmix64(uint64(key)^rowSeed(row)) % uint64(width)
}

// slot is SlotIndex for this filter's geometry, with a mask in place of the
// modulo for power-of-two widths.
//
//mithril:hotpath
func (d *DualCBF) slot(key uint32, seed uint64) int {
	h := splitmix64(uint64(key) ^ seed)
	if d.mask != 0 {
		return int(h & d.mask)
	}
	return int(h % uint64(d.width))
}

// ObserveEstimate feeds key to both filters, rotates them at a half-epoch
// boundary, and returns key's estimate in the filter active afterwards. The
// update and the query share one hash pass.
//
//mithril:hotpath
func (d *DualCBF) ObserveEstimate(key uint32) uint64 {
	d.observed++
	rotate := d.observed >= d.epochACTs
	// A rotation clears the active filter and hands the queries to the
	// standby; before the first one, the standby would equal the active.
	read := d.active
	if rotate && d.standby != nil {
		read = d.standby
	}
	est := uint16(CBFMaxCount)
	for i, seed := range d.seeds {
		j := i*d.width + d.slot(key, seed)
		if v := d.active[j]; v < CBFMaxCount {
			d.active[j] = v + 1
		}
		if d.standby != nil {
			if v := d.standby[j]; v < CBFMaxCount {
				d.standby[j] = v + 1
			}
		}
		est = min(est, read[j])
	}
	if rotate {
		d.observed = 0
		d.rotate()
	}
	return uint64(est)
}

// rotate clears the active filter and makes the standby active.
//
//mithril:hotpath
func (d *DualCBF) rotate() {
	if d.standby == nil {
		// The standby holds what the active filter holds, so the active
		// slab keeps its counts and a fresh one stands in for the cleared.
		d.standby = make([]uint16, len(d.active)) //mithril:allow hotpathalloc the second filter, built once at the first rotation
		return
	}
	clear(d.active)
	d.active, d.standby = d.standby, d.active
}
