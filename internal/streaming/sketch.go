package streaming

import "fmt"

// CountMinSketch is the classic Cormode–Muthukrishnan sketch: d hash rows of
// w counters; a point query returns the minimum across rows and never
// underestimates. BlockHammer's counting Bloom filters behave equivalently
// for frequency estimation, so this type backs the BlockHammer baseline.
type CountMinSketch struct {
	width int
	data  []uint32 // one row of width counters per seed, row-major
	seeds []uint64 // per hash row
}

// NewCountMinSketch returns a sketch with the given number of hash rows and
// counters per row.
func NewCountMinSketch(rows, width int) *CountMinSketch {
	if rows <= 0 || width <= 0 {
		panic(fmt.Sprintf("streaming: CountMinSketch dimensions must be positive, got %dx%d", rows, width))
	}
	s := &CountMinSketch{width: width, data: make([]uint32, rows*width), seeds: make([]uint64, rows)}
	for i := range s.seeds {
		s.seeds[i] = splitmix64(uint64(i) + 0xabcdef)
	}
	return s
}

// Observe increments the counters for key in every row.
//
//mithril:hotpath
func (s *CountMinSketch) Observe(key uint32) {
	for i, seed := range s.seeds {
		s.data[i*s.width+int(hashKey(key, seed)%uint64(s.width))]++
	}
}

// Estimate reports the minimum counter across rows (never an underestimate).
//
//mithril:hotpath
func (s *CountMinSketch) Estimate(key uint32) uint64 {
	min := uint32(1<<32 - 1)
	for i, seed := range s.seeds {
		if v := s.data[i*s.width+int(hashKey(key, seed)%uint64(s.width))]; v < min {
			min = v
		}
	}
	return uint64(min)
}

// Reset zeroes all counters.
//
//mithril:hotpath
func (s *CountMinSketch) Reset() { clear(s.data) }

// Rows and Width report the sketch geometry.
func (s *CountMinSketch) Rows() int  { return len(s.seeds) }
func (s *CountMinSketch) Width() int { return s.width }

// SlotIndex reproduces the slot a key maps to in hash row `row` of any
// sketch with this package's seed layout — the collision oracle the
// BlockHammer performance attack relies on (Figure 10(c)).
func SlotIndex(key uint32, row, width int) uint64 {
	seed := splitmix64(uint64(row) + 0xabcdef)
	return hashKey(key, seed) % uint64(width)
}

// DualCBF is BlockHammer's pair of time-interleaved counting Bloom filters.
// Both filters observe every ACT; they are reset in alternation every half
// epoch (tCBF/2) so that at any instant at least one filter has observed the
// full recent history of length ≤ tCBF while holding state no older than
// tCBF. Queries use the active (older) filter, which never underestimates
// the ACT count of the last half epoch.
type DualCBF struct {
	filters   [2]*CountMinSketch
	active    int // index of the filter currently used for queries
	epochACTs int // half-epoch length expressed in observations
	observed  int
}

// NewDualCBF builds the dual filter with the given geometry; epochACTs is
// the number of observations after which the inactive filter is cleared and
// roles swap (BlockHammer uses tCBF/2 expressed in time; the simulator
// drives it by ACT count, which is equivalent at a fixed ACT rate).
func NewDualCBF(rows, width, epochACTs int) *DualCBF {
	if epochACTs <= 0 {
		panic(fmt.Sprintf("streaming: DualCBF epoch must be positive, got %d", epochACTs))
	}
	return &DualCBF{
		filters:   [2]*CountMinSketch{NewCountMinSketch(rows, width), NewCountMinSketch(rows, width)},
		epochACTs: epochACTs,
	}
}

// Observe feeds both filters and rotates them at half-epoch boundaries.
//
//mithril:hotpath
func (d *DualCBF) Observe(key uint32) {
	d.filters[0].Observe(key)
	d.filters[1].Observe(key)
	d.observed++
	if d.observed >= d.epochACTs {
		d.observed = 0
		inactive := 1 - d.active
		d.filters[inactive].Reset()
		d.active = inactive
	}
}

// Estimate queries the active filter.
//
//mithril:hotpath
func (d *DualCBF) Estimate(key uint32) uint64 { return d.filters[d.active].Estimate(key) }

// Reset clears both filters.
func (d *DualCBF) Reset() {
	d.filters[0].Reset()
	d.filters[1].Reset()
	d.observed = 0
	d.active = 0
}
