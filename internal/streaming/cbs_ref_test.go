package streaming

import "fmt"

// CbS is the scan-based reference implementation of the Counter-based
// Summary algorithm (Misra–Gries / Space-Saving variant used by Graphene and
// Mithril). Updates are O(1) via a key index; Min/Max queries scan the table,
// which makes the implementation obviously correct. It is a test reference
// only: the production SpaceSaving is property-tested against it, and the
// wrapping-counter table (wrapped_test.go) is held to it exactly.
type CbS struct {
	keys   []uint32
	counts []uint64
	used   []bool
	index  map[uint32]int // key -> slot
}

// NewCbS returns a Counter-based Summary with capacity entries. It panics if
// capacity is not positive: a zero-entry tracker cannot provide any bound.
func NewCbS(capacity int) *CbS {
	if capacity <= 0 {
		panic(fmt.Sprintf("streaming: CbS capacity must be positive, got %d", capacity))
	}
	return &CbS{
		keys:   make([]uint32, capacity),
		counts: make([]uint64, capacity),
		used:   make([]bool, capacity),
		index:  make(map[uint32]int, capacity),
	}
}

// Observe implements the CbS update rule (Figure 3 of the paper): increment
// on hit; otherwise replace the minimum entry's address with the new key and
// increment its counter.
func (c *CbS) Observe(key uint32) { c.ObserveEvict(key) }

// ObserveEvict is Observe plus eviction reporting: when recording key
// displaces the minimum entry, the displaced key is returned with ok = true
// (mirrors SpaceSaving.ObserveEvict for the property tests).
func (c *CbS) ObserveEvict(key uint32) (evicted uint32, ok bool) {
	if slot, hit := c.index[key]; hit {
		c.counts[slot]++
		return 0, false
	}
	// Prefer an unused slot (counter value 0, the true minimum).
	if len(c.index) < len(c.keys) {
		for slot := range c.used {
			if !c.used[slot] {
				c.used[slot] = true
				c.keys[slot] = key
				c.counts[slot] = 1
				c.index[key] = slot
				return 0, false
			}
		}
	}
	slot := c.minSlot()
	old := c.keys[slot]
	delete(c.index, old)
	c.keys[slot] = key
	c.counts[slot]++
	c.index[key] = slot
	return old, true
}

func (c *CbS) minSlot() int {
	best, bestCount := -1, uint64(0)
	for slot, u := range c.used {
		if !u {
			continue
		}
		if best == -1 || c.counts[slot] < bestCount {
			best, bestCount = slot, c.counts[slot]
		}
	}
	return best
}

func (c *CbS) maxSlot() int {
	best, bestCount := -1, uint64(0)
	for slot, u := range c.used {
		if !u {
			continue
		}
		if best == -1 || c.counts[slot] > bestCount {
			best, bestCount = slot, c.counts[slot]
		}
	}
	return best
}

// Estimate reports the written counter for on-table keys and Min otherwise.
func (c *CbS) Estimate(key uint32) uint64 {
	if slot, ok := c.index[key]; ok {
		return c.counts[slot]
	}
	return c.Min()
}

// Contains reports whether key currently occupies a table entry.
func (c *CbS) Contains(key uint32) bool {
	_, ok := c.index[key]
	return ok
}

// Min reports the minimum counter value; 0 while any entry is unused.
func (c *CbS) Min() uint64 {
	if len(c.index) < len(c.keys) {
		return 0
	}
	return c.counts[c.minSlot()]
}

// Max reports an entry holding the maximum counter value.
func (c *CbS) Max() (uint32, uint64, bool) {
	slot := c.maxSlot()
	if slot < 0 {
		return 0, 0, false
	}
	return c.keys[slot], c.counts[slot], true
}

// DecrementMaxToMin lowers the maximum entry's counter to the table minimum
// and returns its key — the Mithril greedy RFM step.
func (c *CbS) DecrementMaxToMin() (uint32, bool) {
	slot := c.maxSlot()
	if slot < 0 {
		return 0, false
	}
	c.counts[slot] = c.Min()
	return c.keys[slot], true
}

// Spread is Max − Min; 0 for an empty table.
func (c *CbS) Spread() uint64 {
	_, maxCount, ok := c.Max()
	if !ok {
		return 0
	}
	return maxCount - c.Min()
}

// Len reports the number of occupied entries.
func (c *CbS) Len() int { return len(c.index) }

// Cap reports the table capacity Nentry.
func (c *CbS) Cap() int { return len(c.keys) }

// Reset clears all entries and counters.
func (c *CbS) Reset() {
	for slot := range c.used {
		c.used[slot] = false
		c.counts[slot] = 0
		c.keys[slot] = 0
	}
	c.index = make(map[uint32]int, len(c.keys))
}

// Entries returns a snapshot of (key, count) pairs in slot order.
func (c *CbS) Entries() []Entry {
	out := make([]Entry, 0, len(c.index))
	for slot, u := range c.used {
		if u {
			out = append(out, Entry{Key: c.keys[slot], Count: c.counts[slot]})
		}
	}
	return out
}
