package streaming

import (
	"fmt"
	"math/bits"
)

// SpaceSaving is the O(1)-per-update implementation of the Counter-based
// Summary algorithm, built on the Stream-Summary data structure of Metwally,
// Agrawal & El Abbadi: entries with equal counts hang off a shared bucket,
// and buckets form a doubly-linked list sorted by count. Hitting an entry
// moves it to the neighbouring bucket in O(1); the minimum and maximum are
// the first and last buckets, which is exactly the MinPtr/MaxPtr pair of the
// Mithril hardware (Figure 4 of the paper).
//
// Like the hardware table it models, the structure has a fixed size:
// NewSpaceSaving allocates every array it will ever use, and no operation
// allocates afterwards, Reset included.
//
//   - Entries and buckets live in two capacity-length arrays and link to
//     each other by int32 index (-1 ends a list). An emptied bucket goes
//     back on a stack of free bucket slots; live buckets never outnumber
//     live entries, so the stack never runs dry.
//   - Counts only ever move by one (Observe) or drop from the maximum to
//     the minimum (DecrementMaxToMin), so an entry's target bucket is its
//     bucket's successor, a bucket spliced in right after it, the first
//     bucket, or a new first bucket. No count-to-bucket index is needed.
//   - The address CAM is an open-addressing table of at least twice the
//     capacity, a power of two long, with linear probing and
//     backward-shift deletion, so deletes leave no tombstones.
//
// Entries attach at the head of their bucket, and Max, DecrementMaxToMin
// and the replacement rule take the head entry: among rows with equal
// counts, the one most recently moved into the bucket is refreshed or
// evicted first.
type SpaceSaving struct {
	entries    []ssEntry  // capacity-length entry slots
	buckets    []ssBucket // capacity-length bucket slots
	freeSlots  []int32    // free entry slots, popped from the end
	freeBkts   []int32    // free bucket slots, popped from the end
	index      []ssCell   // key -> entry slot, power-of-two length
	shift      uint       // 32 − log2(len(index)), for Fibonacci hashing
	minB, maxB int32      // first (smallest count) and last bucket; -1 when empty
}

type ssEntry struct {
	key        uint32
	bucket     int32
	prev, next int32 // entry list within the bucket; -1 terminated
}

type ssBucket struct {
	count      uint64
	head       int32 // first entry slot
	prev, next int32 // bucket list sorted by count; -1 terminated
}

// ssCell is one address-CAM cell.
type ssCell struct {
	key  uint32
	slot int32 // entry slot + 1; 0 marks an empty cell
}

// maxSpaceSavingCapacity keeps slot numbers and the index length in int32
// range.
const maxSpaceSavingCapacity = 1 << 29

// NewSpaceSaving returns a Stream-Summary-backed CbS with capacity entries.
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity <= 0 || capacity > maxSpaceSavingCapacity {
		panic(fmt.Sprintf("streaming: SpaceSaving capacity must be in [1, %d], got %d", maxSpaceSavingCapacity, capacity))
	}
	cells := 2
	for cells < 2*capacity {
		cells <<= 1
	}
	s := &SpaceSaving{
		entries:   make([]ssEntry, capacity),
		buckets:   make([]ssBucket, capacity),
		freeSlots: make([]int32, capacity),
		freeBkts:  make([]int32, capacity),
		index:     make([]ssCell, cells),
		shift:     uint(32 - bits.TrailingZeros(uint(cells))),
	}
	s.Reset()
	return s
}

// Reset clears the structure in place.
//
//mithril:hotpath
func (s *SpaceSaving) Reset() {
	clear(s.index)
	n := len(s.entries)
	s.freeSlots = s.freeSlots[:n]
	s.freeBkts = s.freeBkts[:n]
	for i := range n {
		s.freeSlots[i] = int32(n - 1 - i) // slot 0 is taken first
		s.freeBkts[i] = int32(n - 1 - i)
	}
	s.minB, s.maxB = -1, -1
}

// home is key's first probe position in the index.
//
//mithril:hotpath
func (s *SpaceSaving) home(key uint32) int { return int((key * 0x9E3779B9) >> s.shift) }

// find returns key's index cell and true when key is on-table, or the empty
// cell an insertion of key would claim and false.
//
//mithril:hotpath
func (s *SpaceSaving) find(key uint32) (int, bool) {
	mask := len(s.index) - 1
	for i := s.home(key); ; i = (i + 1) & mask {
		c := s.index[i]
		if c.slot == 0 {
			return i, false
		}
		if c.key == key {
			return i, true
		}
	}
}

// unindex empties cell i and shifts the cells of its probe run back over
// the hole, so every remaining key stays reachable from its home.
//
//mithril:hotpath
func (s *SpaceSaving) unindex(i int) {
	mask := len(s.index) - 1
	for j := (i + 1) & mask; s.index[j].slot != 0; j = (j + 1) & mask {
		// The key at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-s.home(s.index[j].key))&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = ssCell{}
}

// newBucket takes a free bucket slot for count and splices it after the
// bucket after (-1 to make it the first bucket).
//
//mithril:hotpath
func (s *SpaceSaving) newBucket(count uint64, after int32) int32 {
	n := len(s.freeBkts) - 1
	b := s.freeBkts[n]
	s.freeBkts = s.freeBkts[:n]
	next := s.minB
	if after >= 0 {
		next = s.buckets[after].next
		s.buckets[after].next = b
	} else {
		s.minB = b
	}
	if next >= 0 {
		s.buckets[next].prev = b
	} else {
		s.maxB = b
	}
	s.buckets[b] = ssBucket{count: count, head: -1, prev: after, next: next}
	return b
}

// detachEntry unlinks slot from its bucket, freeing the bucket when it
// empties.
//
//mithril:hotpath
func (s *SpaceSaving) detachEntry(slot int32) {
	e := &s.entries[slot]
	b := &s.buckets[e.bucket]
	if e.prev >= 0 {
		s.entries[e.prev].next = e.next
	} else {
		b.head = e.next
	}
	if e.next >= 0 {
		s.entries[e.next].prev = e.prev
	}
	if b.head >= 0 {
		return
	}
	if b.prev >= 0 {
		s.buckets[b.prev].next = b.next
	} else {
		s.minB = b.next
	}
	if b.next >= 0 {
		s.buckets[b.next].prev = b.prev
	} else {
		s.maxB = b.prev
	}
	s.freeBkts = append(s.freeBkts, e.bucket)
}

// attachEntry links slot in at the head of bucket b.
//
//mithril:hotpath
func (s *SpaceSaving) attachEntry(slot, b int32) {
	e := &s.entries[slot]
	bk := &s.buckets[b]
	e.bucket, e.prev, e.next = b, -1, bk.head
	if bk.head >= 0 {
		s.entries[bk.head].prev = slot
	}
	bk.head = slot
}

// Observe implements the CbS update rule in O(1).
//
//mithril:hotpath
func (s *SpaceSaving) Observe(key uint32) { s.ObserveEvict(key) }

// ObserveEvict is Observe plus eviction reporting: when recording key
// displaces the minimum entry (the CbS replacement rule), the displaced key
// is returned with ok = true. Trackers that keep per-row side state keyed
// to table residency (Graphene's trigger levels) use it to drop the
// departing row's state.
//
//mithril:hotpath
func (s *SpaceSaving) ObserveEvict(key uint32) (evicted uint32, ok bool) {
	cell, hit := s.find(key)
	if hit {
		s.promote(s.index[cell].slot - 1)
		return 0, false
	}
	if n := len(s.freeSlots) - 1; n >= 0 {
		slot := s.freeSlots[n]
		s.freeSlots = s.freeSlots[:n]
		s.index[cell] = ssCell{key: key, slot: slot + 1}
		s.entries[slot].key = key
		// New entries start at count 1 (0 + increment), after the count-0
		// bucket DecrementMaxToMin leaves while slots are free.
		after, b := int32(-1), s.minB
		if b >= 0 && s.buckets[b].count == 0 {
			after, b = b, s.buckets[b].next
		}
		if b < 0 || s.buckets[b].count != 1 {
			b = s.newBucket(1, after)
		}
		s.attachEntry(slot, b)
		return 0, false
	}
	// Replace an entry from the minimum bucket.
	slot := s.buckets[s.minB].head
	old := s.entries[slot].key
	oldCell, _ := s.find(old)
	s.unindex(oldCell)
	cell, _ = s.find(key)
	s.index[cell] = ssCell{key: key, slot: slot + 1}
	s.entries[slot].key = key
	s.promote(slot)
	return old, true
}

// promote moves the entry at slot up by one count.
//
//mithril:hotpath
func (s *SpaceSaving) promote(slot int32) {
	e := &s.entries[slot]
	b := e.bucket
	count := s.buckets[b].count + 1
	if next := s.buckets[b].next; next >= 0 && s.buckets[next].count == count {
		s.detachEntry(slot)
		s.attachEntry(slot, next)
		return
	}
	if e.prev < 0 && e.next < 0 {
		// Alone in its bucket: the bucket itself moves up one count
		// without leaving its place in the list.
		s.buckets[b].count = count
		return
	}
	s.detachEntry(slot)
	s.attachEntry(slot, s.newBucket(count, b))
}

// Estimate reports the written counter for on-table keys and Min otherwise.
//
//mithril:hotpath
func (s *SpaceSaving) Estimate(key uint32) uint64 {
	if cell, ok := s.find(key); ok {
		return s.buckets[s.entries[s.index[cell].slot-1].bucket].count
	}
	return s.Min()
}

// Min reports the minimum counter value (0 while the table has free slots).
//
//mithril:hotpath
func (s *SpaceSaving) Min() uint64 {
	if len(s.freeSlots) > 0 {
		return 0
	}
	return s.buckets[s.minB].count
}

// DecrementMaxToMin moves one maximum entry down to the minimum count — the
// Mithril greedy RFM step — in O(1).
//
//mithril:hotpath
func (s *SpaceSaving) DecrementMaxToMin() (uint32, bool) {
	if s.maxB < 0 {
		return 0, false
	}
	slot := s.buckets[s.maxB].head
	key := s.entries[slot].key
	target := s.Min()
	if s.buckets[s.maxB].count == target {
		return key, true // already at min; nothing to move
	}
	s.detachEntry(slot)
	// The only bucket that can hold target is the first one; otherwise
	// target (0 while slots are free) is below every live bucket.
	b := s.minB
	if b < 0 || s.buckets[b].count != target {
		b = s.newBucket(target, -1)
	}
	s.attachEntry(slot, b)
	return key, true
}

// Spread is Max − Min.
//
//mithril:hotpath
func (s *SpaceSaving) Spread() uint64 {
	if s.maxB < 0 {
		return 0
	}
	return s.buckets[s.maxB].count - s.Min()
}
