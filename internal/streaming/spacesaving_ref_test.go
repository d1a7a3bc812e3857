package streaming

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// refSpaceSaving is the reference Stream-Summary the fixed-array
// SpaceSaving must match operation for operation: heap-allocated buckets,
// a count -> bucket map and a key -> slot map, exactly as the structure is
// usually drawn. It is kept for the differential test only.
type refSpaceSaving struct {
	capacity int
	entries  []refEntry
	free     []int          // free-slot stack
	index    map[uint32]int // key -> entry slot
	buckets  map[uint64]*refBucket
	minB     *refBucket // head: smallest count
	maxB     *refBucket // tail: largest count
}

type refEntry struct {
	key        uint32
	bucket     *refBucket
	prev, next int // entry list within bucket; -1 terminated
}

type refBucket struct {
	count      uint64
	head       int // first entry slot, -1 when empty
	prev, next *refBucket
}

var _ summary = (*refSpaceSaving)(nil)

// newRefSpaceSaving returns a reference Stream-Summary with capacity entries.
func newRefSpaceSaving(capacity int) *refSpaceSaving {
	if capacity <= 0 {
		panic(fmt.Sprintf("streaming: SpaceSaving capacity must be positive, got %d", capacity))
	}
	s := &refSpaceSaving{
		capacity: capacity,
		entries:  make([]refEntry, capacity),
		free:     make([]int, 0, capacity),
		index:    make(map[uint32]int, capacity),
		buckets:  make(map[uint64]*refBucket),
	}
	for i := capacity - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
	return s
}

// bucketFor returns the bucket for count, creating and splicing it after
// the given predecessor (which must have a smaller count, or nil to insert
// at the head).
func (s *refSpaceSaving) bucketFor(count uint64, after *refBucket) *refBucket {
	if b, ok := s.buckets[count]; ok {
		return b
	}
	b := &refBucket{count: count, head: -1}
	s.buckets[count] = b
	if after == nil {
		b.next = s.minB
		if s.minB != nil {
			s.minB.prev = b
		}
		s.minB = b
		if s.maxB == nil {
			s.maxB = b
		}
		return b
	}
	b.prev = after
	b.next = after.next
	after.next = b
	if b.next != nil {
		b.next.prev = b
	} else {
		s.maxB = b
	}
	return b
}

func (s *refSpaceSaving) detachEntry(slot int) {
	e := &s.entries[slot]
	b := e.bucket
	if e.prev >= 0 {
		s.entries[e.prev].next = e.next
	} else {
		b.head = e.next
	}
	if e.next >= 0 {
		s.entries[e.next].prev = e.prev
	}
	e.prev, e.next, e.bucket = -1, -1, nil
	if b.head == -1 {
		s.removeBucket(b)
	}
}

func (s *refSpaceSaving) removeBucket(b *refBucket) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		s.minB = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		s.maxB = b.prev
	}
	delete(s.buckets, b.count)
}

func (s *refSpaceSaving) attachEntry(slot int, b *refBucket) {
	e := &s.entries[slot]
	e.bucket = b
	e.prev = -1
	e.next = b.head
	if b.head >= 0 {
		s.entries[b.head].prev = slot
	}
	b.head = slot
}

// Observe implements the CbS update rule in O(1).
func (s *refSpaceSaving) Observe(key uint32) { s.ObserveEvict(key) }

// ObserveEvict is Observe plus eviction reporting: when recording key
// displaces the minimum entry (the CbS replacement rule), the displaced key
// is returned with ok = true. Trackers that keep per-row side state keyed
// to table residency (Graphene's trigger levels) use it to drop the
// departing row's state.
func (s *refSpaceSaving) ObserveEvict(key uint32) (evicted uint32, ok bool) {
	if slot, hit := s.index[key]; hit {
		s.promote(slot, 1)
		return 0, false
	}
	if len(s.free) > 0 {
		slot := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		s.entries[slot] = refEntry{key: key, prev: -1, next: -1}
		s.index[key] = slot
		// New entries start at count 1 (0 + increment).
		var pred *refBucket
		if s.minB != nil && s.minB.count < 1 {
			pred = s.minB
		}
		s.attachEntry(slot, s.bucketFor(1, pred))
		return 0, false
	}
	// Replace an entry from the minimum bucket.
	slot := s.minB.head
	old := s.entries[slot].key
	delete(s.index, old)
	s.entries[slot].key = key
	s.index[key] = slot
	s.promote(slot, 1)
	return old, true
}

// promote moves the entry at slot up by delta counts.
func (s *refSpaceSaving) promote(slot int, delta uint64) {
	b := s.entries[slot].bucket
	target := b.count + delta
	s.detachEntry(slot)
	// b may have been freed by detachEntry; find the insertion predecessor
	// starting from the bucket that preceded the target count. The common
	// case (delta == 1, neighbour bucket exists) stays O(1).
	var pred *refBucket
	if nb, ok := s.buckets[target]; ok {
		s.attachEntry(slot, nb)
		return
	}
	// Walk from b (if alive) or from min; with delta==1 this is at most one
	// step because counts are integers.
	if bb, ok := s.buckets[b.count]; ok {
		pred = bb
	} else {
		for cur := s.minB; cur != nil && cur.count < target; cur = cur.next {
			pred = cur
		}
	}
	for pred != nil && pred.next != nil && pred.next.count < target {
		pred = pred.next
	}
	if pred != nil && pred.count >= target {
		pred = pred.prev
	}
	s.attachEntry(slot, s.bucketFor(target, pred))
}

// Estimate reports the written counter for on-table keys and Min otherwise.
func (s *refSpaceSaving) Estimate(key uint32) uint64 {
	if slot, ok := s.index[key]; ok {
		return s.entries[slot].bucket.count
	}
	return s.Min()
}

// Contains reports whether key is on-table.
func (s *refSpaceSaving) Contains(key uint32) bool {
	_, ok := s.index[key]
	return ok
}

// Min reports the minimum counter value (0 while the table has free slots).
func (s *refSpaceSaving) Min() uint64 {
	if len(s.free) > 0 || s.minB == nil {
		return 0
	}
	return s.minB.count
}

// Max reports an entry with the maximum counter value.
func (s *refSpaceSaving) Max() (uint32, uint64, bool) {
	if s.maxB == nil {
		return 0, 0, false
	}
	return s.entries[s.maxB.head].key, s.maxB.count, true
}

// DecrementMaxToMin moves one maximum entry down to the minimum count — the
// Mithril greedy RFM step — in O(1).
func (s *refSpaceSaving) DecrementMaxToMin() (uint32, bool) {
	if s.maxB == nil {
		return 0, false
	}
	slot := s.maxB.head
	key := s.entries[slot].key
	target := s.Min()
	if s.maxB.count == target {
		return key, true // already at min; nothing to move
	}
	s.detachEntry(slot)
	if nb, ok := s.buckets[target]; ok {
		s.attachEntry(slot, nb)
	} else {
		// target is below every live bucket: insert at head.
		s.attachEntry(slot, s.bucketFor(target, nil))
	}
	return key, true
}

// Spread is Max − Min.
func (s *refSpaceSaving) Spread() uint64 {
	if s.maxB == nil {
		return 0
	}
	return s.maxB.count - s.Min()
}

// Len reports the number of occupied entries.
func (s *refSpaceSaving) Len() int { return len(s.index) }

// Cap reports the table capacity.
func (s *refSpaceSaving) Cap() int { return s.capacity }

// Reset clears the structure.
func (s *refSpaceSaving) Reset() {
	s.index = make(map[uint32]int, s.capacity)
	s.buckets = make(map[uint64]*refBucket)
	s.minB, s.maxB = nil, nil
	s.free = s.free[:0]
	for i := s.capacity - 1; i >= 0; i-- {
		s.free = append(s.free, i)
	}
}

// Entries returns a snapshot of (key, count) pairs for tests/diagnostics.
func (s *refSpaceSaving) Entries() []Entry {
	out := make([]Entry, 0, len(s.index))
	for b := s.minB; b != nil; b = b.next {
		for slot := b.head; slot >= 0; slot = s.entries[slot].next {
			out = append(out, Entry{Key: s.entries[slot].key, Count: b.count})
		}
	}
	return out
}

// checkInvariants validates the internal structure; used by tests.
func (s *refSpaceSaving) checkInvariants() error {
	seen := 0
	var prev *refBucket
	for b := s.minB; b != nil; b = b.next {
		if prev != nil && prev.count >= b.count {
			return fmt.Errorf("buckets out of order: %d then %d", prev.count, b.count)
		}
		if b.prev != prev {
			return fmt.Errorf("bucket back-link broken at count %d", b.count)
		}
		if b.head == -1 {
			return fmt.Errorf("empty bucket with count %d survived", b.count)
		}
		for slot := b.head; slot >= 0; slot = s.entries[slot].next {
			if s.entries[slot].bucket != b {
				return fmt.Errorf("entry %d bucket pointer mismatch", slot)
			}
			seen++
		}
		prev = b
	}
	if s.maxB != prev {
		return fmt.Errorf("maxB does not point at last bucket")
	}
	if seen != len(s.index) {
		return fmt.Errorf("entry count mismatch: %d linked, %d indexed", seen, len(s.index))
	}
	return nil
}

// TestSpaceSavingMatchesReference drives the fixed-array SpaceSaving and
// the map-based reference with the same seeded streams of Observe,
// ObserveEvict, DecrementMaxToMin and Reset, and compares every observable
// after every operation, including the tie order of Entries (which row the
// greedy RFM step and the replacement rule pick among equal counts).
func TestSpaceSavingMatchesReference(t *testing.T) {
	keyStreams := map[string]func(r *rand.Rand, capacity, op int) uint32{
		// A few hot rows take most ACTs; the rest scatter.
		"skewed": func(r *rand.Rand, capacity, _ int) uint32 {
			if r.IntN(4) != 0 {
				return uint32(r.IntN(min(4, capacity+1)))
			}
			return uint32(r.IntN(4 * capacity))
		},
		"uniform": func(r *rand.Rand, capacity, _ int) uint32 { return uint32(r.IntN(3 * capacity)) },
		// capacity+1 rows in rotation: every ACT misses a full table.
		"rotate-N+1": func(_ *rand.Rand, capacity, op int) uint32 { return uint32(op % (capacity + 1)) },
	}
	for _, capacity := range []int{1, 2, 7, 64, 300} {
		for name, next := range keyStreams {
			for seed := uint64(1); seed <= 3; seed++ {
				diffSpaceSaving(t, capacity, name, next, seed)
			}
		}
	}
}

func diffSpaceSaving(t *testing.T, capacity int, stream string, next func(*rand.Rand, int, int) uint32, seed uint64) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, uint64(capacity)))
	got, want := NewSpaceSaving(capacity), newRefSpaceSaving(capacity)
	fail := func(op int, format string, args ...any) {
		t.Helper()
		t.Fatalf("capacity %d %s seed %d op %d: %s", capacity, stream, seed, op, fmt.Sprintf(format, args...))
	}
	for op := 0; op < 4000; op++ {
		key := next(r, capacity, op)
		switch n := r.IntN(1000); {
		case n < 600:
			ge, gok := got.ObserveEvict(key)
			we, wok := want.ObserveEvict(key)
			if ge != we || gok != wok {
				fail(op, "ObserveEvict(%d) = (%d, %v), reference (%d, %v)", key, ge, gok, we, wok)
			}
		case n < 930:
			got.Observe(key)
			want.Observe(key)
		case n < 998:
			gk, gok := got.DecrementMaxToMin()
			wk, wok := want.DecrementMaxToMin()
			if gk != wk || gok != wok {
				fail(op, "DecrementMaxToMin = (%d, %v), reference (%d, %v)", gk, gok, wk, wok)
			}
		default:
			got.Reset()
			want.Reset()
		}
		if err := got.checkInvariants(); err != nil {
			fail(op, "%v", err)
		}
		gk, gc, gok := got.Max()
		wk, wc, wok := want.Max()
		if gk != wk || gc != wc || gok != wok {
			fail(op, "Max = (%d, %d, %v), reference (%d, %d, %v)", gk, gc, gok, wk, wc, wok)
		}
		if got.Min() != want.Min() || got.Spread() != want.Spread() || got.Len() != want.Len() {
			fail(op, "Min/Spread/Len = %d/%d/%d, reference %d/%d/%d",
				got.Min(), got.Spread(), got.Len(), want.Min(), want.Spread(), want.Len())
		}
		if g, w := got.Estimate(key), want.Estimate(key); g != w || got.Contains(key) != want.Contains(key) {
			fail(op, "Estimate(%d) = %d, reference %d", key, g, w)
		}
		if g, w := got.Entries(), want.Entries(); !slices.Equal(g, w) {
			fail(op, "Entries\n got %v\nwant %v", g, w)
		}
	}
}
