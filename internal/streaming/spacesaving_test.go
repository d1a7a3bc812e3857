package streaming

import "fmt"

// The SpaceSaving accessors below complete the summary and evicter
// surfaces the reference comparisons share, and checkInvariants checks the
// structure: the simulator reads the table only through Observe,
// ObserveEvict, Estimate, Min, Spread and DecrementMaxToMin.

// Contains reports whether key is on-table.
func (s *SpaceSaving) Contains(key uint32) bool {
	_, ok := s.find(key)
	return ok
}

// Max reports an entry with the maximum counter value.
//
//mithril:hotpath
func (s *SpaceSaving) Max() (uint32, uint64, bool) {
	if s.maxB < 0 {
		return 0, 0, false
	}
	b := &s.buckets[s.maxB]
	return s.entries[b.head].key, b.count, true
}

// Len reports the number of occupied entries.
func (s *SpaceSaving) Len() int { return len(s.entries) - len(s.freeSlots) }

// Entries returns a snapshot of (key, count) pairs for tests/diagnostics,
// in bucket order from the minimum and head first within a bucket.
func (s *SpaceSaving) Entries() []Entry {
	out := make([]Entry, 0, s.Len())
	for b := s.minB; b >= 0; b = s.buckets[b].next {
		for slot := s.buckets[b].head; slot >= 0; slot = s.entries[slot].next {
			out = append(out, Entry{Key: s.entries[slot].key, Count: s.buckets[b].count})
		}
	}
	return out
}

// Entry is one (address, estimated count) pair of a summary snapshot.
type Entry struct {
	Key   uint32
	Count uint64
}

// checkInvariants validates the internal structure; used by tests.
func (s *SpaceSaving) checkInvariants() error {
	seen, live := 0, 0
	prev := int32(-1)
	for b := s.minB; b >= 0; b = s.buckets[b].next {
		bk := &s.buckets[b]
		if prev >= 0 && s.buckets[prev].count >= bk.count {
			return fmt.Errorf("buckets out of order: %d then %d", s.buckets[prev].count, bk.count)
		}
		if bk.prev != prev {
			return fmt.Errorf("bucket back-link broken at count %d", bk.count)
		}
		if bk.head < 0 {
			return fmt.Errorf("empty bucket with count %d survived", bk.count)
		}
		before := int32(-1)
		for slot := bk.head; slot >= 0; slot = s.entries[slot].next {
			e := &s.entries[slot]
			if e.bucket != b {
				return fmt.Errorf("entry %d bucket link mismatch", slot)
			}
			if e.prev != before {
				return fmt.Errorf("entry %d back-link broken", slot)
			}
			if cell, ok := s.find(e.key); !ok || s.index[cell].slot != slot+1 {
				return fmt.Errorf("entry %d (key %d) not indexed at its slot", slot, e.key)
			}
			before = slot
			seen++
		}
		prev = b
		live++
	}
	if s.maxB != prev {
		return fmt.Errorf("maxB does not point at last bucket")
	}
	if seen != s.Len() {
		return fmt.Errorf("entry count mismatch: %d linked, %d occupied", seen, s.Len())
	}
	cells := 0
	for _, c := range s.index {
		if c.slot != 0 {
			cells++
		}
	}
	if cells != seen {
		return fmt.Errorf("index holds %d keys, %d entries linked", cells, seen)
	}
	if live+len(s.freeBkts) != len(s.buckets) {
		return fmt.Errorf("bucket slots leaked: %d live + %d free != %d", live, len(s.freeBkts), len(s.buckets))
	}
	return nil
}
