//go:build !race

// The race runtime allocates on its own, so the allocation checks build
// only without -race.

package streaming

import "testing"

// TestSpaceSavingAllocFree checks that nothing after NewSpaceSaving
// allocates: hits, fills, evictions, greedy decrements, queries and Reset.
func TestSpaceSavingAllocFree(t *testing.T) {
	for _, capacity := range []int{1, 7, 300} {
		s := NewSpaceSaving(capacity)
		r := NewRand(uint64(capacity))
		ops := func() {
			for i := range 5000 {
				key := uint32(r.Intn(3 * capacity))
				switch {
				case i == 4000:
					s.Reset()
				case i%16 == 0:
					s.DecrementMaxToMin()
				case i%2 == 0:
					s.ObserveEvict(key)
				default:
					s.Observe(key)
				}
				s.Estimate(key)
				s.Contains(key)
				s.Max()
				s.Spread()
			}
		}
		if got := testing.AllocsPerRun(20, ops); got != 0 {
			t.Errorf("capacity %d: %v allocations per 5000 operations, want 0", capacity, got)
		}
	}
}

// TestDualCBFAllocFree checks that, once the second filter exists (built
// at the first rotation), nothing allocates: updates, queries, rotations
// and Reset.
func TestDualCBFAllocFree(t *testing.T) {
	for _, width := range []int{17, 1024} {
		d := NewDualCBF(4, width, 100)
		r := NewRand(uint64(width))
		for range 150 {
			d.ObserveEstimate(uint32(r.Intn(3 * width)))
		}
		ops := func() {
			for i := range 5000 {
				key := uint32(r.Intn(3 * width))
				if i == 4000 {
					d.Reset()
				}
				d.ObserveEstimate(key)
				d.Estimate(key)
			}
		}
		if got := testing.AllocsPerRun(20, ops); got != 0 {
			t.Errorf("width %d: %v allocations per 5000 operations, want 0", width, got)
		}
	}
}
