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
