package streaming

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// refDualCBF is the reference dual counting Bloom filter the 16-bit DualCBF
// must match: two count-min sketches of uint32 counters, both built up
// front, hashed per row and per call with a 64-bit modulo. A rotation
// clears the active filter and hands the queries to the other one. It is
// kept for the differential test only.
type refDualCBF struct {
	filters   [2]*refCountMin
	active    int
	epochACTs int
	observed  int
}

type refCountMin struct {
	width int
	data  []uint32
	seeds []uint64
}

func newRefCountMin(rows, width int) *refCountMin {
	s := &refCountMin{width: width, data: make([]uint32, rows*width), seeds: make([]uint64, rows)}
	for i := range s.seeds {
		s.seeds[i] = splitmix64(uint64(i) + 0xabcdef)
	}
	return s
}

func refHashKey(key uint32, seed uint64) uint64 { return splitmix64(uint64(key) ^ splitmix64(seed)) }

func (s *refCountMin) observe(key uint32) {
	for i, seed := range s.seeds {
		s.data[i*s.width+int(refHashKey(key, seed)%uint64(s.width))]++
	}
}

func (s *refCountMin) estimate(key uint32) uint64 {
	m := uint32(1<<32 - 1)
	for i, seed := range s.seeds {
		m = min(m, s.data[i*s.width+int(refHashKey(key, seed)%uint64(s.width))])
	}
	return uint64(m)
}

func newRefDualCBF(rows, width, epochACTs int) *refDualCBF {
	return &refDualCBF{
		filters:   [2]*refCountMin{newRefCountMin(rows, width), newRefCountMin(rows, width)},
		epochACTs: epochACTs,
	}
}

func (d *refDualCBF) observe(key uint32) {
	d.filters[0].observe(key)
	d.filters[1].observe(key)
	d.observed++
	if d.observed >= d.epochACTs {
		d.observed = 0
		clear(d.filters[d.active].data)
		d.active = 1 - d.active
	}
}

func (d *refDualCBF) estimate(key uint32) uint64 { return d.filters[d.active].estimate(key) }

// TestDualCBFMatchesReference drives the 16-bit DualCBF and the uint32
// reference with seeded streams whose half epochs rotate many times, at
// power-of-two and other widths. After every ACT the blacklist decision
// estimate >= nbl must agree for every configured NBL range, and the
// estimate itself must be exact while the reference count is below the
// saturation point. The longest epochs push a hot key past it.
func TestDualCBFMatchesReference(t *testing.T) {
	nbls := []uint64{1, 490, 2100, 17100}
	for _, width := range []int{1, 17, 64, 100, 1024} {
		for _, epoch := range []int{7, 250, 50000} {
			for seed := uint64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("w%d/e%d/s%d", width, epoch, seed), func(t *testing.T) {
					d, ref := NewDualCBF(4, width, epoch), newRefDualCBF(4, width, epoch)
					r := rand.New(rand.NewPCG(seed, uint64(width*epoch)))
					keys := uint32(5*width + 50)
					saturated := false
					for i := range max(20000, 5*epoch) {
						key := r.Uint32N(keys)
						if r.IntN(10) < 9 {
							key = 0 // the hot key
						}
						got := d.ObserveEstimate(key)
						ref.observe(key)
						want := ref.estimate(key)
						if want >= CBFMaxCount {
							saturated = true
							want = CBFMaxCount
						}
						if got != want {
							t.Fatalf("ACT %d key %d: estimate %d, reference %d (saturating at %d)", i, key, got, ref.estimate(key), CBFMaxCount)
						}
						for _, nbl := range nbls {
							if (got >= nbl) != (ref.estimate(key) >= nbl) {
								t.Fatalf("ACT %d key %d: blacklist decision at NBL %d differs", i, key, nbl)
							}
						}
						if probe := r.Uint32N(keys); d.Estimate(probe) != min(ref.estimate(probe), CBFMaxCount) {
							t.Fatalf("ACT %d: Estimate(%d) = %d, reference %d", i, probe, d.Estimate(probe), ref.estimate(probe))
						}
					}
					if epoch == 50000 && !saturated {
						t.Fatal("the stream never reached the saturation point")
					}
				})
			}
		}
	}
}

// TestSlotIndexMatchesReference pins SlotIndex, the collision oracle, to
// the reference hashing at power-of-two and other widths.
func TestSlotIndexMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, width := range []int{1, 17, 1024, 2048, 4096, 8192} {
		for row := range 4 {
			seed := splitmix64(uint64(row) + 0xabcdef)
			for range 1000 {
				key := r.Uint32()
				if got, want := SlotIndex(key, row, width), refHashKey(key, seed)%uint64(width); got != want {
					t.Fatalf("SlotIndex(%d, %d, %d) = %d, want %d", key, row, width, got, want)
				}
			}
		}
	}
}
