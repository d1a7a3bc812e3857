// Package cpu is the trace-driven processor model: a shared set-associative
// last-level cache and simplified out-of-order cores whose memory-level
// parallelism is bounded by MSHRs and a reorder-buffer window — the standard
// trace-simulation substitute for the paper's McSimA+ cores (Table III:
// 16 × 4-way OOO at 3.6 GHz, 16 MB LLC).
package cpu

import (
	"fmt"
	"math"
	"math/bits"

	"mithril/internal/freelist"
)

// LLC is a shared set-associative last-level cache with LRU replacement.
// Each way is one packed uint32 in a flat sets×ways array: the line's tag
// plus one, with 0 marking an invalid way. One allocation, contiguous for
// locality, and a way's validity and tag compare in one load.
//
// Packing holds a tag in 32 bits, so the addresses the cache sees must lie
// in a space CheckLLC accepts. The simulator proves this once per run from
// the device's address space instead of checking every access.
//
// The struct is exactly one 64-byte cache line, so the allocator places it
// line-aligned. Access writes hits and misses on every call, and caches
// simulated in parallel must not share a line: a larger LLC can straddle
// one with its neighbour, and two parallel runs then contend for that line
// on every access.
type LLC struct {
	sets int
	ways int
	tags []uint32 // sets×ways, LRU-ordered within a set: offset 0 = MRU

	hits   uint64
	misses uint64

	setBits uint8 // log2(sets); sets is asserted a power of two
	pooled  bool  // came from AcquireLLC
}

// llcLineBits is log2 of the 64-byte cache line.
const llcLineBits = 6

// llcSets reports the set count of a cache of capacityBytes with the given
// associativity and 64-byte lines, or why no such cache can be built.
func llcSets(capacityBytes, ways int) (int, error) {
	if capacityBytes <= 0 || ways <= 0 {
		return 0, fmt.Errorf("cpu: invalid LLC geometry %d/%d", capacityBytes, ways)
	}
	sets := (capacityBytes >> llcLineBits) / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		return 0, fmt.Errorf("cpu: LLC sets = %d must be a positive power of two", sets)
	}
	return sets, nil
}

// CheckLLC reports an error unless a cache of capacityBytes and ways can be
// built and every address in [0, space) fits its packed tags.
func CheckLLC(capacityBytes, ways int, space uint64) error {
	sets, err := llcSets(capacityBytes, ways)
	if err != nil {
		return err
	}
	if limit := addressLimit(sets); space > limit {
		return fmt.Errorf("cpu: a %d-byte %d-way LLC packs tags for addresses below %#x, but the address space is %#x bytes",
			capacityBytes, ways, limit, space)
	}
	return nil
}

// addressLimit is the size of the largest address space whose tags fit a
// packed way: tag+1 must not exceed 2^32 − 1.
func addressLimit(sets int) uint64 {
	tagShift := llcLineBits + uint(bits.TrailingZeros(uint(sets)))
	if tagShift > 32 {
		return math.MaxUint64 // every 64-bit address fits
	}
	return math.MaxUint32 << tagShift
}

// NewLLC builds a cache of capacityBytes with the given associativity and
// 64-byte lines. Capacity must divide into a power-of-two number of sets.
func NewLLC(capacityBytes, ways int) *LLC {
	sets, err := llcSets(capacityBytes, ways)
	if err != nil {
		panic(err)
	}
	return &LLC{
		sets: sets, setBits: uint8(bits.TrailingZeros(uint(sets))), ways: ways,
		tags: make([]uint32, sets*ways),
	}
}

// Reset empties the cache and zeroes its counters: one sets×ways×4-byte
// memclr, a rounding error next to reallocating the tag array.
func (l *LLC) Reset() {
	clear(l.tags)
	l.hits = 0
	l.misses = 0
}

type llcKey struct{ sets, ways int }

// llcs recycles caches by geometry; see package freelist.
var llcs freelist.List[llcKey, *LLC]

// AcquireLLC returns a cache indistinguishable from NewLLC's result,
// recycling a previously released one of the same geometry when available.
// Release with ReleaseLLC once the simulation is done with it.
func AcquireLLC(capacityBytes, ways int) *LLC {
	sets, err := llcSets(capacityBytes, ways)
	if err != nil {
		panic(err)
	}
	if l, ok := llcs.Get(llcKey{sets, ways}); ok {
		l.Reset()
		return l
	}
	l := NewLLC(capacityBytes, ways)
	l.pooled = true
	return l
}

// ReleaseLLC returns a cache obtained from AcquireLLC to its pool; caches
// built directly with NewLLC are ignored. A released cache must not be
// used again.
func ReleaseLLC(l *LLC) {
	if l == nil || !l.pooled {
		return
	}
	llcs.Put(llcKey{l.sets, l.ways}, l)
}

// Access looks up addr, updating LRU state and allocating on miss
// (write-allocate for stores). It reports whether the access hit. addr
// must lie in an address space CheckLLC accepts for this geometry.
//
//mithril:hotpath
func (l *LLC) Access(addr uint64) bool {
	line := addr >> llcLineBits
	set := int(line) & (l.sets - 1)
	tag := uint32(line>>l.setBits) + 1
	base := set * l.ways
	ways := l.tags[base : base+l.ways]
	// MRU fast path: streaming workloads hit the most-recent line far more
	// often than any other way, and an MRU hit needs no LRU reshuffle.
	if ways[0] == tag {
		l.hits++
		return true
	}
	for w := 1; w < l.ways; w++ {
		if ways[w] == tag {
			// Move to MRU.
			copy(ways[1:w+1], ways[:w])
			ways[0] = tag
			l.hits++
			return true
		}
	}
	// Miss: evict LRU (last way).
	copy(ways[1:], ways[:l.ways-1])
	ways[0] = tag
	l.misses++
	return false
}

// Stats reports hit/miss counters.
func (l *LLC) Stats() (hits, misses uint64) { return l.hits, l.misses }

// HitRate reports the fraction of accesses that hit (0 when idle).
func (l *LLC) HitRate() float64 {
	total := l.hits + l.misses
	if total == 0 {
		return 0
	}
	return float64(l.hits) / float64(total)
}
