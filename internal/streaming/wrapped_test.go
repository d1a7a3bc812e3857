package streaming

import (
	"fmt"
	"testing"
)

// The hardware-faithful table of Section IV-E and its 16-bit counter
// arithmetic (WrapCounterBits in wrap.go sizes the counters). Only the
// tests need them: the simulator tracks counts with SpaceSaving's
// unbounded counters, which order entries the same way while the spread
// stays within the Theorem-1 bound.

// Wrap16 is a 16-bit wrapping counter value.
type Wrap16 uint16

// WrapLess reports whether a precedes b in modular order, valid while the
// true difference is below 2^15.
func WrapLess(a, b Wrap16) bool { return int16(b-a) > 0 }

// WrapDiff returns b − a interpreted as a modular distance; callers must
// guarantee the true spread fits in 15 bits (Mithril sizes the counter CAM
// from the Theorem-1 bound to ensure exactly this).
func WrapDiff(a, b Wrap16) uint16 { return uint16(b - a) }

// WrapAdd advances a counter by delta with wraparound.
func WrapAdd(a Wrap16, delta uint16) Wrap16 { return a + Wrap16(delta) }

// WrappedTable is the hardware-faithful Counter-based Summary table of
// Section IV-E: counters are fixed-width wrapping values (Wrap16) compared
// with modular arithmetic instead of unbounded integers. It is correct as
// long as the table spread stays below 2^15 — which Theorem 1 guarantees
// when the counter CAM is sized from the bound M. It exists to test that
// claim: the tests below hold it to the unbounded CbS reference.
//
// Like the real CAM pair, every slot always holds a value: the table boots
// with all counters at zero and invalid addresses, and the CbS replacement
// rule overwrites the minimum slot. This is what removes Graphene's periodic
// table reset (and its two-fold threshold degradation) and BlockHammer's
// duplicated filter.
type WrappedTable struct {
	keys   []uint32
	counts []Wrap16
	valid  []bool // address CAM holds a real row (vs. boot-time garbage)
	index  map[uint32]int
}

// NewWrappedTable builds a wrapping-counter table with capacity entries.
func NewWrappedTable(capacity int) *WrappedTable {
	if capacity <= 0 {
		panic(fmt.Sprintf("streaming: WrappedTable capacity must be positive, got %d", capacity))
	}
	return &WrappedTable{
		keys:   make([]uint32, capacity),
		counts: make([]Wrap16, capacity),
		valid:  make([]bool, capacity),
		index:  make(map[uint32]int, capacity),
	}
}

func (w *WrappedTable) minSlot() int {
	best := 0
	for slot := 1; slot < len(w.counts); slot++ {
		if WrapLess(w.counts[slot], w.counts[best]) {
			best = slot
		}
	}
	return best
}

func (w *WrappedTable) maxSlot() int {
	best := 0
	for slot := 1; slot < len(w.counts); slot++ {
		if WrapLess(w.counts[best], w.counts[slot]) {
			best = slot
		}
	}
	return best
}

// Observe implements the CbS update with wrapping counters: increment on
// hit, otherwise overwrite the MinPtr slot's address and increment it.
func (w *WrappedTable) Observe(key uint32) {
	if slot, ok := w.index[key]; ok {
		w.counts[slot] = WrapAdd(w.counts[slot], 1)
		return
	}
	slot := w.minSlot()
	if w.valid[slot] {
		delete(w.index, w.keys[slot])
	}
	w.keys[slot] = key
	w.valid[slot] = true
	w.counts[slot] = WrapAdd(w.counts[slot], 1)
	w.index[key] = slot
}

// SelectMax performs the RFM step: returns the MaxPtr key and lowers its
// counter to the MinPtr value. ok is false while the max slot still holds
// boot-time garbage (nothing worth refreshing).
func (w *WrappedTable) SelectMax() (key uint32, ok bool) {
	maxSlot := w.maxSlot()
	if !w.valid[maxSlot] {
		return 0, false
	}
	w.counts[maxSlot] = w.counts[w.minSlot()]
	return w.keys[maxSlot], true
}

// Spread reports MaxPtr−MinPtr as a modular distance.
func (w *WrappedTable) Spread() uint64 {
	return uint64(WrapDiff(w.counts[w.minSlot()], w.counts[w.maxSlot()]))
}

// Contains reports whether key is on-table.
func (w *WrappedTable) Contains(key uint32) bool {
	_, ok := w.index[key]
	return ok
}

// RelativeCount reports the modular distance of key's counter above the
// table minimum (the quantity Mithril actually compares); ok is false for
// off-table keys.
func (w *WrappedTable) RelativeCount(key uint32) (uint64, bool) {
	slot, ok := w.index[key]
	if !ok {
		return 0, false
	}
	return uint64(WrapDiff(w.counts[w.minSlot()], w.counts[slot])), true
}

// Len reports the number of valid entries.
func (w *WrappedTable) Len() int { return len(w.index) }

// Cap reports the table capacity.
func (w *WrappedTable) Cap() int { return len(w.counts) }

func TestWrappedTableMatchesReferenceExactly(t *testing.T) {
	// Both tables use first-min / first-max scan order, so with identical
	// input they must agree on keys and relative counts at every step.
	const capacity = 8
	w := NewWrappedTable(capacity)
	c := NewCbS(capacity)
	r := NewRand(17)
	for i := 0; i < 30000; i++ {
		if i%64 == 63 {
			wk, wok := w.SelectMax()
			ck, cok := c.DecrementMaxToMin()
			if wok != cok || (wok && wk != ck) {
				t.Fatalf("step %d: RFM selection diverged (%d,%v) vs (%d,%v)", i, wk, wok, ck, cok)
			}
			continue
		}
		key := uint32(r.Intn(20))
		w.Observe(key)
		c.Observe(key)
		if w.Spread() != c.Spread() {
			t.Fatalf("step %d: spread diverged %d vs %d", i, w.Spread(), c.Spread())
		}
		if rel, ok := w.RelativeCount(key); ok {
			if want := c.Estimate(key) - c.Min(); rel != want {
				t.Fatalf("step %d: relative count of %d = %d, want %d", i, key, rel, want)
			}
		} else if c.Contains(key) {
			t.Fatalf("step %d: key %d on reference but not wrapped table", i, key)
		}
	}
}

func TestWrappedTableSurvivesCounterWraparound(t *testing.T) {
	// Drive the absolute counts far past 2^16 while RFM decrements keep the
	// spread bounded; modular comparison must keep producing the same
	// relative view as the unbounded reference (Section IV-E's claim).
	const capacity = 4
	w := NewWrappedTable(capacity)
	c := NewCbS(capacity)
	keys := []uint32{1, 2, 3, 4}
	for i := 0; i < 300000; i++ { // counts reach ~75K each, well past 65535
		k := keys[i%len(keys)]
		w.Observe(k)
		c.Observe(k)
		if i%128 == 127 {
			w.SelectMax()
			c.DecrementMaxToMin()
		}
		// Every step: the wrap itself is a handful of steps, and a
		// sampled check can step over it.
		if w.Spread() != c.Spread() {
			t.Fatalf("step %d: spread diverged %d vs %d", i, w.Spread(), c.Spread())
		}
		if rel, _ := w.RelativeCount(k); rel != c.Estimate(k)-c.Min() {
			t.Fatalf("step %d: relative count of %d = %d, want %d", i, k, rel, c.Estimate(k)-c.Min())
		}
	}
	// Verify per-key relative counts after the wrap.
	for _, k := range keys {
		rel, ok := w.RelativeCount(k)
		if !ok {
			t.Fatalf("key %d fell off the wrapped table", k)
		}
		if want := c.Estimate(k) - c.Min(); rel != want {
			t.Fatalf("key %d: relative %d, want %d", k, rel, want)
		}
	}
}

func TestWrappedTableBootState(t *testing.T) {
	w := NewWrappedTable(4)
	if w.Len() != 0 || w.Cap() != 4 {
		t.Fatalf("boot state: Len=%d Cap=%d", w.Len(), w.Cap())
	}
	if _, ok := w.SelectMax(); ok {
		t.Fatal("SelectMax on boot-time garbage should report !ok")
	}
	if w.Spread() != 0 {
		t.Fatal("boot spread should be 0")
	}
	w.Observe(9)
	if !w.Contains(9) || w.Len() != 1 {
		t.Fatal("first observation should create a valid entry")
	}
	if rel, ok := w.RelativeCount(9); !ok || rel != 1 {
		t.Fatalf("RelativeCount(9) = (%d, %v), want (1, true)", rel, ok)
	}
	if _, ok := w.RelativeCount(1234); ok {
		t.Fatal("off-table RelativeCount should report !ok")
	}
}

func TestWrappedTablePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWrappedTable(0) should panic")
		}
	}()
	NewWrappedTable(0)
}

func TestWrappedTableReplacementRule(t *testing.T) {
	w := NewWrappedTable(2)
	for i := 0; i < 5; i++ {
		w.Observe(1)
	}
	w.Observe(2)
	w.Observe(3) // replaces key 2 (the min), inherits min+1 = 2
	if w.Contains(2) {
		t.Fatal("min entry should have been replaced")
	}
	rel, ok := w.RelativeCount(3)
	if !ok {
		t.Fatal("key 3 should be on-table")
	}
	// Table: {1: 5, 3: 2}; min = 2, so relative(3) = 0, spread = 3.
	if rel != 0 || w.Spread() != 3 {
		t.Fatalf("relative(3)=%d spread=%d, want 0 and 3", rel, w.Spread())
	}
}
