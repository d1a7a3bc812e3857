package streaming

import (
	"sort"
	"testing"
	"testing/quick"
)

// summary is the Counter-based Summary surface the production SpaceSaving
// and the test references (CbS, refSpaceSaving) share: on-ACT update,
// greedy RFM decrement, and the Min/Max/Spread observations.
type summary interface {
	Observe(key uint32)
	// Estimate is the written counter for an on-table key, Min otherwise.
	Estimate(key uint32) uint64
	Min() uint64
	Max() (key uint32, count uint64, ok bool)
	// DecrementMaxToMin lowers the MaxPtr entry to Min and returns its key.
	DecrementMaxToMin() (key uint32, ok bool)
	Spread() uint64
	Len() int
	Reset()
	Entries() []Entry
}

// newSummaries returns both CbS implementations so every test exercises the
// scan-based reference and the O(1) Stream-Summary structure.
func newSummaries(capacity int) map[string]summary {
	return map[string]summary{
		"CbS":         NewCbS(capacity),
		"SpaceSaving": NewSpaceSaving(capacity),
	}
}

func TestCbSBasicHitIncrement(t *testing.T) {
	for name, s := range newSummaries(4) {
		s.Observe(10)
		s.Observe(10)
		s.Observe(10)
		if got := s.Estimate(10); got != 3 {
			t.Errorf("%s: Estimate(10) = %d, want 3", name, got)
		}
		if got := s.Len(); got != 1 {
			t.Errorf("%s: Len() = %d, want 1", name, got)
		}
		if got := s.Min(); got != 0 {
			t.Errorf("%s: Min() with free slots = %d, want 0", name, got)
		}
	}
}

func TestCbSReplacementRule(t *testing.T) {
	// Fill a 2-entry table, then insert a third key: it must replace the
	// minimum entry and inherit min+1.
	for name, s := range newSummaries(2) {
		s.Observe(1)
		s.Observe(1)
		s.Observe(1) // key 1 -> 3
		s.Observe(2) // key 2 -> 1 (min)
		s.Observe(3) // replaces key 2, inherits 1+1 = 2
		if got := s.Estimate(3); got != 2 {
			t.Errorf("%s: Estimate(3) = %d, want 2 (min+1)", name, got)
		}
		if got := s.Estimate(1); got != 3 {
			t.Errorf("%s: Estimate(1) = %d, want 3", name, got)
		}
		// Key 2 is now off-table; its estimate equals Min.
		if got, min := s.Estimate(2), s.Min(); got != min {
			t.Errorf("%s: off-table Estimate(2) = %d, want Min=%d", name, got, min)
		}
	}
}

func TestCbSPaperFigure5Walkthrough(t *testing.T) {
	// Figure 5 of the paper: table [A0:9, B0:9, C0:3, D0:1].
	// ACT A0 -> A0:10. ACT E0 -> replaces D0 (min=1), E0:2.
	// RFM -> select A0 (max), decrement to min (=2).
	for name, s := range newSummaries(4) {
		seed := []struct {
			key uint32
			n   int
		}{{0xA0, 9}, {0xB0, 9}, {0xC0, 3}, {0xD0, 1}}
		for _, sd := range seed {
			for i := 0; i < sd.n; i++ {
				s.Observe(sd.key)
			}
		}
		s.Observe(0xA0)
		if got := s.Estimate(0xA0); got != 10 {
			t.Fatalf("%s: after ACT A0, Estimate = %d, want 10", name, got)
		}
		s.Observe(0xE0)
		if got := s.Estimate(0xE0); got != 2 {
			t.Fatalf("%s: after ACT E0, Estimate = %d, want 2", name, got)
		}
		if s.Estimate(0xD0) != s.Min() {
			t.Fatalf("%s: D0 should be evicted", name)
		}
		key, ok := s.DecrementMaxToMin()
		if !ok || key != 0xA0 {
			t.Fatalf("%s: RFM selected %#x, want A0", name, key)
		}
		if got, min := s.Estimate(0xA0), s.Min(); got != min {
			t.Fatalf("%s: after RFM, Estimate(A0) = %d, want Min = %d", name, got, min)
		}
		if _, maxCount, _ := s.Max(); maxCount != 9 {
			t.Fatalf("%s: new max should be 9 (B0), got %d", name, maxCount)
		}
	}
}

func TestCbSSumOfCountersEqualsStreamLength(t *testing.T) {
	// In pure CbS (no decrements) the counters sum to the stream length.
	for name, s := range newSummaries(8) {
		r := NewRand(42)
		const n = 5000
		for i := 0; i < n; i++ {
			s.Observe(uint32(r.Intn(64)))
		}
		var sum uint64
		for _, e := range s.Entries() {
			sum += e.Count
		}
		if sum != n {
			t.Errorf("%s: counter sum = %d, want %d", name, sum, n)
		}
	}
}

func TestCbSMinBound(t *testing.T) {
	// Min ≤ stream length / capacity — the classic space-saving bound.
	for name, s := range newSummaries(16) {
		r := NewRand(7)
		const n = 10000
		for i := 0; i < n; i++ {
			s.Observe(uint32(r.Intn(1000)))
		}
		if min := s.Min(); min > n/16 {
			t.Errorf("%s: Min = %d exceeds S/N = %d", name, min, n/16)
		}
	}
}

// inequalityHarness replays a stream against a summary and exact counts,
// asserting inequalities (1) and (2) from Section III-C at every step.
func inequalityHarness(t *testing.T, name string, s summary, keys []uint32) {
	t.Helper()
	actual := map[uint32]uint64{}
	for i, k := range keys {
		s.Observe(k)
		actual[k]++
		min := s.Min()
		for key, act := range actual {
			est := s.Estimate(key)
			if act > est {
				t.Fatalf("%s: step %d: inequality (1) violated for key %d: actual %d > estimated %d",
					name, i, key, act, est)
			}
			if est > act+min {
				t.Fatalf("%s: step %d: inequality (2) violated for key %d: estimated %d > actual %d + min %d",
					name, i, key, est, act, min)
			}
		}
	}
}

func TestCbSInequalitiesSmallStream(t *testing.T) {
	r := NewRand(1234)
	keys := make([]uint32, 2000)
	for i := range keys {
		keys[i] = uint32(r.Intn(40))
	}
	for name, s := range newSummaries(8) {
		inequalityHarness(t, name, s, keys)
	}
}

func TestCbSInequalitiesProperty(t *testing.T) {
	// Randomized property test over short streams with skewed key choice.
	f := func(seed uint64, capRaw uint8) bool {
		capacity := int(capRaw%15) + 1
		r := NewRand(seed)
		keys := make([]uint32, 300)
		for i := range keys {
			if r.Float64() < 0.7 {
				keys[i] = uint32(r.Intn(4)) // hot keys
			} else {
				keys[i] = uint32(r.Intn(1000)) + 10
			}
		}
		for _, s := range newSummaries(capacity) {
			actual := map[uint32]uint64{}
			for _, k := range keys {
				s.Observe(k)
				actual[k]++
				min := s.Min()
				for key, act := range actual {
					est := s.Estimate(key)
					if act > est || est > act+min {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCbSSafetyInvariantUnderRFMDecrements(t *testing.T) {
	// The invariant Mithril's proof needs: with greedy DecrementMaxToMin
	// treated as a refresh (actual count of the selected row resets to 0),
	// actual-since-refresh ≤ estimated still holds for every row.
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for _, s := range newSummaries(8) {
			actual := map[uint32]uint64{}
			for i := 0; i < 1500; i++ {
				if i%64 == 63 { // periodic RFM
					if key, ok := s.DecrementMaxToMin(); ok {
						actual[key] = 0 // preventive refresh of its victims
					}
					continue
				}
				var k uint32
				if r.Float64() < 0.6 {
					k = uint32(r.Intn(3))
				} else {
					k = uint32(r.Intn(500)) + 10
				}
				s.Observe(k)
				actual[k]++
				for key, act := range actual {
					if act > s.Estimate(key) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCbSMinMonotoneNondecreasing(t *testing.T) {
	for name, s := range newSummaries(4) {
		r := NewRand(99)
		last := uint64(0)
		for i := 0; i < 3000; i++ {
			if i%50 == 49 {
				s.DecrementMaxToMin()
			} else {
				s.Observe(uint32(r.Intn(30)))
			}
			if min := s.Min(); min < last {
				t.Fatalf("%s: Min decreased from %d to %d at step %d", name, last, min, i)
			} else {
				last = min
			}
		}
	}
}

func TestCbSSpread(t *testing.T) {
	for name, s := range newSummaries(4) {
		if s.Spread() != 0 {
			t.Errorf("%s: empty table Spread should be 0", name)
		}
		for i := 0; i < 10; i++ {
			s.Observe(1)
		}
		s.Observe(2)
		s.Observe(3)
		s.Observe(4)
		// Table full: min = 1, max = 10.
		if got := s.Spread(); got != 9 {
			t.Errorf("%s: Spread = %d, want 9", name, got)
		}
		s.DecrementMaxToMin()
		if got := s.Spread(); got > 1 {
			t.Errorf("%s: Spread after RFM = %d, want ≤ 1", name, got)
		}
	}
}

func TestCbSReset(t *testing.T) {
	for name, s := range newSummaries(4) {
		for i := 0; i < 100; i++ {
			s.Observe(uint32(i % 6))
		}
		s.Reset()
		if s.Len() != 0 || s.Min() != 0 || s.Spread() != 0 {
			t.Errorf("%s: Reset did not clear the table", name)
		}
		if _, _, ok := s.Max(); ok {
			t.Errorf("%s: Max() on a reset table should report !ok", name)
		}
		s.Observe(42)
		if got := s.Estimate(42); got != 1 {
			t.Errorf("%s: post-reset Estimate = %d, want 1", name, got)
		}
	}
}

func TestCbSEmptyTableOperations(t *testing.T) {
	for name, s := range newSummaries(3) {
		if _, ok := s.DecrementMaxToMin(); ok {
			t.Errorf("%s: DecrementMaxToMin on empty table should report !ok", name)
		}
		if got := s.Estimate(5); got != 0 {
			t.Errorf("%s: Estimate on empty table = %d, want 0", name, got)
		}
	}
}

func TestCbSCapacityPanics(t *testing.T) {
	for _, build := range []func(){
		func() { NewCbS(0) },
		func() { NewSpaceSaving(0) },
		func() { NewCbS(-3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor with non-positive capacity should panic")
				}
			}()
			build()
		}()
	}
}

func TestImplementationsAgreeOnCountMultiset(t *testing.T) {
	// Tie-breaking may differ between implementations, but the multiset of
	// counter values, Min, Max, and Len must match after identical input.
	f := func(seed uint64, capRaw uint8) bool {
		capacity := int(capRaw%12) + 1
		a, b := NewCbS(capacity), NewSpaceSaving(capacity)
		r := NewRand(seed)
		for i := 0; i < 800; i++ {
			k := uint32(r.Intn(capacity * 3))
			a.Observe(k)
			b.Observe(k)
		}
		if a.Min() != b.Min() || a.Len() != b.Len() {
			return false
		}
		_, amax, aok := a.Max()
		_, bmax, bok := b.Max()
		if aok != bok || amax != bmax {
			return false
		}
		ae, be := a.Entries(), b.Entries()
		ac := make([]uint64, len(ae))
		bc := make([]uint64, len(be))
		for i := range ae {
			ac[i] = ae[i].Count
		}
		for i := range be {
			bc[i] = be[i].Count
		}
		sort.Slice(ac, func(i, j int) bool { return ac[i] < ac[j] })
		sort.Slice(bc, func(i, j int) bool { return bc[i] < bc[j] })
		if len(ac) != len(bc) {
			return false
		}
		for i := range ac {
			if ac[i] != bc[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// evicter is the eviction-reporting extension both implementations provide
// for trackers that key side state to table residency (Graphene levels).
type evicter interface {
	ObserveEvict(key uint32) (uint32, bool)
	Contains(key uint32) bool
}

func TestObserveEvictReportsDisplacedKey(t *testing.T) {
	for name, s := range newSummaries(2) {
		e := s.(evicter)
		// Fills report no eviction.
		if _, ok := e.ObserveEvict(1); ok {
			t.Errorf("%s: insertion into free slot reported an eviction", name)
		}
		if _, ok := e.ObserveEvict(2); ok {
			t.Errorf("%s: insertion into free slot reported an eviction", name)
		}
		// Hits report no eviction.
		if _, ok := e.ObserveEvict(1); ok {
			t.Errorf("%s: on-table hit reported an eviction", name)
		}
		// A new key on a full table displaces the minimum entry (key 2).
		evicted, ok := e.ObserveEvict(3)
		if !ok || evicted != 2 {
			t.Errorf("%s: ObserveEvict(3) = (%d, %v), want (2, true)", name, evicted, ok)
		}
		if e.Contains(2) || !e.Contains(3) {
			t.Errorf("%s: table should hold 3 and not 2 after replacement", name)
		}
	}
}

func TestSpaceSavingStructuralInvariants(t *testing.T) {
	s := NewSpaceSaving(6)
	r := NewRand(2024)
	for i := 0; i < 5000; i++ {
		switch {
		case i%97 == 96:
			s.DecrementMaxToMin()
		case i%53 == 52:
			s.Reset()
		default:
			s.Observe(uint32(r.Intn(20)))
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestSpaceSavingDecrementWithFreeSlots(t *testing.T) {
	s := NewSpaceSaving(8)
	s.Observe(1)
	s.Observe(1)
	s.Observe(2)
	key, ok := s.DecrementMaxToMin()
	if !ok || key != 1 {
		t.Fatalf("selected %d, want 1", key)
	}
	// Min is 0 while free slots remain, so the max entry drops to 0.
	if got := s.Estimate(1); got != 0 {
		t.Fatalf("Estimate(1) after decrement = %d, want 0", got)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAblationScanTable and BenchmarkAblationStreamSummary compare the
// two Counter-based Summary implementations on Mithril's table workload: a
// 512-entry table, random ACTs over 2048 rows each followed by the spread
// read core.Mithril.OnActivate makes, and a greedy RFM decrement every 64
// ACTs. The scan is O(Nentry) per miss, spread read and RFM; the
// Stream-Summary is O(1).
func BenchmarkAblationScanTable(b *testing.B) { benchTable(b, NewCbS(512)) }

func BenchmarkAblationStreamSummary(b *testing.B) { benchTable(b, NewSpaceSaving(512)) }

func benchTable(b *testing.B, s summary) {
	r := NewRand(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(uint32(r.Intn(2048)))
		s.Spread()
		if i%64 == 63 {
			s.DecrementMaxToMin()
		}
	}
}
