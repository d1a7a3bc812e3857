package streaming

import (
	"testing"
	"testing/quick"
)

func TestLossyCountingBounds(t *testing.T) {
	// Classic lossy counting guarantees, checked continuously:
	//   f ≤ true ≤ f + Δ  and  Δ ≤ ⌈S/width⌉.
	l := NewLossyCounting(100)
	r := NewRand(5)
	actual := map[uint32]uint64{}
	for i := 0; i < 20000; i++ {
		var k uint32
		if r.Float64() < 0.5 {
			k = uint32(r.Intn(5))
		} else {
			k = uint32(r.Intn(5000)) + 10
		}
		l.Observe(k)
		actual[k]++
		if e, tracked := l.table[k]; tracked {
			f := e.f // observed since insertion; the true count is in [f, f+Δ]
			if f > actual[k] {
				t.Fatalf("step %d: observed frequency %d exceeds true count %d", i, f, actual[k])
			}
			if est := l.Estimate(k); est < actual[k] && actual[k]-est > 0 {
				// true ≤ f+Δ must hold for tracked keys whose tracking
				// never lapsed; for re-inserted keys Δ covers the gap.
				if f+uint64(l.current-1) < actual[k] {
					t.Fatalf("step %d: upper bound violated for key %d", i, k)
				}
			}
		}
	}
}

func TestLossyCountingHeavyHitterNeverPruned(t *testing.T) {
	// A key with frequency > ε·S must survive: with width=50 (ε=0.02), a
	// key appearing every other observation can never be pruned.
	l := NewLossyCounting(50)
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		if i%2 == 0 {
			l.Observe(7)
		} else {
			l.Observe(uint32(r.Intn(100000)) + 100)
		}
	}
	e, tracked := l.table[7]
	if !tracked {
		t.Fatal("heavy hitter was pruned")
	}
	if e.f < 4000 {
		t.Fatalf("heavy hitter frequency %d unexpectedly low", e.f)
	}
}

func TestLossyCountingPrunesColdKeys(t *testing.T) {
	l := NewLossyCounting(10)
	for i := 0; i < 1000; i++ {
		l.Observe(uint32(i)) // every key unique: all prunable
	}
	if n := len(l.table); n > 20 {
		t.Fatalf("cold keys not pruned: %d live entries", n)
	}
}

func TestLossyCountingTableLargerThanCbSForSameGuarantee(t *testing.T) {
	// The paper's Figure 6 claim, algorithmically: for the same error
	// guarantee ε = 1/N, lossy counting's live table exceeds N entries on
	// adversarial streams while CbS is capped at exactly N.
	const n = 64
	l := NewLossyCounting(n)
	c := NewCbS(n)
	r := NewRand(11)
	maxLive := 0 // the size the hardware table must provision
	for i := 0; i < 50000; i++ {
		k := uint32(r.Intn(2000))
		l.Observe(k)
		c.Observe(k)
		maxLive = max(maxLive, len(l.table))
	}
	if maxLive <= n {
		t.Fatalf("lossy counting high-water mark %d should exceed N=%d on a dispersed stream", maxLive, n)
	}
	if c.Len() > n {
		t.Fatalf("CbS exceeded its capacity: %d > %d", c.Len(), n)
	}
}

func TestLossyCountingMaxAndDrop(t *testing.T) {
	l := NewLossyCounting(1000)
	for i := 0; i < 30; i++ {
		l.Observe(3)
	}
	for i := 0; i < 10; i++ {
		l.Observe(4)
	}
	if est := l.Estimate(3); est < 30 {
		t.Fatalf("Estimate(3) = %d, want ≥ 30", est)
	}
	l.Drop(3)
	if _, tracked := l.table[3]; tracked {
		t.Fatal("Drop did not remove the key")
	}
	// A dropped key reads as untracked: the bucket undercount, here 0.
	if est := l.Estimate(3); est != 0 {
		t.Fatalf("after Drop, Estimate(3) = %d, want 0", est)
	}
	if est := l.Estimate(4); est < 10 {
		t.Fatalf("Drop disturbed key 4: Estimate(4) = %d, want ≥ 10", est)
	}
}

func TestLossyCountingReset(t *testing.T) {
	l := NewLossyCounting(10)
	for i := 0; i < 100; i++ {
		l.Observe(1)
	}
	l.Reset()
	if len(l.table) != 0 || l.Estimate(1) != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestLossyCountingPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLossyCounting(0) should panic")
		}
	}()
	NewLossyCounting(0)
}

func TestLossyCountingFrequencyLowerBoundProperty(t *testing.T) {
	f := func(seed uint64) bool {
		l := NewLossyCounting(32)
		r := NewRand(seed)
		actual := map[uint32]uint64{}
		for i := 0; i < 2000; i++ {
			k := uint32(r.Intn(50))
			l.Observe(k)
			actual[k]++
			if e := l.table[k]; e != nil && e.f > actual[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
