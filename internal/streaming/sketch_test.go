package streaming

import (
	"testing"
	"testing/quick"
)

// noRotation is a half epoch longer than any stream below: a DualCBF that
// never rotates is a single count-min sketch.
const noRotation = 1 << 30

func TestCMSNeverUnderestimates(t *testing.T) {
	f := func(seed uint64) bool {
		s := NewDualCBF(4, 64, noRotation)
		r := NewRand(seed)
		actual := map[uint32]uint64{}
		for i := 0; i < 3000; i++ {
			k := uint32(r.Intn(500))
			actual[k]++
			if s.ObserveEstimate(k) < actual[k] {
				return false
			}
		}
		for k, act := range actual {
			if s.Estimate(k) < act {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCMSExactForSparseKeys(t *testing.T) {
	// With few keys and a wide sketch, estimates should be exact.
	s := NewDualCBF(4, 4096, noRotation)
	for i := 0; i < 100; i++ {
		s.ObserveEstimate(1)
	}
	for i := 0; i < 7; i++ {
		s.ObserveEstimate(2)
	}
	if got := s.Estimate(1); got != 100 {
		t.Errorf("Estimate(1) = %d, want 100", got)
	}
	if got := s.Estimate(2); got != 7 {
		t.Errorf("Estimate(2) = %d, want 7", got)
	}
	if got := s.Estimate(999); got != 0 {
		t.Errorf("Estimate(999) = %d, want 0", got)
	}
}

func TestCMSReset(t *testing.T) {
	// Reset before the first rotation, while only one filter exists.
	s := NewDualCBF(2, 32, noRotation)
	s.ObserveEstimate(5)
	s.Reset()
	if got := s.Estimate(5); got != 0 {
		t.Fatalf("after Reset, Estimate = %d, want 0", got)
	}
	if s.standby != nil {
		t.Fatal("the second filter was built before the first rotation")
	}
}

func TestDualCBFPanicsOnBadGeometry(t *testing.T) {
	for _, build := range []func(){
		func() { NewDualCBF(0, 8, 10) },
		func() { NewDualCBF(2, 0, 10) },
		func() { NewDualCBF(2, 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry should panic")
				}
			}()
			build()
		}()
	}
}

func TestDualCBFRotationBoundsHistory(t *testing.T) {
	// After a full epoch of unrelated keys, an old key's estimate must have
	// been forgotten (that's the point of interleaving).
	d := NewDualCBF(4, 1024, 100)
	for i := 0; i < 50; i++ {
		d.ObserveEstimate(7)
	}
	if est := d.Estimate(7); est < 50 {
		t.Fatalf("fresh estimate %d, want ≥ 50", est)
	}
	// Two half-epoch rotations with disjoint traffic clear key 7.
	for i := 0; i < 200; i++ {
		d.ObserveEstimate(uint32(1000 + i))
	}
	if est := d.Estimate(7); est > 10 {
		t.Fatalf("stale estimate %d survived two rotations", est)
	}
}

// TestDualCBFRotationQueriesLongerHistory pins which filter a rotation
// hands the queries to: the one that has observed the longer history, not
// the one it just cleared.
func TestDualCBFRotationQueriesLongerHistory(t *testing.T) {
	d := NewDualCBF(4, 4096, 100)
	for i := 0; i < 99; i++ {
		d.ObserveEstimate(uint32(1000 + i))
	}
	if got := d.ObserveEstimate(7); got != 1 { // the 100th ACT rotates
		t.Errorf("rotating ACT: estimate %d, want 1", got)
	}
	if got := d.ObserveEstimate(7); got != 2 {
		t.Errorf("ACT after the rotation: estimate %d, want 2", got)
	}
	if got := d.Estimate(7); got != 2 {
		t.Errorf("Estimate(7) = %d after the rotation, want 2", got)
	}
}

func TestDualCBFNeverUnderestimatesRecentEpoch(t *testing.T) {
	// Within a half epoch, the active filter has seen every recent ACT, so
	// it cannot underestimate counts accumulated in that span.
	d := NewDualCBF(4, 2048, 1000)
	count := uint64(0)
	for i := 0; i < 400; i++ {
		count++
		if est := d.ObserveEstimate(3); est < count {
			t.Fatalf("step %d: estimate %d < true %d", i, est, count)
		}
	}
	// Across rotations, the active filter has seen at least the last half
	// epoch of ACTs, the rotating one included.
	const epoch = 50
	d = NewDualCBF(4, 2048, epoch)
	r := NewRand(9)
	var window [epoch]uint32
	for i := 0; i < 20*epoch; i++ {
		k := uint32(r.Intn(4))
		window[i%epoch] = k
		recent := uint64(0)
		for j := 0; j <= i && j < epoch; j++ {
			if window[j] == k {
				recent++
			}
		}
		if est := d.ObserveEstimate(k); est < recent {
			t.Fatalf("ACT %d: estimate %d of key %d < %d ACTs in the last half epoch", i, est, k, recent)
		}
	}
}

func TestDualCBFSaturates(t *testing.T) {
	d := NewDualCBF(4, 1024, noRotation)
	for i := uint64(1); i <= CBFMaxCount+5000; i++ {
		want := min(i, CBFMaxCount)
		if got := d.ObserveEstimate(42); got != want {
			t.Fatalf("ACT %d: estimate %d, want %d", i, got, want)
		}
	}
	if got := d.Estimate(42); got != CBFMaxCount {
		t.Fatalf("Estimate = %d, want the saturation value %d", got, CBFMaxCount)
	}
	if got := d.Estimate(43); got != 0 {
		t.Fatalf("a key sharing no slot reads %d, want 0", got)
	}
}

func TestDualCBFReset(t *testing.T) {
	// Reset after rotations, once both filters exist.
	d := NewDualCBF(2, 64, 10)
	for i := 0; i < 25; i++ {
		d.ObserveEstimate(1)
	}
	d.Reset()
	if got := d.Estimate(1); got != 0 {
		t.Fatalf("after Reset, Estimate = %d, want 0", got)
	}
	for i := 0; i < 10; i++ {
		d.ObserveEstimate(2) // the 10th rotates: the standby must be clear too
	}
	if got := d.Estimate(1); got != 0 {
		t.Fatalf("after Reset and a rotation, Estimate = %d, want 0", got)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Rand is not deterministic for equal seeds")
		}
	}
	if NewRand(0).Uint64() == 0 {
		t.Fatal("zero seed should be remapped, not produce the zero fixed point")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(77)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRand(1).Intn(0)
}

// Estimate reports key's minimum counter across the hash rows of the active
// filter (never an underestimate of the ACTs it has observed).
func (d *DualCBF) Estimate(key uint32) uint64 {
	est := uint16(CBFMaxCount)
	for i, seed := range d.seeds {
		est = min(est, d.active[i*d.width+d.slot(key, seed)])
	}
	return uint64(est)
}

// Reset clears both filters and restarts the half epoch.
func (d *DualCBF) Reset() {
	clear(d.active)
	clear(d.standby)
	d.observed = 0
}
