package attack

import (
	"testing"

	"mithril/internal/mc"
	"mithril/internal/timing"
)

func mapper() *mc.AddressMapper { return mc.NewAddressMapper(timing.DDR5()) }

func TestDoubleSidedTargetsNeighbours(t *testing.T) {
	m := mapper()
	a := NewDoubleSided(m, 0, 3, 1000)
	rows := map[int]bool{}
	for i := 0; i < 10; i++ {
		acc := a.Next()
		loc := m.Map(acc.Addr)
		rows[loc.Row] = true
		if loc.Bank != 3 || loc.Channel != 0 {
			t.Fatalf("attack strayed to channel %d bank %d", loc.Channel, loc.Bank)
		}
		if acc.Gap != 0 {
			t.Fatal("attack should run at maximum rate")
		}
	}
	if !rows[999] || !rows[1001] || len(rows) != 2 {
		t.Fatalf("aggressor rows = %v, want {999, 1001}", rows)
	}
}

func TestMultiSided32Victims(t *testing.T) {
	m := mapper()
	a := NewMultiSided(m, 1, 5, 2000, 32)
	// One full cycle visits each aggressor once, in row order.
	for i := 0; i < 33; i++ {
		loc := m.Map(a.Next().Addr)
		if loc.Channel != 1 || loc.Bank != 5 || loc.Row != 2000+2*i {
			t.Fatalf("access %d at channel %d bank %d row %d, want 1/5/%d", i, loc.Channel, loc.Bank, loc.Row, 2000+2*i)
		}
	}
	// The next access wraps to the first aggressor: 33 aggressors, the 32
	// victims 2001..2063 between them.
	if r := m.Map(a.Next().Addr).Row; r != 2000 {
		t.Fatalf("cycle wrapped to row %d, want 2000", r)
	}
}

func TestAttackCyclesAllAggressors(t *testing.T) {
	m := mapper()
	a := NewMultiSided(m, 0, 0, 100, 4)
	seen := map[int]int{}
	for i := 0; i < 50; i++ {
		seen[m.Map(a.Next().Addr).Row]++
	}
	if len(seen) != 5 {
		t.Fatalf("cycled %d rows, want 5", len(seen))
	}
	for row, n := range seen {
		if n == 10 || n == 9 { // round-robin fairness
			continue
		}
		t.Fatalf("row %d hit %d times, want balanced round robin", row, n)
	}
}

func TestRowAttackPanicsOutOfRange(t *testing.T) {
	m := mapper()
	for _, fn := range []func(){
		func() { NewSingleSided(m, 0, 0, -1) },
		func() { NewSingleSided(m, 0, 0, timing.DDR5().Rows) },
		func() { NewRowList("x", m, 0, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// fakeThrottler exposes a fixed collision list.
type fakeThrottler struct{ rows []uint32 }

func (f fakeThrottler) CollidingRows(bank int, target uint32, max int) []uint32 {
	if max < len(f.rows) {
		return f.rows[:max]
	}
	return f.rows
}

func TestBlockHammerAdversaryUsesCollisionOracle(t *testing.T) {
	m := mapper()
	adv := NewBlockHammerAdversary(m, 0, 2, 512, fakeThrottler{rows: []uint32{7000, 7100, 7200}})
	rows := map[int]bool{}
	for i := 0; i < 30; i++ {
		rows[m.Map(adv.Next().Addr).Row] = true
	}
	if !rows[7000] || !rows[7100] || !rows[7200] {
		t.Fatalf("adversary rows = %v, want the oracle's collisions", rows)
	}
}

func TestBlockHammerAdversaryFallsBackWithoutOracle(t *testing.T) {
	m := mapper()
	adv := NewBlockHammerAdversary(m, 0, 2, 512, nil)
	rows := map[int]bool{}
	for i := 0; i < 40; i++ {
		loc := m.Map(adv.Next().Addr)
		rows[loc.Row] = true
		if loc.Row >= 511 && loc.Row <= 513 {
			t.Fatal("fallback pattern must not hammer the benign row's neighbourhood")
		}
	}
	if len(rows) < 4 {
		t.Fatalf("fallback should walk several rows, got %v", rows)
	}
}
