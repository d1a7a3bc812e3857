package dram

import (
	"testing"

	"mithril/internal/timing"
)

// ActivateOnly issues a bare ACT+PRE on a bank, through the same bank,
// rank and checker path Access takes, and returns the completion time of
// the row cycle. The tests drive RowHammer disturbance with it directly.
func (d *Device) ActivateOnly(global, row int, now timing.PicoSeconds) timing.PicoSeconds {
	rank := d.ranks[d.rankOf(global)]
	b := d.banks[global]
	activated, actAt, _ := b.Access(now, row, false, rank.ACTReadyAt())
	if activated {
		rank.RecordACT(actAt)
		d.checkers[global].OnActivate(row, actAt)
	}
	b.Precharge(actAt)
	return actAt + d.p.TRC
}

func smallParams() timing.Params {
	p := timing.DDR5()
	p.Rows = 1024
	p.RefreshGroups = 128
	return p
}

func TestBankRowHitVsMiss(t *testing.T) {
	p := smallParams()
	b := NewBank(p)
	activated, actAt, data := b.Access(0, 5, false, 0)
	if !activated || actAt != 0 {
		t.Fatalf("first access should activate at t=0, got (%v, %v)", activated, actAt)
	}
	wantFirst := p.TRCD + p.TCL + p.TBURST
	if data != wantFirst {
		t.Fatalf("row-miss latency = %v, want %v", data, wantFirst)
	}
	// Hit on the open row: no ACT, only column time.
	activated, _, data2 := b.Access(data, 5, false, 0)
	if activated {
		t.Fatal("row hit must not activate")
	}
	if data2 >= data+p.TRCD+p.TCL+p.TBURST {
		t.Fatalf("row hit slower than a miss: %v", data2-data)
	}
	s := b.Stats()
	if s.ACTs != 1 || s.RowHits != 1 || s.RowMisses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBankRowConflictPaysPrechargePlusActivate(t *testing.T) {
	p := smallParams()
	b := NewBank(p)
	_, _, data := b.Access(0, 5, false, 0)
	_, act2, _ := b.Access(data, 9, false, 0)
	// Conflict: PRE cannot start before tRAS; ACT = PRE + tRP.
	if act2 < p.TRAS+p.TRP {
		t.Fatalf("conflict ACT at %v, want ≥ tRAS+tRP = %v", act2, p.TRAS+p.TRP)
	}
	if b.Stats().RowConflicts != 1 {
		t.Fatalf("conflict not counted: %+v", b.Stats())
	}
}

func TestBankTRCEnforcedBetweenActivations(t *testing.T) {
	p := smallParams()
	b := NewBank(p)
	_, act1, _ := b.Access(0, 1, false, 0)
	b.Precharge(act1 + p.TRAS)
	_, act2, _ := b.Access(act1+p.TRAS, 2, false, 0)
	if act2-act1 < p.TRC {
		t.Fatalf("ACT-to-ACT %v < tRC %v", act2-act1, p.TRC)
	}
}

func TestRankTFAWLimitsActivationBurst(t *testing.T) {
	p := smallParams()
	d := NewDevice(p, 1<<30, nil)
	// Five back-to-back activations on different banks of rank 0: the
	// fifth must wait for tFAW after the first.
	var first, fifth timing.PicoSeconds
	for i := 0; i < 5; i++ {
		at := d.ActivateOnly(i, 10, 0)
		if i == 0 {
			first = at - p.TRC
		}
		if i == 4 {
			fifth = at - p.TRC
		}
	}
	if fifth-first < p.TFAW {
		t.Fatalf("5th ACT only %v after 1st, want ≥ tFAW %v", fifth-first, p.TFAW)
	}
}

func TestAutoRefreshSweepResetsDisturbance(t *testing.T) {
	p := smallParams() // 1024 rows, 128 groups → 8 rows per REF
	d := NewDevice(p, 1000, nil)
	// Hammer rows adjacent to row 3 (group 0 covers rows 0..7).
	for i := 0; i < 500; i++ {
		d.ActivateOnly(0, 2, timing.PicoSeconds(i)*p.TRC)
		d.ActivateOnly(0, 4, timing.PicoSeconds(i)*p.TRC)
	}
	if got := d.checkers[0].Disturbance(3); got != 1000 {
		t.Fatalf("disturbance = %v, want 1000", got)
	}
	d.IssueREF(0, timing.PicoSeconds(1000)*p.TRC)
	if got := d.checkers[0].Disturbance(3); got != 0 {
		t.Fatalf("REF of group 0 should reset row 3, disturbance = %v", got)
	}
	// Row 9 (group 1) untouched by the first sweep.
	d.ActivateOnly(0, 8, timing.PicoSeconds(2000)*p.TRC)
	if got := d.checkers[0].Disturbance(9); got != 1 {
		t.Fatalf("row 9 should retain disturbance, got %v", got)
	}
	if st := d.Bank(0).Stats(); st.AutoRefreshes != 1 {
		t.Fatalf("REF not counted: %+v", st)
	}
}

func TestRefreshGroupPointerWraps(t *testing.T) {
	p := smallParams() // 8 rows per group: group 2 is rows 16..23, group 3 rows 24..31
	d := NewDevice(p, 1000, nil)
	for i := 0; i < p.RefreshGroups+3; i++ {
		d.IssueREF(0, timing.PicoSeconds(i)*p.TREFI)
	}
	now := timing.PicoSeconds(p.RefreshGroups+3) * p.TREFI
	now = d.ActivateOnly(0, 20, now) // disturbs rows 19 and 21 (group 2)
	now = d.ActivateOnly(0, 28, now) // disturbs rows 27 and 29 (group 3)
	d.IssueREF(0, now)               // after the wrap, REF G+3 restores group 3
	if got := d.checkers[0].Disturbance(21); got != 1 {
		t.Fatalf("group 2 row 21 = %v, want 1 (not swept)", got)
	}
	if got := d.checkers[0].Disturbance(29); got != 0 {
		t.Fatalf("group 3 row 29 = %v, want 0 (swept after the wrap)", got)
	}
}

func TestREFOccupiesAllBanksOfRank(t *testing.T) {
	p := smallParams()
	d := NewDevice(p, 1000, nil)
	end := d.IssueREF(0, 0)
	if end != p.TRFC {
		t.Fatalf("REF end = %v, want tRFC = %v", end, p.TRFC)
	}
	for b := 0; b < p.Banks; b++ {
		if d.Bank(b).Available(p.TRFC - 1) {
			t.Fatalf("bank %d should be busy during REF", b)
		}
		if !d.Bank(b).Available(p.TRFC) {
			t.Fatalf("bank %d should be free after REF", b)
		}
	}
	// Banks of the second rank (channel 1) are unaffected.
	if !d.Bank(p.Banks).Available(0) {
		t.Fatal("other rank should be unaffected by this REF")
	}
}

func TestRFMWindowAndPreventiveRefresh(t *testing.T) {
	p := smallParams()
	d := NewDevice(p, 1000, nil)
	for i := 0; i < 300; i++ {
		d.ActivateOnly(2, 100, timing.PicoSeconds(i)*p.TRC)
	}
	end := d.IssueRFM(2, timing.PicoSeconds(300)*p.TRC)
	if end <= timing.PicoSeconds(300)*p.TRC {
		t.Fatal("RFM window should extend past its start")
	}
	d.PreventiveRefresh(2, []uint32{99, 101})
	if got := d.checkers[2].Disturbance(99); got != 0 {
		t.Fatalf("victim 99 not refreshed: %v", got)
	}
	st := d.Bank(2).Stats()
	if st.RFMs != 1 || st.PreventiveRows != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPreventiveRefreshIgnoresOutOfRangeRows(t *testing.T) {
	p := smallParams()
	d := NewDevice(p, 1000, nil)
	d.PreventiveRefresh(0, []uint32{uint32(p.Rows), 5})
	if st := d.Bank(0).Stats(); st.PreventiveRows != 1 {
		t.Fatalf("only in-range rows should count, got %d", st.PreventiveRows)
	}
}

func TestARRWindowScalesWithVictims(t *testing.T) {
	p := smallParams()
	d := NewDevice(p, 1000, nil)
	end2 := d.IssueARR(0, 2, 0)
	d2 := NewDevice(p, 1000, nil)
	end6 := d2.IssueARR(0, 6, 0)
	if end6 != 3*end2 {
		t.Fatalf("6-row ARR = %v, want 3× the 2-row window %v", end6, end2)
	}
}

func TestDeviceAggregation(t *testing.T) {
	p := smallParams()
	d := NewDevice(p, 50, nil)
	for i := 0; i < 100; i++ {
		d.ActivateOnly(0, 10, timing.PicoSeconds(i)*p.TRC)
		d.ActivateOnly(1, 20, timing.PicoSeconds(i)*p.TRC)
	}
	tot := d.TotalStats()
	if tot.ACTs != 200 {
		t.Fatalf("total ACTs = %d, want 200", tot.ACTs)
	}
	rep := d.SafetyReport()
	if rep.Safe() {
		t.Fatal("hammering at FlipTH=50 should have flipped")
	}
	if rep.ACTs != 200 {
		t.Fatalf("report ACTs = %d, want 200", rep.ACTs)
	}
}

func TestDeviceAccessDataPath(t *testing.T) {
	p := smallParams()
	d := NewDevice(p, 1<<30, nil)
	activated, dataAt := d.Access(0, 7, false, 0)
	if !activated {
		t.Fatal("first access should activate")
	}
	if dataAt != p.TRCD+p.TCL+p.TBURST {
		t.Fatalf("read latency = %v", dataAt)
	}
	if d.Bank(0).OpenRow() != 7 {
		t.Fatal("row should remain open (open-page)")
	}
	// Write on the open row.
	d.Access(0, 7, true, dataAt)
	s := d.Bank(0).Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDevicePanicsOnBadIndices(t *testing.T) {
	p := smallParams()
	d := NewDevice(p, 1000, nil)
	for _, fn := range []func(){
		func() { d.Access(-1, 0, false, 0) },
		func() { d.Access(p.TotalBanks(), 0, false, 0) },
		func() { d.IssueREF(99, 0) },
		func() { d.Bank(0).Access(0, p.Rows, false, 0) },
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
