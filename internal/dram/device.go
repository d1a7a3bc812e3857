package dram

import (
	"fmt"

	"mithril/internal/rh"
	"mithril/internal/timing"
)

// Device models a full DRAM subsystem: Channels × Ranks × Banks banks, each
// with timing state and a RowHammer checker, plus per-rank ACT-window
// bookkeeping. Banks are addressed by a global index
// ((channel·Ranks + rank)·Banks + bank).
type Device struct {
	p      timing.Params
	flipTH int

	banks    []*Bank
	checkers []*rh.Checker
	ranks    []*rankTracker

	pooled bool // came from AcquireDevice
}

// NewDevice builds the device for the given parameters and fault model.
// weights nil selects the double-sided disturbance model.
func NewDevice(p timing.Params, flipTH int, weights []float64) *Device {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	nBanks := p.TotalBanks()
	nRanks := p.Channels * p.Ranks
	d := &Device{
		p:        p,
		flipTH:   flipTH,
		banks:    make([]*Bank, nBanks),
		checkers: make([]*rh.Checker, nBanks),
		ranks:    make([]*rankTracker, nRanks),
	}
	for i := range d.banks {
		d.banks[i] = NewBank(p)
		d.checkers[i] = rh.NewChecker(p.Rows, p.RefreshGroups, flipTH, weights)
	}
	for i := range d.ranks {
		d.ranks[i] = &rankTracker{p: p}
	}
	return d
}

// reset returns the device to the state NewDevice(d.Params(), flipTH,
// weights) would build: bank timing state machines and rank trackers are
// zeroed, and every checker starts a new epoch under the new fault model
// (per-row state is invalidated lazily, so the cost is O(banks), not
// O(banks × rows)). The device pool calls it on every acquisition.
func (d *Device) reset(flipTH int, weights []float64) {
	d.flipTH = flipTH
	for _, b := range d.banks {
		b.Reset()
	}
	for _, ck := range d.checkers {
		ck.Reset(flipTH, weights)
	}
	for _, r := range d.ranks {
		r.reset()
	}
}

// Params returns the device timing parameters.
func (d *Device) Params() timing.Params { return d.p }

// NumBanks reports the number of banks across the device.
//
//mithril:hotpath
func (d *Device) NumBanks() int { return len(d.banks) }

// Bank returns the bank at the given global index.
//
//mithril:hotpath
func (d *Device) Bank(global int) *Bank { return d.banks[global] }

// rankOf maps a global bank index to its rank tracker index.
//
//mithril:hotpath
func (d *Device) rankOf(global int) int { return global / d.p.Banks }

// Access serves one column access on a bank, enforcing bank and rank timing
// and feeding the fault model when an ACT is issued. It reports whether an
// ACT was issued (a row activation — the RowHammer- and RAA-relevant event)
// and the data completion time.
//
//mithril:hotpath
func (d *Device) Access(global, row int, write bool, now timing.PicoSeconds) (activated bool, dataReadyAt timing.PicoSeconds) {
	if global < 0 || global >= len(d.banks) {
		panic(fmt.Sprintf("dram: bank %d out of range (%d banks)", global, len(d.banks)))
	}
	rank := d.ranks[d.rankOf(global)]
	activated, actAt, dataAt := d.banks[global].Access(now, row, write, rank.ACTReadyAt())
	if activated {
		rank.RecordACT(actAt)
		d.checkers[global].OnActivate(row, actAt)
	}
	return activated, dataAt
}

// IssueREF executes one auto-refresh on every bank of the rank: the banks
// are occupied for tRFC and the next of the RefreshGroups row groups
// (max(1, Rows/RefreshGroups) rows each, swept round-robin) is restored,
// resetting its RowHammer disturbance. Each checker counts the REF and
// zeroes the restored rows lazily, so a REF costs O(banks), not
// O(banks × rows per group).
//
//mithril:hotpath
func (d *Device) IssueREF(rankIdx int, now timing.PicoSeconds) timing.PicoSeconds {
	if rankIdx < 0 || rankIdx >= len(d.ranks) {
		panic(fmt.Sprintf("dram: rank %d out of range", rankIdx))
	}
	var end timing.PicoSeconds
	for b := rankIdx * d.p.Banks; b < (rankIdx+1)*d.p.Banks; b++ {
		e := d.banks[b].StartMaintenance(now, d.p.TRFC, MaintREF)
		if e > end {
			end = e
		}
		d.checkers[b].OnAutoRefresh()
	}
	return end
}

// IssueRFM opens an RFM maintenance window of tRFM on one bank and returns
// its end time. Victim refreshes performed inside the window are applied
// with PreventiveRefresh.
//
//mithril:hotpath
func (d *Device) IssueRFM(global int, now timing.PicoSeconds) timing.PicoSeconds {
	return d.banks[global].StartMaintenance(now, d.p.TRFM, MaintRFM)
}

// IssueARR opens an ARR-style maintenance window long enough to refresh n
// victim rows (tRC per row) on one bank — the remedy of the non-RFM
// schemes (Graphene, TWiCe, CBT, PARA).
//
//mithril:hotpath
func (d *Device) IssueARR(global, nRows int, now timing.PicoSeconds) timing.PicoSeconds {
	if nRows < 1 {
		nRows = 1
	}
	return d.banks[global].StartMaintenance(now, timing.PicoSeconds(nRows)*d.p.TRC, MaintARR)
}

// PreventiveRefresh restores the given victim rows on a bank (inside a
// maintenance window that the caller already opened), resetting their
// disturbance. Out-of-range rows (blast radius past the bank edge) are
// ignored, matching Checker semantics.
//
//mithril:hotpath
func (d *Device) PreventiveRefresh(global int, rows []uint32) {
	ck := d.checkers[global]
	n := 0
	for _, r := range rows {
		if int(r) < d.p.Rows {
			ck.OnRefresh(int(r))
			n++
		}
	}
	d.banks[global].NotePreventiveRows(n)
}

// TotalStats aggregates bank statistics across the device.
func (d *Device) TotalStats() BankStats {
	var t BankStats
	for _, b := range d.banks {
		s := b.Stats()
		t.ACTs += s.ACTs
		t.Reads += s.Reads
		t.Writes += s.Writes
		t.RowHits += s.RowHits
		t.RowMisses += s.RowMisses
		t.RowConflicts += s.RowConflicts
		t.AutoRefreshes += s.AutoRefreshes
		t.RFMs += s.RFMs
		t.PreventiveRows += s.PreventiveRows
		t.MaintenanceTime += s.MaintenanceTime
	}
	return t
}

// SafetyReport aggregates the fault checkers: total flips and the worst
// disturbance margin across banks.
func (d *Device) SafetyReport() rh.Report {
	worst := rh.Report{FlipTH: d.flipTH, MarginPercent: 100}
	for _, ck := range d.checkers {
		r := ck.Report()
		worst.Flips += r.Flips
		worst.ACTs += r.ACTs
		worst.Refreshes += r.Refreshes
		if r.MaxDisturbance > worst.MaxDisturbance {
			worst.MaxDisturbance = r.MaxDisturbance
			worst.MarginPercent = r.MarginPercent
		}
	}
	return worst
}
