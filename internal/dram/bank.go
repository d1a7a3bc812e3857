// Package dram is the DDR5 device model: banks with open-row state and
// JEDEC timing enforcement (tRC/tRCD/tRP/tRAS/tFAW/tRRD), rank-level
// constraints, auto-refresh sweeps over row groups, and the maintenance
// windows (REF, RFM, ARR) that RowHammer mitigations execute in. Every bank
// carries an rh.Checker so any simulation doubles as a safety experiment.
package dram

import (
	"fmt"

	"mithril/internal/timing"
)

// BankStats counts the commands a bank executed.
type BankStats struct {
	ACTs            uint64
	Reads           uint64
	Writes          uint64
	RowHits         uint64
	RowMisses       uint64 // ACT on a closed bank
	RowConflicts    uint64 // PRE+ACT on an open bank
	AutoRefreshes   uint64 // REF windows absorbed
	RFMs            uint64 // RFM windows absorbed
	PreventiveRows  uint64 // victim rows refreshed by mitigations
	MaintenanceTime timing.PicoSeconds
}

// Bank models one DRAM bank's timing state machine.
type Bank struct {
	p       timing.Params
	openRow int // -1 when precharged

	nextACT   timing.PicoSeconds // earliest start of the next ACT (tRC rule)
	preReady  timing.PicoSeconds // earliest PRE after the last ACT (tRAS rule)
	colReady  timing.PicoSeconds // earliest next column command (burst occupancy)
	busyUntil timing.PicoSeconds // REF/RFM/ARR maintenance occupancy

	stats BankStats
}

// NewBank returns a precharged idle bank.
func NewBank(p timing.Params) *Bank {
	return &Bank{p: p, openRow: -1}
}

// Reset returns the bank to its just-constructed state (precharged, idle,
// zeroed counters). Used by the device pool between simulations.
func (b *Bank) Reset() {
	*b = Bank{p: b.p, openRow: -1}
}

// OpenRow reports the currently open row, or -1 when precharged.
//
//mithril:hotpath
func (b *Bank) OpenRow() int { return b.openRow }

// Stats returns a copy of the bank counters.
func (b *Bank) Stats() BankStats { return b.stats }

// BusyUntil reports the end of any maintenance window in progress.
//
//mithril:hotpath
func (b *Bank) BusyUntil() timing.PicoSeconds { return b.busyUntil }

// Available reports whether the bank is out of maintenance at now.
//
//mithril:hotpath
func (b *Bank) Available(now timing.PicoSeconds) bool { return now >= b.busyUntil }

// ActivateReadyAt reports the earliest time an ACT for row could start,
// including an implicit precharge when another row is open.
//
//mithril:hotpath
func (b *Bank) ActivateReadyAt(now timing.PicoSeconds, rankACTReady timing.PicoSeconds) timing.PicoSeconds {
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	if rankACTReady > start {
		start = rankACTReady
	}
	if b.openRow >= 0 {
		// PRE first: earliest at preReady, then tRP.
		pre := start
		if b.preReady > pre {
			pre = b.preReady
		}
		start = pre + b.p.TRP
	}
	if b.nextACT > start {
		start = b.nextACT
	}
	return start
}

// Access serves one column access to row, performing the implicit
// PRE/ACT sequence as needed, and returns (activated, dataReadyAt): whether
// an ACT was issued (the RowHammer-relevant event) and when the data burst
// completes. rankACTReady carries the rank-level tRRD/tFAW constraint; the
// caller must report issued ACTs back to the rank tracker.
//
//mithril:hotpath
func (b *Bank) Access(now timing.PicoSeconds, row int, write bool, rankACTReady timing.PicoSeconds) (activated bool, actAt, dataReadyAt timing.PicoSeconds) {
	if row < 0 || row >= b.p.Rows {
		panic(fmt.Sprintf("dram: access to row %d outside bank of %d rows", row, b.p.Rows))
	}
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	if b.openRow == row {
		// Row hit: column command only.
		col := start
		if b.colReady > col {
			col = b.colReady
		}
		b.colReady = col + b.p.TBURST
		b.stats.RowHits++
		if write {
			b.stats.Writes++
		} else {
			b.stats.Reads++
		}
		return false, 0, col + b.p.TCL + b.p.TBURST
	}
	if b.openRow >= 0 {
		b.stats.RowConflicts++
	} else {
		b.stats.RowMisses++
	}
	act := b.ActivateReadyAt(now, rankACTReady)
	b.openRow = row
	b.nextACT = act + b.p.TRC
	b.preReady = act + b.p.TRAS
	col := act + b.p.TRCD
	if b.colReady > col {
		col = b.colReady
	}
	b.colReady = col + b.p.TBURST
	b.stats.ACTs++
	if write {
		b.stats.Writes++
	} else {
		b.stats.Reads++
	}
	return true, act, col + b.p.TCL + b.p.TBURST
}

// Precharge closes the open row (page-policy decision). It is a no-op on a
// precharged bank.
//
//mithril:hotpath
func (b *Bank) Precharge(now timing.PicoSeconds) {
	if b.openRow < 0 {
		return
	}
	pre := now
	if b.preReady > pre {
		pre = b.preReady
	}
	b.openRow = -1
	if next := pre + b.p.TRP; next > b.nextACT {
		b.nextACT = next
	}
}

// StartMaintenance occupies the bank for a REF/RFM/ARR window of the given
// duration starting no earlier than now (and after any in-flight activity),
// closing the open row. It returns the window's end time.
//
//mithril:hotpath
func (b *Bank) StartMaintenance(now timing.PicoSeconds, dur timing.PicoSeconds, kind MaintenanceKind) timing.PicoSeconds {
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	if b.colReady > start {
		start = b.colReady
	}
	b.openRow = -1
	b.busyUntil = start + dur
	if b.busyUntil > b.nextACT {
		b.nextACT = b.busyUntil
	}
	b.stats.MaintenanceTime += dur
	switch kind {
	case MaintREF:
		b.stats.AutoRefreshes++
	case MaintRFM:
		b.stats.RFMs++
	}
	return b.busyUntil
}

// NotePreventiveRows accounts victim rows refreshed inside a maintenance
// window.
//
//mithril:hotpath
func (b *Bank) NotePreventiveRows(n int) { b.stats.PreventiveRows += uint64(n) }

// MaintenanceKind labels a maintenance window for statistics.
type MaintenanceKind int

// Maintenance window kinds.
const (
	MaintREF MaintenanceKind = iota
	MaintRFM
	MaintARR
)

// rankTracker enforces the rank-level tRRD and tFAW activation constraints.
type rankTracker struct {
	p        timing.Params
	lastACT  timing.PicoSeconds
	last4ACT [4]timing.PicoSeconds // ring buffer of recent ACT times
	idx      int
	primed   int // ACTs recorded so far (tFAW applies from the 4th on)
}

// reset returns the tracker to its just-constructed state.
func (r *rankTracker) reset() {
	*r = rankTracker{p: r.p}
}

// ACTReadyAt reports the earliest time a new ACT may start on this rank.
//
//mithril:hotpath
func (r *rankTracker) ACTReadyAt() timing.PicoSeconds {
	if r.primed == 0 {
		return 0
	}
	ready := r.lastACT + r.p.TRRD
	if r.primed >= 4 {
		if faw := r.last4ACT[r.idx] + r.p.TFAW; faw > ready {
			ready = faw
		}
	}
	return ready
}

// RecordACT registers an issued ACT.
//
//mithril:hotpath
func (r *rankTracker) RecordACT(at timing.PicoSeconds) {
	r.lastACT = at
	r.last4ACT[r.idx] = at
	r.idx = (r.idx + 1) % 4
	if r.primed < 4 {
		r.primed++
	}
}
