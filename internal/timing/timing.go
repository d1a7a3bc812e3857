// Package timing defines DRAM timing parameters and the picosecond-based
// time arithmetic used throughout the simulator.
//
// All durations are expressed as PicoSeconds (int64). The default parameter
// set models DDR5-4800 as configured in Table III of the Mithril paper
// (HPCA 2022): tRFC = 295 ns, tRC = 48.64 ns, tRFM = 97.28 ns,
// tRCD = tRP = tCL = 16.64 ns, tREFW = 32 ms, tREFI = tREFW/8192.
package timing

import "fmt"

// PicoSeconds is the base time unit of the simulator. One DRAM clock at
// DDR5-4800 is 416 ps (fCK = 2400 MHz), so picoseconds express every JEDEC
// parameter exactly as an integer.
type PicoSeconds int64

// Convenience multipliers for constructing durations.
const (
	Picosecond  PicoSeconds = 1
	Nanosecond  PicoSeconds = 1000
	Microsecond PicoSeconds = 1000 * Nanosecond
	Millisecond PicoSeconds = 1000 * Microsecond
	Second      PicoSeconds = 1000 * Millisecond
)

// Never is the far-future sentinel for "no deadline": what a NextDeadline
// method (cpu.Core, dram.Bank, mc.Controller) returns when the component
// has no time-driven work of its own and can only be unblocked by someone
// else's action, and the starting value of every deadline minimum. It is
// large enough that no simulated instant ever reaches it, yet far from
// overflowing when small durations are added.
const Never PicoSeconds = 1 << 62

// String renders the duration with an adaptive unit for logs and errors.
func (p PicoSeconds) String() string {
	switch {
	case p >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(p)/float64(Millisecond))
	case p >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(p)/float64(Microsecond))
	case p >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(p)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(p))
	}
}

// Params holds every DRAM timing and organization parameter the simulator
// enforces. Fields follow JEDEC naming.
type Params struct {
	// TCK is the DRAM clock period.
	TCK PicoSeconds
	// TRC is the minimum interval between two ACTs to the same bank
	// (row cycle time). One activation "slot" in the paper's math.
	TRC PicoSeconds
	// TRCD is the ACT-to-internal-read/write delay.
	TRCD PicoSeconds
	// TRP is the precharge period.
	TRP PicoSeconds
	// TCL is the CAS (read) latency.
	TCL PicoSeconds
	// TRAS is the minimum ACT-to-PRE interval. Derived as TRC-TRP when zero.
	TRAS PicoSeconds
	// TRFC is the refresh cycle time consumed by one auto-refresh (REF).
	TRFC PicoSeconds
	// TREFI is the average interval between REF commands.
	TREFI PicoSeconds
	// TREFW is the refresh window within which every row is refreshed once.
	TREFW PicoSeconds
	// TRFM is the time margin granted to the DRAM by one RFM command.
	TRFM PicoSeconds
	// TFAW is the rolling four-activate window per rank.
	TFAW PicoSeconds
	// TRRD is the minimum ACT-to-ACT interval across banks of a rank.
	TRRD PicoSeconds
	// TBURST is the data burst occupancy of one column access (BL16 at the
	// channel for DDR5).
	TBURST PicoSeconds
	// TWR is the write recovery time (WRITE data end to PRE).
	TWR PicoSeconds

	// Organization.
	Channels      int // independent memory channels
	Ranks         int // ranks per channel
	Banks         int // banks per rank
	Rows          int // rows per bank
	ColumnsPerRow int // cache-line-sized columns per row
	RefreshGroups int // row groups refreshed round-robin, one per tREFI (8192 in DDR5)
}

// DDR5 returns the DDR5-4800 parameter set from Table III of the paper:
// 2 channels, 1 rank, 32 banks per rank, BLISS scheduling (configured in the
// MC, not here), 8 KB rows (128 cache lines of 64 B).
func DDR5() Params {
	return Params{
		TCK:           416,
		TRC:           48640,  // 48.64 ns
		TRCD:          16640,  // 16.64 ns
		TRP:           16640,  // 16.64 ns
		TCL:           16640,  // 16.64 ns
		TRAS:          32000,  // tRC - tRP
		TRFC:          295000, // 295 ns
		TREFW:         32 * Millisecond,
		TREFI:         32 * Millisecond / 8192, // ~3.9 us
		TRFM:          97280,                   // 97.28 ns = 2 * tRC
		TFAW:          13312,                   // 32 tCK
		TRRD:          3328,                    // 8 tCK
		TBURST:        3328,                    // BL16 / 2 per tCK
		TWR:           30000,
		Channels:      2,
		Ranks:         1,
		Banks:         32,
		Rows:          65536,
		ColumnsPerRow: 128,
		RefreshGroups: 8192,
	}
}

// Validate reports a descriptive error when the parameter set is unusable.
func (p Params) Validate() error {
	type check struct {
		name string
		v    PicoSeconds
	}
	for _, c := range []check{
		{"tCK", p.TCK}, {"tRC", p.TRC}, {"tRCD", p.TRCD}, {"tRP", p.TRP},
		{"tCL", p.TCL}, {"tRFC", p.TRFC}, {"tREFI", p.TREFI},
		{"tREFW", p.TREFW}, {"tRFM", p.TRFM},
	} {
		if c.v <= 0 {
			return fmt.Errorf("timing: %s must be positive, got %v", c.name, c.v)
		}
	}
	if p.TREFI >= p.TREFW {
		return fmt.Errorf("timing: tREFI (%v) must be smaller than tREFW (%v)", p.TREFI, p.TREFW)
	}
	if p.TRFC >= p.TREFI {
		return fmt.Errorf("timing: tRFC (%v) must be smaller than tREFI (%v)", p.TRFC, p.TREFI)
	}
	if p.Channels <= 0 || p.Ranks <= 0 || p.Banks <= 0 || p.Rows <= 0 || p.ColumnsPerRow <= 0 {
		return fmt.Errorf("timing: organization fields must be positive (%d ch, %d ranks, %d banks, %d rows, %d cols)",
			p.Channels, p.Ranks, p.Banks, p.Rows, p.ColumnsPerRow)
	}
	if p.RefreshGroups <= 0 {
		return fmt.Errorf("timing: RefreshGroups must be positive, got %d", p.RefreshGroups)
	}
	return nil
}

// TotalBanks reports the number of banks across all channels and ranks.
func (p Params) TotalBanks() int { return p.Channels * p.Ranks * p.Banks }

// ACTsPerREFW is the maximum number of activations a single bank can absorb
// within one refresh window, accounting for the time stolen by auto-refresh:
// tREFW·(1 − tRFC/tREFI) / tRC. This is the stream length S in the analysis.
//
//mithril:hotpath
func (p Params) ACTsPerREFW() int {
	avail := float64(p.TREFW) * (1 - float64(p.TRFC)/float64(p.TREFI))
	return int(avail / float64(p.TRC))
}

// RFMIntervalsPerREFW is W in Theorem 1: the maximum number of RFM intervals
// within one tREFW, W = ⌈(tREFW − (tREFW/tREFI)·tRFC) / (tRC·RFMTH + tRFM)⌉.
func (p Params) RFMIntervalsPerREFW(rfmTH int) int {
	if rfmTH <= 0 {
		return 0
	}
	avail := float64(p.TREFW) - float64(p.TREFW)/float64(p.TREFI)*float64(p.TRFC)
	den := float64(p.TRC)*float64(rfmTH) + float64(p.TRFM)
	w := avail / den
	iw := int(w)
	if float64(iw) < w {
		iw++
	}
	return iw
}
