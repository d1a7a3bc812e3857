// Package core implements the paper's primary contribution: the per-bank
// Mithril module (Section IV) — a Counter-based Summary table driven by ACT
// and RFM commands, greedy victim selection at every RFM, the adaptive
// refresh policy (Section V-A) and the Mithril+ skip flag (Section V-B).
// The table is streaming.SpaceSaving; the Section IV-E claim that wrapping
// counters order entries exactly like unbounded ones is tested in
// internal/streaming (wrapped_test.go) against the scan-based reference.
//
// One Mithril value corresponds to the "Mithril logic" block of Figure 4:
// it is instantiated once per DRAM bank and observes that bank's command
// stream.
package core

import (
	"fmt"

	"mithril/internal/streaming"
)

// Config selects a Mithril operating point.
type Config struct {
	// NEntry is the counter table capacity (address CAM + count CAM pairs).
	NEntry int
	// RFMTH is the MC-side activation threshold that paces RFM commands.
	// The module itself does not enforce it, but records it for reports.
	RFMTH int
	// AdTH enables the adaptive refresh policy when positive: a preventive
	// refresh is executed only when MaxPtr−MinPtr exceeds AdTH.
	AdTH int
	// BlastRadius is the per-side victim range covered by a preventive
	// refresh (1 = double-sided neighbours, 3 = non-adjacent model of
	// Section V-C with six victims).
	BlastRadius int
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.NEntry <= 0 {
		return fmt.Errorf("core: NEntry must be positive, got %d", c.NEntry)
	}
	if c.RFMTH <= 0 {
		return fmt.Errorf("core: RFMTH must be positive, got %d", c.RFMTH)
	}
	if c.AdTH < 0 {
		return fmt.Errorf("core: AdTH must be non-negative, got %d", c.AdTH)
	}
	if c.BlastRadius < 0 {
		return fmt.Errorf("core: BlastRadius must be non-negative, got %d", c.BlastRadius)
	}
	return nil
}

// Mithril is the per-bank protection module.
type Mithril struct {
	cfg   Config
	table *streaming.SpaceSaving
	vbuf  []uint32 // reusable OnRFM victim buffer
}

// New builds a Mithril module. It panics on invalid configuration — the
// module models hardware whose parameters are fixed at design time.
func New(cfg Config) *Mithril {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.BlastRadius == 0 {
		cfg.BlastRadius = 1
	}
	return &Mithril{cfg: cfg, table: streaming.NewSpaceSaving(cfg.NEntry)}
}

// OnActivate feeds one ACT command (step 1 of Figure 4/5): CbS update with
// MaxPtr/MinPtr maintenance.
//
//mithril:hotpath
func (m *Mithril) OnActivate(row uint32) {
	m.table.Observe(row)
}

// OnRFM feeds one RFM command (steps 2–3 of Figure 4/5): greedy selection of
// the MaxPtr entry, preventive refresh of its victims, and decrement of its
// counter to the table minimum. With the adaptive policy enabled the refresh
// is skipped when the spread is at or below AdTH.
//
// It returns the selected aggressor and the victim rows the DRAM must
// refresh within the tRFM window; refreshed is false when the adaptive
// policy skipped the refresh (victims is then nil). The victim slice is
// owned by the module and reused on the next OnRFM — callers that retain
// it must copy.
//
//mithril:hotpath
func (m *Mithril) OnRFM() (aggressor uint32, victims []uint32, refreshed bool) {
	if m.cfg.AdTH > 0 && m.table.Spread() <= uint64(m.cfg.AdTH) {
		return 0, nil, false
	}
	aggressor, ok := m.table.DecrementMaxToMin()
	if !ok {
		return 0, nil, false
	}
	victims = AppendVictimRows(m.vbuf[:0], aggressor, m.cfg.BlastRadius)
	m.vbuf = victims
	return aggressor, victims, true
}

// SkipFlag is the Mithril+ mode-register flag (Section V-B): true when the
// table spread is at or below AdTH, telling the MC (via MRR) that the next
// RFM command may be skipped entirely.
//
//mithril:hotpath
func (m *Mithril) SkipFlag() bool {
	return m.cfg.AdTH > 0 && m.table.Spread() <= uint64(m.cfg.AdTH)
}

// AppendVictimRows appends the rows within blastRadius of aggressor on
// both sides to buf, clamped at the address space boundary (row numbers
// are bank-local). The module's RFM path reuses one buffer to stay
// allocation-free.
//
//mithril:hotpath
func AppendVictimRows(buf []uint32, aggressor uint32, blastRadius int) []uint32 {
	for d := 1; d <= blastRadius; d++ {
		if aggressor >= uint32(d) {
			buf = append(buf, aggressor-uint32(d))
		}
		buf = append(buf, aggressor+uint32(d))
	}
	return buf
}
