package core

import (
	"testing"

	"mithril/internal/analysis"
	"mithril/internal/rh"
	"mithril/internal/streaming"
	"mithril/internal/timing"
)

func TestConfigValidate(t *testing.T) {
	good := Config{NEntry: 64, RFMTH: 64}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{NEntry: 0, RFMTH: 64},
		{NEntry: 64, RFMTH: 0},
		{NEntry: 64, RFMTH: 64, AdTH: -1},
		{NEntry: 64, RFMTH: 64, BlastRadius: -2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	New(Config{})
}

func TestMithrilGreedySelection(t *testing.T) {
	m := New(Config{NEntry: 4, RFMTH: 16})
	for i := 0; i < 9; i++ {
		m.OnActivate(0xA0)
		m.OnActivate(0xB0)
	}
	m.OnActivate(0xA0)
	m.OnActivate(0xC0)
	aggressor, victims, refreshed := m.OnRFM()
	if !refreshed {
		t.Fatal("RFM should refresh")
	}
	if aggressor != 0xA0 {
		t.Fatalf("selected %#x, want A0 (the max)", aggressor)
	}
	if len(victims) != 2 || victims[0] != 0x9F || victims[1] != 0xA1 {
		t.Fatalf("victims = %v, want [9F A1]", victims)
	}
	// Next RFM must pick B0: A0 was decremented to the minimum.
	aggressor, _, _ = m.OnRFM()
	if aggressor != 0xB0 {
		t.Fatalf("second RFM selected %#x, want B0", aggressor)
	}
}

func TestAdaptiveRefreshSkipsQuietTable(t *testing.T) {
	m := New(Config{NEntry: 8, RFMTH: 16, AdTH: 100})
	// Uniform traffic: spread stays tiny.
	for i := 0; i < 400; i++ {
		m.OnActivate(uint32(i % 8))
	}
	if _, _, refreshed := m.OnRFM(); refreshed {
		t.Fatal("quiet table should be skipped under adaptive policy")
	}
	// Attack traffic: one row dominates, spread grows past AdTH.
	for i := 0; i < 200; i++ {
		m.OnActivate(42)
	}
	aggressor, _, refreshed := m.OnRFM()
	if !refreshed || aggressor != 42 {
		t.Fatalf("attack should trigger refresh of row 42, got (%d, %v)", aggressor, refreshed)
	}
}

func TestSkipFlagMithrilPlus(t *testing.T) {
	m := New(Config{NEntry: 8, RFMTH: 16, AdTH: 100})
	if !m.SkipFlag() {
		t.Fatal("fresh table should flag skip")
	}
	for i := 0; i < 300; i++ {
		m.OnActivate(7)
	}
	if m.SkipFlag() {
		t.Fatal("hammered table must clear the skip flag")
	}
	// Without AdTH the flag is never set (plain Mithril).
	m2 := New(Config{NEntry: 8, RFMTH: 16})
	if m2.SkipFlag() {
		t.Fatal("AdTH=0 module should never flag skip")
	}
}

func TestVictimRows(t *testing.T) {
	if v := AppendVictimRows(nil, 100, 1); len(v) != 2 || v[0] != 99 || v[1] != 101 {
		t.Errorf("radius 1 victims = %v", v)
	}
	v := AppendVictimRows(nil, 100, 3)
	want := []uint32{99, 101, 98, 102, 97, 103}
	if len(v) != 6 {
		t.Fatalf("radius 3 victims = %v, want 6 rows", v)
	}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("radius 3 victims = %v, want %v", v, want)
		}
	}
	// Clamped at the bottom of the address space.
	if v := AppendVictimRows(nil, 0, 2); len(v) != 2 || v[0] != 1 || v[1] != 2 {
		t.Errorf("clamped victims = %v, want [1 2]", v)
	}
	// Appending keeps what the buffer already holds.
	if v := AppendVictimRows([]uint32{7}, 100, 1); len(v) != 3 || v[0] != 7 || v[1] != 99 || v[2] != 101 {
		t.Errorf("appended victims = %v, want [7 99 101]", v)
	}
}

func TestStatsAccounting(t *testing.T) {
	m := New(Config{NEntry: 4, RFMTH: 8, BlastRadius: 3})
	for i := 0; i < 100; i++ {
		m.OnActivate(50)
	}
	if s := m.table.Spread(); s != 100 {
		t.Fatalf("spread after 100 ACTs to one row = %d, want 100", s)
	}
	_, victims, refreshed := m.OnRFM()
	if !refreshed || len(victims) != 6 {
		t.Fatalf("radius-3 refresh should hit 6 victims, got %v", victims)
	}
	// The refresh decrements the aggressor to the table minimum.
	if s := m.table.Spread(); s != 0 {
		t.Fatalf("spread after the refresh = %d, want 0", s)
	}
}

// theoremStats counts what runTheoremHarness observed.
type theoremStats struct {
	ACTs, RFMs, PreventiveRefreshes uint64
	MaxSpreadSeen                   uint64 // high-water mark of MaxPtr−MinPtr
}

// runTheoremHarness replays an adversarial ACT stream with an RFM command
// every RFMTH activations and reports the maximum actual ACT count any row
// accumulated since its last selection — the quantity Theorem 1/2 bound —
// and the event counts.
func runTheoremHarness(cfg Config, next func(i int) uint32, streamLen int) (uint64, theoremStats) {
	m := New(cfg)
	acts := map[uint32]uint64{}
	var maxSeen uint64
	var st theoremStats
	sinceRFM := 0
	for i := 0; i < streamLen; i++ {
		row := next(i)
		m.OnActivate(row)
		st.ACTs++
		st.MaxSpreadSeen = max(st.MaxSpreadSeen, m.table.Spread())
		acts[row]++
		if acts[row] > maxSeen {
			maxSeen = acts[row]
		}
		sinceRFM++
		if sinceRFM == cfg.RFMTH {
			sinceRFM = 0
			st.RFMs++
			if aggressor, _, refreshed := m.OnRFM(); refreshed {
				st.PreventiveRefreshes++
				acts[aggressor] = 0
			}
		}
	}
	return maxSeen, st
}

func TestTheorem1BoundHoldsEmpirically(t *testing.T) {
	// E11: adversarial streams must never push any row's unrefreshed ACT
	// count past M = BoundM(N, RFMTH) within a tREFW-sized stream.
	p := timing.DDR5()
	cfgs := []Config{
		{NEntry: 32, RFMTH: 32},
		{NEntry: 64, RFMTH: 64},
	}
	for _, cfg := range cfgs {
		streamLen := p.ACTsPerREFW()
		if streamLen > 250000 {
			streamLen = 250000 // sub-window stream: bound holds a fortiori
		}
		bound := analysis.BoundM(p, cfg.NEntry, cfg.RFMTH)
		r := streaming.NewRand(31)
		patterns := map[string]func(i int) uint32{
			// Classic CbS adversary: N+1 rows in rotation force constant
			// eviction and estimate inflation.
			"rotateN+1": func(i int) uint32 { return uint32(i % (cfg.NEntry + 1)) },
			// Two-row double-sided hammer.
			"doubleSided": func(i int) uint32 { return uint32(100 + 2*(i%2)) },
			// Half hammer, half dispersed noise.
			"mixed": func(i int) uint32 {
				if i%2 == 0 {
					return 7
				}
				return uint32(1000 + i%1024)
			},
			// Many-sided attack (32 aggressors, TRRespass-style).
			"multiSided": func(i int) uint32 { return uint32(500 + (i%32)*2) },
			// Random traffic over a row set a little larger than the table.
			"random": func(int) uint32 { return uint32(r.Intn(cfg.NEntry + cfg.NEntry/2)) },
		}
		for name, pattern := range patterns {
			got, st := runTheoremHarness(cfg, pattern, streamLen)
			if float64(got) > bound {
				t.Errorf("cfg %+v pattern %s: max unrefreshed ACTs %d exceeds M=%.0f",
					cfg, name, got, bound)
			}
			// The table's own spread obeys the same bound, and without
			// AdTH every RFM refreshes.
			if float64(st.MaxSpreadSeen) > bound {
				t.Errorf("cfg %+v pattern %s: table spread %d exceeds M=%.0f",
					cfg, name, st.MaxSpreadSeen, bound)
			}
			if rfms := uint64(streamLen / cfg.RFMTH); st.ACTs != uint64(streamLen) || st.RFMs != rfms || st.PreventiveRefreshes != rfms {
				t.Errorf("cfg %+v pattern %s: stats %+v, want %d ACTs and %d refreshing RFMs",
					cfg, name, st, streamLen, rfms)
			}
		}
	}
}

func TestTheorem2BoundHoldsWithAdaptiveRefresh(t *testing.T) {
	p := timing.DDR5()
	cfg := Config{NEntry: 64, RFMTH: 64, AdTH: 200}
	bound := analysis.BoundMPrime(p, cfg.NEntry, cfg.RFMTH, cfg.AdTH)
	streamLen := 250000
	patterns := map[string]func(i int) uint32{
		"rotateN+1":   func(i int) uint32 { return uint32(i % (cfg.NEntry + 1)) },
		"doubleSided": func(i int) uint32 { return uint32(100 + 2*(i%2)) },
		// Pattern crafted to sit near AdTH: bursts that barely trip the
		// adaptive threshold, interleaved with uniform cool-down.
		"adaptiveEdge": func(i int) uint32 {
			if (i/256)%2 == 0 {
				return 7
			}
			return uint32(i % 64)
		},
	}
	for name, pattern := range patterns {
		got, _ := runTheoremHarness(cfg, pattern, streamLen)
		if float64(got) > bound {
			t.Errorf("pattern %s: max unrefreshed ACTs %d exceeds M'=%.0f", name, got, bound)
		}
	}
}

func TestEndToEndNoBitFlipsUnderConfiguredMithril(t *testing.T) {
	// Configure Mithril for FlipTH=3125 per Theorem 1, hammer it with a
	// double-sided attack for a tREFW-equivalent stream, and assert the
	// fault model records no flip.
	p := timing.DDR5()
	const flipTH = 3125
	ac, ok := analysis.Configure(p, flipTH, 32, 0, analysis.DoubleSidedBlast)
	if !ok {
		t.Fatal("configuration should be feasible")
	}
	cfg := Config{NEntry: ac.NEntry, RFMTH: ac.RFMTH}
	m := New(cfg)
	checker := rh.NewChecker(4096, 1, flipTH, nil)
	sinceRFM := 0
	streamLen := p.ACTsPerREFW()
	if streamLen > 300000 {
		streamLen = 300000
	}
	for i := 0; i < streamLen; i++ {
		row := uint32(2000 + 2*(i%2)) // aggressors 2000, 2002 share victim 2001
		m.OnActivate(row)
		checker.OnActivate(int(row), timing.PicoSeconds(i))
		sinceRFM++
		if sinceRFM == cfg.RFMTH {
			sinceRFM = 0
			if _, victims, refreshed := m.OnRFM(); refreshed {
				for _, v := range victims {
					checker.OnRefresh(int(v))
				}
			}
		}
	}
	report := checker.Report()
	if !report.Safe() {
		t.Fatalf("Mithril failed to protect: %v", report)
	}
	if max := checker.Report().MaxDisturbance; max >= flipTH {
		t.Fatalf("disturbance reached FlipTH: %v", max)
	}
}

func TestUnprotectedBankFlipsUnderSameAttack(t *testing.T) {
	// Control experiment: the same attack with no mitigation flips quickly.
	const flipTH = 3125
	checker := rh.NewChecker(4096, 1, flipTH, nil)
	for i := 0; i < 4*flipTH; i++ {
		checker.OnActivate(2000+2*(i%2), timing.PicoSeconds(i))
	}
	if checker.Report().Safe() {
		t.Fatal("unprotected bank should flip — fault model too weak")
	}
}
