package mitigation

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mithril/internal/analysis"
	"mithril/internal/mc"
	"mithril/internal/rh"
	"mithril/internal/streaming"
	"mithril/internal/timing"
)

func opts(flipTH int) Options {
	return Options{Timing: timing.DDR5(), FlipTH: flipTH, Seed: 7}
}

func TestBuildAllNames(t *testing.T) {
	for _, name := range Names() {
		s, err := Build(name, opts(6250))
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if name != "none" && s.Name() != name {
			t.Errorf("Build(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := Build("bogus", opts(6250)); err == nil {
		t.Fatal("unknown scheme should error")
	}
}

// TestNamesSortedGuarantee pins the documented registry contract: Names()
// returns the registered schemes in sorted order, and the shipped set is
// exactly the paper's Table I plus the unprotected baseline.
func TestNamesSortedGuarantee(t *testing.T) {
	got := Names()
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Names() not sorted: %v", got)
	}
	want := []string{"blockhammer", "cbt", "graphene", "mithril", "mithril+", "none", "para", "parfm", "twice"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	// The returned slice is a copy: mutating it must not corrupt the
	// registry's view.
	got[0] = "clobbered"
	if Names()[0] != want[0] {
		t.Fatal("Names() exposed internal state")
	}
}

func TestBuildUnknownSchemeError(t *testing.T) {
	_, err := Build("bogus", opts(6250))
	if !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("err = %v, want ErrUnknownScheme", err)
	}
	// The message must name every valid scheme so a typo is self-repairing.
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid scheme %q", err, name)
		}
	}
}

func TestBuildEmptyNameIsNone(t *testing.T) {
	s, err := Build("", opts(6250))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(mc.NoProtection); !ok {
		t.Fatalf("Build(\"\") = %T, want NoProtection", s)
	}
}

// Every table entry has a non-empty name and a factory; duplicate names
// are a compile error in the map literal. Every scheme also keeps the hook
// contract the embedded mc.NoProtection defaults supply: exactly Mithril,
// Mithril+ and PARFM run the RFM interface, RFMCompatible agrees with a
// positive RFMTH, and a scheme outside the interface yields no RFM victims
// and never skips, even on a hammered bank.
func TestSchemeTableInvariants(t *testing.T) {
	var rfm []string
	for name, f := range factories {
		if name == "" {
			t.Error("scheme table has an empty name (Build reserves \"\" as the alias for none)")
		}
		if f == nil {
			t.Errorf("scheme %q has a nil factory", name)
			continue
		}
		s, err := f(opts(6250))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.RFMCompatible() != (s.RFMTH() > 0) {
			t.Errorf("%s: RFMCompatible() = %v with RFMTH() = %d", name, s.RFMCompatible(), s.RFMTH())
		}
		if s.RFMCompatible() {
			rfm = append(rfm, name)
			continue
		}
		for i := 0; i < 1000; i++ {
			s.OnActivate(0, 42, 0, timing.PicoSeconds(i)*timing.DDR5().TRC)
		}
		if v := s.OnRFM(0, 0); v != nil {
			t.Errorf("%s: OnRFM = %v outside the RFM interface, want nil", name, v)
		}
		if s.SkipRFM(0) {
			t.Errorf("%s: SkipRFM = true outside the RFM interface", name)
		}
	}
	sort.Strings(rfm)
	if want := []string{"mithril", "mithril+", "parfm"}; !reflect.DeepEqual(rfm, want) {
		t.Errorf("RFM-compatible schemes = %v, want %v", rfm, want)
	}
}

// Build answers caller input with a scheme or an error, never a panic:
// spec files, the CLI and the serve endpoint all reach it with FlipTH
// values nobody vetted. FlipTH 10 is feasible for every counter-based
// scheme but no Mithril table can protect it; 0 and -5 are rejected
// outright.
func TestBuildNeverPanics(t *testing.T) {
	for _, name := range Names() {
		for _, flipTH := range []int{-5, 0, 10, 6250} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("Build(%q, FlipTH %d) panicked: %v", name, flipTH, r)
					}
				}()
				s, err := Build(name, opts(flipTH))
				if (s == nil) == (err == nil) {
					t.Errorf("Build(%q, FlipTH %d) = %v, %v; want exactly one of scheme and error", name, flipTH, s, err)
				}
				if flipTH < 1 && err == nil {
					t.Errorf("Build(%q, FlipTH %d) accepted a non-positive FlipTH", name, flipTH)
				}
				if flipTH == 6250 && err != nil {
					t.Errorf("Build(%q, FlipTH 6250): %v", name, err)
				}
			}()
		}
	}
	for _, name := range []string{"mithril", "mithril+"} {
		want := CheckMithril(opts(10))
		if _, err := Build(name, opts(10)); want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("Build(%q, FlipTH 10) error = %v, want CheckMithril's %v", name, err, want)
		}
	}
}

func TestPaperRFMTH(t *testing.T) {
	cases := map[int]int{50000: 256, 25000: 256, 12500: 128, 6250: 128, 3125: 64, 1500: 32}
	for f, want := range cases {
		if got := PaperRFMTH(f); got != want {
			t.Errorf("PaperRFMTH(%d) = %d, want %d", f, got, want)
		}
	}
}

func TestPaperRFMTHBoundaries(t *testing.T) {
	// The Section VI-A assignment is a step function on FlipTH; pin the
	// step edges and the region below the paper's lowest level.
	cases := map[int]int{
		25001: 256, 25000: 256, 24999: 128,
		6251: 128, 6250: 128, 6249: 64,
		3126: 64, 3125: 64, 3124: 32,
		1500: 32, 1499: 32, 100: 32, 1: 32,
	}
	for f, want := range cases {
		if got := PaperRFMTH(f); got != want {
			t.Errorf("PaperRFMTH(%d) = %d, want %d", f, got, want)
		}
	}
}

func TestNormalizeBoundaries(t *testing.T) {
	base := Options{Timing: timing.DDR5(), FlipTH: 6250}

	// Negative AdTH is the documented "disable adaptive refresh" encoding.
	o := base
	o.AdTH = -1
	o.normalize()
	if o.AdTH != 0 {
		t.Errorf("negative AdTH should normalize to 0 (disabled), got %d", o.AdTH)
	}

	// Zero AdTH means "paper default".
	o = base
	o.normalize()
	if o.AdTH != DefaultAdTH {
		t.Errorf("zero AdTH should normalize to %d, got %d", DefaultAdTH, o.AdTH)
	}

	// Zero seed is a sentinel for DefaultSeed: an explicit DefaultSeed is
	// indistinguishable from the zero value (documented aliasing).
	zero, explicit := base, base
	explicit.Seed = DefaultSeed
	zero.normalize()
	explicit.normalize()
	if zero.Seed != explicit.Seed {
		t.Errorf("Seed=0 (%#x) and Seed=DefaultSeed (%#x) must configure identical streams",
			zero.Seed, explicit.Seed)
	}
	if zero.Seed != DefaultSeed {
		t.Errorf("zero seed should normalize to DefaultSeed %#x, got %#x", uint64(DefaultSeed), zero.Seed)
	}

	// Any other explicit seed survives normalization.
	o = base
	o.Seed = 42
	o.normalize()
	if o.Seed != 42 {
		t.Errorf("explicit seed must be preserved, got %#x", o.Seed)
	}

	// Non-positive blast radius defaults to double-sided.
	o = base
	o.BlastRadius = -3
	o.normalize()
	if o.BlastRadius != 1 {
		t.Errorf("non-positive BlastRadius should normalize to 1, got %d", o.BlastRadius)
	}
}

// replayAttack drives a scheme directly (no full simulator): row activations
// at tRC pace with RFM every RFMTH ACTs (when compatible), applying
// ARR/preventive refreshes to a fault checker. Returns the checker report.
func replayAttack(s mc.Scheme, flipTH int, rows []uint32, nACTs int) rh.Report {
	p := timing.DDR5()
	ck := rh.NewChecker(p.Rows, p.RefreshGroups, flipTH, nil)
	raa := 0
	now := timing.PicoSeconds(0)
	autoRef := 0
	for i := 0; i < nACTs; i++ {
		row := rows[i%len(rows)]
		// Auto-refresh: sweep every group whose tREFI slot has elapsed
		// (throttling can fast-forward time across many slots at once).
		if target := int(now / p.TREFI); target > autoRef {
			groups := p.RefreshGroups
			rowsPer := p.Rows / groups
			for next := autoRef + 1; next <= target; next++ {
				g := next % groups
				for r := g * rowsPer; r < (g+1)*rowsPer; r++ {
					ck.OnRefresh(r)
				}
			}
			now += p.TRFC * timing.PicoSeconds(target-autoRef)
			autoRef = target
		}
		if until := s.PreACTDelay(0, row, 0, now); until > now {
			now = until
		}
		ck.OnActivate(int(row), now)
		for _, v := range s.OnActivate(0, row, 0, now) {
			ck.OnRefresh(int(v))
			now += p.TRC
		}
		now += p.TRC
		if s.RFMCompatible() {
			raa++
			if raa >= s.RFMTH() {
				raa = 0
				if !s.SkipRFM(0) {
					for _, v := range s.OnRFM(0, now) {
						ck.OnRefresh(int(v))
					}
					now += p.TRFM
				}
			}
		}
	}
	return ck.Report()
}

func TestDeterministicSchemesStopDoubleSidedAttack(t *testing.T) {
	// A double-sided attack of 4×FlipTH ACTs must not flip under any
	// deterministic scheme.
	const flipTH = 3125
	rows := []uint32{2000, 2002}
	for _, name := range []string{"graphene", "twice", "cbt", "blockhammer", "mithril", "mithril+"} {
		s, err := Build(name, opts(flipTH))
		if err != nil {
			t.Fatal(err)
		}
		rep := replayAttack(s, flipTH, rows, 4*flipTH)
		if !rep.Safe() {
			t.Errorf("%s failed to stop double-sided attack: %v", name, rep)
		}
	}
}

func TestDeterministicSchemesStopMultiSidedAttack(t *testing.T) {
	const flipTH = 6250
	rows := make([]uint32, 33)
	for i := range rows {
		rows[i] = uint32(3000 + 2*i)
	}
	for _, name := range []string{"graphene", "twice", "mithril", "mithril+"} {
		s, err := Build(name, opts(flipTH))
		if err != nil {
			t.Fatal(err)
		}
		rep := replayAttack(s, flipTH, rows, 8*flipTH)
		if !rep.Safe() {
			t.Errorf("%s failed to stop multi-sided attack: %v", name, rep)
		}
	}
}

func TestNoProtectionFlips(t *testing.T) {
	s, _ := Build("none", opts(3125))
	rep := replayAttack(s, 3125, []uint32{2000, 2002}, 4*3125)
	if rep.Safe() {
		t.Fatal("control run should flip without protection")
	}
}

func TestPARAProbabilityScalesWithFlipTH(t *testing.T) {
	hi := NewPARA(opts(50000))
	lo := NewPARA(opts(1500))
	if !(lo.p > hi.p) {
		t.Fatalf("p(1.5K)=%v should exceed p(50K)=%v", lo.p, hi.p)
	}
	if p := lo.p; p <= 0 || p > 1 {
		t.Fatalf("probability %v out of range", p)
	}
}

func TestPARAStatisticallyProtects(t *testing.T) {
	// Not deterministic, but at 4×FlipTH ACTs the expected number of
	// preventive refreshes is ~p·N ≫ 1; a flip would be astronomically
	// unlikely with the configured p.
	s := NewPARA(opts(3125))
	rep := replayAttack(s, 3125, []uint32{2000, 2002}, 4*3125)
	if !rep.Safe() {
		t.Fatalf("PARA failed its statistical protection: %v", rep)
	}
}

func TestPARFMRefreshesEveryRFM(t *testing.T) {
	s := NewPARFM(opts(6250))
	if !s.RFMCompatible() || s.RFMTH() <= 0 {
		t.Fatal("PARFM must be RFM compatible with positive RFMTH")
	}
	// Feed ACTs, then check OnRFM returns victims (energy cost driver).
	for i := 0; i < s.RFMTH(); i++ {
		s.OnActivate(0, uint32(1000+i), 0, 0)
	}
	if v := s.OnRFM(0, 0); len(v) == 0 {
		t.Fatal("PARFM should always refresh at RFM")
	}
	if s.SkipRFM(0) {
		t.Fatal("PARFM never skips")
	}
}

func TestPARFMRequiredRFMTHLowerAtLowFlipTH(t *testing.T) {
	hi := NewPARFM(opts(50000))
	lo := NewPARFM(opts(1500))
	if !(lo.RFMTH() < hi.RFMTH()) {
		t.Fatalf("RFMTH(1.5K)=%d should be below RFMTH(50K)=%d", lo.RFMTH(), hi.RFMTH())
	}
}

func TestGrapheneResetsPeriodically(t *testing.T) {
	s := NewGraphene(opts(6250))
	p := timing.DDR5()
	s.OnActivate(0, 1, 0, 0)
	s.OnActivate(0, 1, 0, p.TREFW/2+1)
	// The reset cleared the first ACT: the table holds the second only.
	if got := s.tables[0].Estimate(1); got != 1 || s.lastReset != p.TREFW/2+1 {
		t.Fatalf("after tREFW/2: estimate %d (want 1), last reset %v", got, s.lastReset)
	}
}

func TestGrapheneTriggersAtThresholdMultiples(t *testing.T) {
	s := NewGraphene(opts(6250))
	th := s.threshold
	var triggers int
	for i := uint64(0); i < 2*th+2; i++ {
		if len(s.OnActivate(0, 42, 0, timing.PicoSeconds(i))) > 0 {
			triggers++
		}
	}
	if triggers != 2 {
		t.Fatalf("triggers = %d over 2T+2 ACTs, want 2 (at T and 2T)", triggers)
	}
}

// TestGrapheneEvictionClearsTriggerLevel pins the fix for stale CbS trigger
// levels: a row that crossed its trigger (level raised to 2T), was evicted
// from the table, and later re-enters must restart at the base threshold T.
// Before the fix, the stale 2T level survived eviction and the returning
// row missed ARR refreshes until the next half-window reset.
func TestGrapheneEvictionClearsTriggerLevel(t *testing.T) {
	// Compress the refresh window so the table holds exactly 2 entries
	// (N = ⌈(S/2)/T⌉ with T = FlipTH/4) — evictions become forceable.
	p := timing.DDR5()
	p.TREFW = 100 * p.TREFI
	s := NewGraphene(Options{Timing: p, FlipTH: 8000, Seed: 7})
	if s.nEntry != 2 {
		t.Fatalf("test geometry: NEntry = %d, want 2", s.nEntry)
	}
	th := s.threshold

	// All activity at now=0: no periodic reset interferes.
	hammer := func(row uint32, n uint64) (triggers int) {
		for i := uint64(0); i < n; i++ {
			if len(s.OnActivate(0, row, 0, 0)) > 0 {
				triggers++
			}
		}
		return triggers
	}

	// Row A crosses T exactly once; its next level is now 2T.
	if got := hammer(10, th); got != 1 {
		t.Fatalf("row A: %d triggers over T ACTs, want 1", got)
	}
	// Row B fills the second slot and crosses T, then pulls one count
	// ahead of A so that A is the table minimum.
	if got := hammer(20, th+1); got != 1 {
		t.Fatalf("row B: %d triggers over T+1 ACTs, want 1", got)
	}
	// Row C evicts A (the minimum entry) and inherits its count + 1 ≥ T —
	// the CbS overestimate triggers C immediately.
	if got := hammer(30, 1); got != 1 {
		t.Fatalf("row C insertion: %d triggers, want 1 (CbS overestimate)", got)
	}
	// Row A re-enters, inheriting the current minimum + 1 ≥ T. Its old 2T
	// level must be gone: the ARR must fire on this very ACT.
	if got := hammer(10, 1); got != 1 {
		t.Fatalf("re-inserted row A: %d triggers, want 1 — stale trigger level survived eviction", got)
	}
}

func TestTWiCeDropsAfterTrigger(t *testing.T) {
	s := NewTWiCe(opts(6250))
	var victimsSeen []uint32
	for i := uint64(0); i < uint64(s.threshold)+1; i++ {
		victimsSeen = s.OnActivate(0, 7, 0, timing.PicoSeconds(i))
		if len(victimsSeen) > 0 {
			break
		}
	}
	if len(victimsSeen) != 2 {
		t.Fatalf("TWiCe victims = %v, want both neighbours", victimsSeen)
	}
	// The triggering row left the table: its estimate fell back to the
	// untracked undercount, far below the trigger level.
	if est := s.tables[0].Estimate(7); est >= s.threshold {
		t.Fatalf("triggered row still estimated at %d (threshold %d)", est, s.threshold)
	}
}

func TestCBTSplitsBeforeRefreshing(t *testing.T) {
	s := NewCBT(opts(6250))
	// Hammer one row: the tree must split down toward the row, and the
	// eventual group refresh must cover a narrow range, not the bank.
	var group []uint32
	for i := 0; i < 4*6250; i++ {
		if v := s.OnActivate(0, 5000, 0, timing.PicoSeconds(i)); len(v) > 0 {
			group = v
			break
		}
	}
	if len(group) == 0 {
		t.Fatal("CBT never refreshed")
	}
	if len(group) > 4096 {
		t.Fatalf("group refresh covered %d rows; tree should have split first", len(group))
	}
}

func TestBlockHammerThrottlesBlacklistedRow(t *testing.T) {
	s := NewBlockHammer(opts(6250))
	if s.tDelay <= 0 {
		t.Fatal("tDelay must be positive")
	}
	now := timing.PicoSeconds(0)
	for i := uint64(0); i <= s.nbl; i++ {
		s.OnActivate(0, 99, 0, now)
		now += timing.DDR5().TRC
	}
	if until := s.PreACTDelay(0, 99, 0, now); until <= now {
		t.Fatal("row past NBL should be delayed")
	}
	if s.PreACTDelay(0, 100, 0, now) != 0 {
		t.Fatal("cold row should not be delayed")
	}
}

func TestBlockHammerThreadEscalation(t *testing.T) {
	s := NewBlockHammer(opts(6250))
	now := timing.PicoSeconds(0)
	// Core 5 hammers a blacklisted row repeatedly.
	for i := 0; i < int(s.nbl)+blockHammerThreadThreshold+1; i++ {
		s.OnActivate(0, 99, 5, now)
		now += timing.DDR5().TRC
	}
	// Even a fresh row is now delayed for core 5, but not for core 6.
	if s.PreACTDelay(0, 500, 5, now) <= now {
		t.Fatal("attacker thread should be throttled on all rows")
	}
	if s.PreACTDelay(0, 500, 6, now) != 0 {
		t.Fatal("innocent thread should be unaffected")
	}
}

func TestBlockHammerCollisionOracle(t *testing.T) {
	s := NewBlockHammer(opts(6250))
	target := uint32(512)
	rows := s.CollidingRows(0, target, 8)
	if len(rows) == 0 {
		t.Fatal("oracle found no colliding rows")
	}
	for _, r := range rows {
		if r == target || absDiff(r, target) <= 1 {
			t.Fatalf("oracle returned the target's own neighbourhood (%d)", r)
		}
	}
	// Activating the colliding rows NBL times must blacklist the target:
	// its very next (benign) activation arms the pacing delay.
	now := timing.PicoSeconds(0)
	for i := uint64(0); i <= s.nbl; i++ {
		for _, r := range rows {
			s.OnActivate(0, r, 1, now)
			now += timing.DDR5().TRC
		}
	}
	s.OnActivate(0, target, 0, now) // one benign access to the hot row
	if s.PreACTDelay(0, target, 0, now+timing.DDR5().TRC) <= now {
		t.Fatal("collision attack failed to blacklist the benign row")
	}
}

// TestBlockHammerCollidingRowsPinned pins the oracle's answers: the
// Figure 10(c) adversary aims at exactly these rows, so a change here moves
// every adversarial row. The query is pure — it builds no filter state.
func TestBlockHammerCollidingRowsPinned(t *testing.T) {
	cases := []struct {
		flipTH, bank int
		target       uint32
		max          int
		want         []uint32
	}{
		{6250, 0, 512, 8, []uint32{83, 1200, 652, 462}},
		{1500, 0, 512, 8, []uint32{6819, 2635, 8928, 3157}},
		{6250, 3, 513, 4, []uint32{34, 2374, 3871, 7818}},
		{1500, 3, 513, 4, []uint32{34, 11133, 3871, 7818}},
		{6250, 0, 512, 2, []uint32{83, 1200}},
	}
	for _, c := range cases {
		s := NewBlockHammer(opts(c.flipTH))
		if got := s.CollidingRows(c.bank, c.target, c.max); !reflect.DeepEqual(got, c.want) {
			t.Errorf("FlipTH %d: CollidingRows(%d, %d, %d) = %v, want %v", c.flipTH, c.bank, c.target, c.max, got, c.want)
		}
		for bank, f := range s.filters {
			if f != nil {
				t.Errorf("FlipTH %d: CollidingRows built bank %d's filters", c.flipTH, bank)
			}
		}
	}
}

// TestBlockHammerNBLFitsFilterCounters checks the filters' 16-bit
// precondition: at every configured FlipTH, and at off-grid ones that map
// to the nearest level, NBL is at or below the counters' saturation point,
// so NewBlockHammer builds without panicking.
func TestBlockHammerNBLFitsFilterCounters(t *testing.T) {
	flipTHs := append([]int{1, 100, 1000, 2000, 4800, 9000, 40000, 100000, 1 << 30}, analysis.StandardFlipTHs...)
	for _, f := range flipTHs {
		if nbl := NewBlockHammer(opts(f)).nbl; nbl > streaming.CBFMaxCount {
			t.Errorf("FlipTH %d: NBL %d exceeds the saturation point %d", f, nbl, streaming.CBFMaxCount)
		}
	}
}

// mithril builds the Mithril (plus = false) or Mithril+ scheme at o.
func mithril(t *testing.T, o Options, plus bool) *MithrilScheme {
	t.Helper()
	s, err := buildMithril(o, plus)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMithrilSchemeConfiguration(t *testing.T) {
	s := mithril(t, opts(6250), false)
	cfg := s.cfg
	if cfg.RFMTH != 128 {
		t.Fatalf("RFMTH = %d, want paper's 128 at 6.25K", cfg.RFMTH)
	}
	if cfg.AdTH != DefaultAdTH {
		t.Fatalf("AdTH = %d, want default %d", cfg.AdTH, DefaultAdTH)
	}
	if kb, ok := analysis.MithrilTableKB(opts(6250).Timing, 6250, cfg.RFMTH, cfg.AdTH); cfg.NEntry <= 0 || !ok || kb <= 0 {
		t.Fatalf("sizing broken: %+v, %v KB", cfg, kb)
	}
	if s.Name() != "mithril" || mithril(t, opts(6250), true).Name() != "mithril+" {
		t.Fatal("names")
	}
}

func TestMithrilSkipFlagOnlyOnPlus(t *testing.T) {
	plain := mithril(t, opts(6250), false)
	plus := mithril(t, opts(6250), true)
	// Quiet table: plus may skip; plain never may.
	plain.OnActivate(0, 1, 0, 0)
	plus.OnActivate(0, 1, 0, 0)
	if plain.SkipRFM(0) {
		t.Fatal("plain Mithril must not skip RFM commands")
	}
	if !plus.SkipRFM(0) {
		t.Fatal("Mithril+ should skip on a quiet table")
	}
	// Hammered table: neither skips.
	for i := 0; i < 1000; i++ {
		plus.OnActivate(0, 42, 0, 0)
	}
	if plus.SkipRFM(0) {
		t.Fatal("Mithril+ must not skip while under attack")
	}
}

func TestMithrilAdaptiveSkipsOnUniformTraffic(t *testing.T) {
	s := mithril(t, opts(6250), false)
	// Uniform traffic across many rows: spread stays below AdTH.
	for i := 0; i < 4096; i++ {
		s.OnActivate(0, uint32(i%1024), 0, 0)
	}
	if v := s.OnRFM(0, 0); v != nil {
		t.Fatalf("adaptive policy should skip the refresh, got victims %v", v)
	}
}

// CheckMithril accepts the paper's FlipTH=1500 point and rejects one no
// table size can protect (TestBuildNeverPanics holds Build's error for such
// a point equal to CheckMithril's).
func TestMithrilPanicsOnInfeasibleConfig(t *testing.T) {
	if err := CheckMithril(opts(1500)); err != nil {
		t.Fatalf("CheckMithril rejected the paper's FlipTH=1500 point: %v", err)
	}
	o := opts(1500)
	o.RFMTH = 256 // infeasible per Figure 6
	if CheckMithril(o) == nil {
		t.Fatal("CheckMithril accepted an infeasible config")
	}
}

func TestNonAdjacentBlastRadius(t *testing.T) {
	o := opts(6250)
	o.BlastRadius = 3
	s := mithril(t, o, false)
	for i := 0; i < 2000; i++ {
		s.OnActivate(0, 500, 0, 0)
	}
	v := s.OnRFM(0, 0)
	if len(v) != 6 {
		t.Fatalf("radius-3 preventive refresh should cover 6 rows, got %v", v)
	}
}
