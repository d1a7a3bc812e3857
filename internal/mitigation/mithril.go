package mitigation

import (
	"fmt"

	"mithril/internal/analysis"
	"mithril/internal/core"
	"mithril/internal/mc"
	"mithril/internal/timing"
)

// MithrilScheme adapts the per-bank core.Mithril modules to the controller
// interface. Plain Mithril never asserts the MRR skip flag (the MC issues
// every RFM; the DRAM may still skip the refresh internally under the
// adaptive policy); MithrilPlus exposes the flag so the MC can elide the
// RFM command entirely (Section V-B).
type MithrilScheme struct {
	mc.NoProtection
	opt     Options
	cfg     core.Config
	plus    bool
	modules []*core.Mithril // per global bank, built on first use
}

var _ mc.Scheme = (*MithrilScheme)(nil)

// mithrilFactory is the scheme-table entry for Mithril (plus = false) or
// Mithril+ (identical hardware plus the MRR skip flag): RFMTH from the
// paper's per-FlipTH choice (or the override), Nentry from Theorem 1/2. An
// infeasible point comes back as CheckMithril's error.
func mithrilFactory(plus bool) Factory {
	return func(opt Options) (mc.Scheme, error) {
		s, err := buildMithril(opt, plus)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

func buildMithril(opt Options, plus bool) (*MithrilScheme, error) {
	opt.normalize()
	rfmTH, ac, err := configureMithril(opt)
	if err != nil {
		return nil, err
	}
	return &MithrilScheme{
		opt: opt,
		cfg: core.Config{
			NEntry:      ac.NEntry,
			RFMTH:       rfmTH,
			AdTH:        opt.AdTH,
			BlastRadius: opt.BlastRadius,
		},
		plus:    plus,
		modules: make([]*core.Mithril, opt.banks()),
	}, nil
}

// CheckMithril returns the error Build("mithril"|"mithril+", opt) returns
// for opt: no table size keeps the Theorem 1/2 bound below FlipTH at its
// operating point. It is pure arithmetic and builds no scheme state, so
// callers can vet a point before anything simulates.
func CheckMithril(opt Options) error {
	opt.normalize()
	_, _, err := configureMithril(opt)
	return err
}

// configureMithril sizes the table for a normalized opt, with the paper's
// per-FlipTH RFMTH standing in for a non-positive one.
func configureMithril(opt Options) (rfmTH int, ac analysis.Config, err error) {
	rfmTH = opt.RFMTH
	if rfmTH <= 0 {
		rfmTH = PaperRFMTH(opt.FlipTH)
	}
	blast := analysis.DoubleSidedBlast
	if opt.BlastRadius >= 3 {
		blast = analysis.NonAdjacentBlast
	}
	ac, ok := analysis.Configure(opt.Timing, opt.FlipTH, rfmTH, opt.AdTH, blast)
	if !ok {
		return 0, ac, fmt.Errorf("mitigation: no feasible Mithril config for FlipTH=%d RFMTH=%d AdTH=%d",
			opt.FlipTH, rfmTH, opt.AdTH)
	}
	return rfmTH, ac, nil
}

// ModuleConfig exposes the per-bank module configuration.
func (s *MithrilScheme) ModuleConfig() core.Config { return s.cfg }

// TableKB reports the per-bank table size from the area model.
func (s *MithrilScheme) TableKB() float64 {
	kb, _ := analysis.MithrilTableKB(s.opt.Timing, s.opt.FlipTH, s.cfg.RFMTH, s.cfg.AdTH)
	return kb
}

// ModuleStats aggregates the module counters across banks.
func (s *MithrilScheme) ModuleStats() core.Stats {
	var total core.Stats
	for _, m := range s.modules {
		if m == nil {
			continue
		}
		st := m.Stats()
		total.ACTs += st.ACTs
		total.RFMs += st.RFMs
		total.PreventiveRefreshes += st.PreventiveRefreshes
		total.AdaptiveSkips += st.AdaptiveSkips
		total.VictimRowsRefreshed += st.VictimRowsRefreshed
		if st.MaxSpreadSeen > total.MaxSpreadSeen {
			total.MaxSpreadSeen = st.MaxSpreadSeen
		}
	}
	return total
}

//mithril:hotpath
func (s *MithrilScheme) module(bank int) *core.Mithril {
	m := s.modules[bank]
	if m == nil {
		m = core.New(s.cfg) //mithril:allow hotpathalloc one-time lazy construction on a bank's first ACT
		s.modules[bank] = m
	}
	return m
}

// Name implements mc.Scheme.
func (s *MithrilScheme) Name() string {
	if s.plus {
		return "mithril+"
	}
	return "mithril"
}

// RFMCompatible implements mc.Scheme.
func (s *MithrilScheme) RFMCompatible() bool { return true }

// RFMTH implements mc.Scheme.
func (s *MithrilScheme) RFMTH() int { return s.cfg.RFMTH }

// OnActivate implements mc.Scheme: DRAM-side table update, no ARR.
//
//mithril:hotpath
func (s *MithrilScheme) OnActivate(bank int, row uint32, coreID int, now timing.PicoSeconds) []uint32 {
	s.module(bank).OnActivate(row)
	return nil
}

// OnRFM implements mc.Scheme: greedy selection inside the tRFM window.
//
//mithril:hotpath
func (s *MithrilScheme) OnRFM(bank int, now timing.PicoSeconds) []uint32 {
	_, v, refreshed := s.module(bank).OnRFM()
	if !refreshed {
		return nil
	}
	return v
}

// SkipRFM implements mc.Scheme: only Mithril+ exposes the flag to the MC.
//
//mithril:hotpath
func (s *MithrilScheme) SkipRFM(bank int) bool {
	if !s.plus {
		return false
	}
	return s.module(bank).SkipFlag()
}
