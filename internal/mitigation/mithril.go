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

// MithrilLanes drives one plain-Mithril tracker (a lane) per AdTH level
// from a single ACT/RFM stream, so one simulation stands for a whole AdTH
// sweep. That is exact because AdTH never reaches the controller: the MC
// issues every RFM and holds the bank for tRFM whatever the DRAM refreshes
// inside the window, so runs that differ only in AdTH issue the same
// commands at the same times. Mithril+ cannot be laned: its skip flag
// drops RFMs, so its AdTH moves timing.
//
// Lane 0's victims go to the controller; every lane counts the victims it
// would have refreshed, clamped to the bank as dram.Device counts them.
type MithrilLanes struct {
	mc.NoProtection
	lanes      []*MithrilScheme
	rows       int
	preventive []uint64
}

// BuildLanes builds one lane of scheme name at opt per level in adths
// (in Options.AdTH's encoding). Any name but "mithril" is an error, as is
// an empty level list or a level Build rejects.
func BuildLanes(name string, opt Options, adths []int) (*MithrilLanes, error) {
	if len(adths) == 0 {
		return nil, fmt.Errorf("mitigation: %s lanes need at least one AdTH level", name)
	}
	l := &MithrilLanes{rows: opt.Timing.Rows, preventive: make([]uint64, len(adths))}
	for _, ad := range adths {
		opt.AdTH = ad
		s, err := Build(name, opt)
		if err != nil {
			return nil, err
		}
		m, ok := s.(*MithrilScheme)
		if !ok || m.plus {
			return nil, fmt.Errorf("mitigation: %s cannot be laned: only plain Mithril's AdTH leaves the RFM stream unchanged", name)
		}
		l.lanes = append(l.lanes, m)
	}
	return l, nil
}

// PreventiveRows reports, per lane, the in-range victim rows the lane has
// refreshed. The slice is the scheme's own.
func (l *MithrilLanes) PreventiveRows() []uint64 { return l.preventive }

// Name implements mc.Scheme.
func (l *MithrilLanes) Name() string { return "mithril" }

// RFMCompatible implements mc.Scheme.
func (l *MithrilLanes) RFMCompatible() bool { return true }

// RFMTH implements mc.Scheme: every lane shares it.
func (l *MithrilLanes) RFMTH() int { return l.lanes[0].RFMTH() }

// OnActivate implements mc.Scheme: every lane sees the ACT.
//
//mithril:hotpath
func (l *MithrilLanes) OnActivate(bank int, row uint32, coreID int, now timing.PicoSeconds) []uint32 {
	for _, m := range l.lanes {
		m.OnActivate(bank, row, coreID, now)
	}
	return nil
}

// OnRFM implements mc.Scheme: every lane selects inside the window, and
// lane 0's victims are refreshed.
//
//mithril:hotpath
func (l *MithrilLanes) OnRFM(bank int, now timing.PicoSeconds) []uint32 {
	var refreshed []uint32
	for k, m := range l.lanes {
		v := m.OnRFM(bank, now)
		for _, r := range v {
			if int(r) < l.rows {
				l.preventive[k]++
			}
		}
		if k == 0 {
			refreshed = v
		}
	}
	return refreshed
}
