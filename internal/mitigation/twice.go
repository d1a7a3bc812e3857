package mitigation

import (
	"mithril/internal/mc"
	"mithril/internal/streaming"
	"mithril/internal/timing"
)

// TWiCe (Lee et al., ISCA 2019): lossy counting on the DIMM buffer chip.
// Rows whose conservative estimate reaches FlipTH/4 get their victims
// refreshed through a feedback-augmented ARR and are dropped from the
// table; cold entries are pruned by the lossy-counting bucket mechanism.
// The live table is several times larger than Graphene's for the same
// guarantee (Table IV) — the algorithmic inefficiency Figure 6 quantifies.
type TWiCe struct {
	mc.NoProtection
	opt       Options
	threshold uint64
	tables    []*streaming.LossyCounting // per global bank, built on first ACT
	width     int
	vbuf      []uint32 // reusable victim buffer (mc.Scheme contract)
	lastReset timing.PicoSeconds
}

var _ mc.Scheme = (*TWiCe)(nil)

// NewTWiCe configures the tracker: trigger threshold FlipTH/4 and a lossy
// bucket width of 8·S/FlipTH observations, so the per-window undercount
// Δ ≤ S/width = FlipTH/8 stays below the trigger threshold (no spurious
// ARRs) while true aggressors (≥ FlipTH/4 ACTs) can never be pruned.
// Tables reset every tREFW — the coarse equivalent of TWiCe's per-entry
// life-stage pruning, which keys counts to the refresh window.
func NewTWiCe(opt Options) *TWiCe {
	opt.normalize()
	th := uint64(opt.FlipTH / 4)
	if th == 0 {
		th = 1
	}
	s := opt.Timing.ACTsPerREFW()
	width := 8 * s / opt.FlipTH
	if width < 1 {
		width = 1
	}
	return &TWiCe{
		opt:       opt,
		threshold: th,
		width:     width,
		tables:    make([]*streaming.LossyCounting, opt.banks()),
	}
}

// Threshold exposes the ARR trigger level.
func (s *TWiCe) Threshold() uint64 { return s.threshold }

// Name implements mc.Scheme.
func (s *TWiCe) Name() string { return "twice" }

// OnActivate implements mc.Scheme.
//
//mithril:hotpath
func (s *TWiCe) OnActivate(bank int, row uint32, core int, now timing.PicoSeconds) []uint32 {
	if now-s.lastReset >= s.opt.Timing.TREFW {
		for _, t := range s.tables {
			if t != nil {
				t.Reset() //mithril:allow hotpathalloc once-per-tREFW table reset, off the per-ACT path
			}
		}
		s.lastReset = now
	}
	t := s.tables[bank]
	if t == nil {
		t = streaming.NewLossyCounting(s.width) //mithril:allow hotpathalloc one-time lazy construction on a bank's first ACT
		s.tables[bank] = t
	}
	t.Observe(row)
	if t.Estimate(row) < s.threshold {
		return nil
	}
	// Trigger: refresh victims, drop the entry (its count restarts).
	t.Drop(row)
	s.vbuf = appendVictims(s.vbuf, row, s.opt.BlastRadius)
	return s.vbuf
}
