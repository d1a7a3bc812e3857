package mitigation

import (
	"mithril/internal/mc"
	"mithril/internal/streaming"
	"mithril/internal/timing"
)

// Graphene (Park et al., MICRO 2020): an MC-side CbS table per bank that
// reactively refreshes a row's victims whenever its estimated count crosses
// the next multiple of the predefined threshold T = FlipTH/4 (one halving
// for the double-sided attack, one for the periodic table reset). The table
// resets every half refresh window — the cost Mithril's wrapping counters
// remove.
type Graphene struct {
	mc.NoProtection
	opt       Options
	threshold uint64
	nEntry    int
	tables    []*streaming.SpaceSaving // per global bank, built on first ACT
	nextLevel []map[uint32]uint64      // per global bank: row -> next trigger level
	vbuf      []uint32                 // reusable victim buffer (mc.Scheme contract)
	lastReset timing.PicoSeconds
	resets    uint64
}

var _ mc.Scheme = (*Graphene)(nil)

// NewGraphene sizes the table per the original work: N = ⌈(S/2)/T⌉ entries
// where S is the per-bank ACT capacity of one tREFW.
func NewGraphene(opt Options) *Graphene {
	opt.normalize()
	t := uint64(opt.FlipTH / 4)
	if t == 0 {
		t = 1
	}
	s := opt.Timing.ACTsPerREFW()
	n := (s/2 + int(t) - 1) / int(t)
	if n < 1 {
		n = 1
	}
	return &Graphene{
		opt:       opt,
		threshold: t,
		nEntry:    n,
		tables:    make([]*streaming.SpaceSaving, opt.banks()),
		nextLevel: make([]map[uint32]uint64, opt.banks()),
	}
}

// Threshold exposes T (tests).
func (s *Graphene) Threshold() uint64 { return s.threshold }

// NEntry exposes the per-bank table size (tests, area model cross-check).
func (s *Graphene) NEntry() int { return s.nEntry }

// Name implements mc.Scheme.
func (s *Graphene) Name() string { return "graphene" }

// OnActivate implements mc.Scheme: CbS update plus reactive ARR trigger.
//
//mithril:hotpath
func (s *Graphene) OnActivate(bank int, row uint32, core int, now timing.PicoSeconds) []uint32 {
	// Periodic reset at every tREFW/2.
	if now-s.lastReset >= s.opt.Timing.TREFW/2 {
		for b, t := range s.tables {
			if t != nil {
				t.Reset()
				clear(s.nextLevel[b])
			}
		}
		s.lastReset = now
		s.resets++
	}
	t := s.tables[bank]
	if t == nil {
		t = streaming.NewSpaceSaving(s.nEntry)                //mithril:allow hotpathalloc one-time lazy construction on a bank's first ACT
		s.nextLevel[bank] = make(map[uint32]uint64, s.nEntry) //mithril:allow hotpathalloc one-time lazy construction on a bank's first ACT; bounded by nEntry
		s.tables[bank] = t
	}
	levels := s.nextLevel[bank]
	if evicted, ok := t.ObserveEvict(row); ok {
		// Trigger levels are keyed to table residency: a row the CbS
		// evicts must restart at the base threshold if it re-enters.
		// Letting the old (higher) level survive would let a returning
		// aggressor skip ARR refreshes until the next half-window reset.
		delete(levels, evicted)
	}
	est := t.Estimate(row)
	next, ok := levels[row]
	if !ok {
		next = s.threshold
	}
	if est < next {
		return nil
	}
	levels[row] = next + s.threshold
	s.vbuf = appendVictims(s.vbuf, row, s.opt.BlastRadius)
	return s.vbuf
}
