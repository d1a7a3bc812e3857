package mitigation

import (
	"math"

	"mithril/internal/analysis"
	"mithril/internal/mc"
	"mithril/internal/streaming"
	"mithril/internal/timing"
)

// PARA (Kim et al., ISCA 2014): on every ACT, with probability p, refresh
// one random neighbour of the activated row. Stateless (no counters); the
// protection is probabilistic. p is derived from the 1e-15 consumer
// reliability target the paper uses:
//
//	(1 − p/2)^FlipTH ≤ target / banks  ⇒  p = 2·(1 − (target/banks)^(1/FlipTH))
//
// (a victim is refreshed by each adjacent ACT with probability p/2).
type PARA struct {
	mc.NoProtection
	opt  Options
	p    float64
	rng  *streaming.Rand
	vbuf [1]uint32 // reusable single-victim buffer (mc.Scheme contract)
}

var _ mc.Scheme = (*PARA)(nil)

// NewPARA configures PARA for the option's FlipTH.
func NewPARA(opt Options) *PARA {
	opt.normalize()
	target := 1e-15 / float64(analysis.DefaultAttackableBanks)
	prob := 2 * (1 - math.Pow(target, 1/float64(opt.FlipTH)))
	if prob > 1 {
		prob = 1
	}
	return &PARA{opt: opt, p: prob, rng: streaming.NewRand(opt.Seed)}
}

// Name implements mc.Scheme.
func (s *PARA) Name() string { return "para" }

// OnActivate implements mc.Scheme: coin flip per ACT.
//
//mithril:hotpath
func (s *PARA) OnActivate(bank int, row uint32, core int, now timing.PicoSeconds) []uint32 {
	if s.rng.Float64() >= s.p {
		return nil
	}
	// Refresh one random neighbour within the blast radius.
	d := uint32(s.rng.Intn(s.opt.BlastRadius) + 1)
	if s.rng.Float64() < 0.5 && row >= d {
		s.vbuf[0] = row - d
	} else {
		s.vbuf[0] = row + d
	}
	return s.vbuf[:]
}

// PARFM (Section III-E): the RFM-compatible probabilistic scheme. The DRAM
// samples one aggressor uniformly among the last RFMTH activations at every
// RFM command and refreshes its victims — every RFM executes a refresh
// (no adaptive skip), which is where its energy overhead comes from.
type PARFM struct {
	mc.NoProtection
	opt    Options
	rfmTH  int
	recent [][]uint32 // per global bank: ring of the last RFMTH ACT'd rows
	pos    []int      // per global bank: ring write position
	vbuf   []uint32   // reusable victim buffer (mc.Scheme contract)
	rng    *streaming.Rand
}

var _ mc.Scheme = (*PARFM)(nil)

// NewPARFM configures PARFM with the RFMTH required for a 1e-15 system
// failure probability at the option's FlipTH (Appendix C).
func NewPARFM(opt Options) *PARFM {
	opt.normalize()
	rfmTH := opt.RFMTH
	if rfmTH <= 0 {
		r, ok := analysis.ParfmRequiredRFMTH(opt.Timing, opt.FlipTH, analysis.DefaultAttackableBanks, 1e-15)
		if !ok {
			r = 1
		}
		rfmTH = r
	}
	return &PARFM{
		opt:    opt,
		rfmTH:  rfmTH,
		recent: make([][]uint32, opt.banks()),
		pos:    make([]int, opt.banks()),
		rng:    streaming.NewRand(opt.Seed + 1),
	}
}

// Name implements mc.Scheme.
func (s *PARFM) Name() string { return "parfm" }

// RFMCompatible implements mc.Scheme.
func (s *PARFM) RFMCompatible() bool { return true }

// RFMTH implements mc.Scheme.
func (s *PARFM) RFMTH() int { return s.rfmTH }

// OnActivate implements mc.Scheme: record the row in the bank's ring.
//
//mithril:hotpath
func (s *PARFM) OnActivate(bank int, row uint32, core int, now timing.PicoSeconds) []uint32 {
	ring := s.recent[bank]
	if ring == nil {
		ring = make([]uint32, 0, s.rfmTH) //mithril:allow hotpathalloc one-time lazy ring construction on a bank's first ACT
	}
	if len(ring) < s.rfmTH {
		ring = append(ring, row)
	} else {
		ring[s.pos[bank]%s.rfmTH] = row
	}
	s.pos[bank]++
	s.recent[bank] = ring
	return nil
}

// OnRFM implements mc.Scheme: sample one of the last RFMTH ACTs.
//
//mithril:hotpath
func (s *PARFM) OnRFM(bank int, now timing.PicoSeconds) []uint32 {
	ring := s.recent[bank]
	if len(ring) == 0 {
		return nil
	}
	aggressor := ring[s.rng.Intn(len(ring))]
	s.vbuf = appendVictims(s.vbuf, aggressor, s.opt.BlastRadius)
	return s.vbuf
}
