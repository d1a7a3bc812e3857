package mitigation

import (
	"fmt"

	"mithril/internal/analysis"
	"mithril/internal/mc"
	"mithril/internal/streaming"
	"mithril/internal/timing"
)

// BlockHammer (Yağlıkçı et al., HPCA 2021): dual time-interleaved counting
// Bloom filters per bank estimate per-row ACT counts; rows whose estimate
// reaches the blacklist threshold NBL are throttled so their ACT rate can
// never reach FlipTH within tCBF:
//
//	tDelay = (tCBF − NBL·tRC) / (FlipTH − NBL)
//
// A thread-level escalation (RowBlocker-style) additionally throttles cores
// that keep hammering blacklisted rows. Because the filters alias, an
// attacker who activates rows sharing CBF slots with a benign hot row can
// blacklist the *benign* row — the Figure 10(c) performance attack, exposed
// here through the CollidingRows oracle. It issues no RFM commands; the
// paper groups it with the interface-compatible schemes because it needs
// no DRAM change at all.
type BlockHammer struct {
	mc.NoProtection
	opt    Options
	nbl    uint64
	tDelay timing.PicoSeconds
	// Per-bank dense state: filters are built on a bank's first ACT;
	// nextACT[bank] is a per-row release-time array allocated on the
	// bank's first blacklist event (only hammered banks pay for it),
	// replacing the former (bank,row) composite-key map on the hot path.
	filters  []*streaming.DualCBF
	nextACT  [][]timing.PicoSeconds
	coreBad  []int                // per core: blacklisted-ACT attempts (grown on demand)
	coreTill []timing.PicoSeconds // per core: thread throttle release

	cbfCounters int
	cbfHashes   int
}

var _ mc.Scheme = (*BlockHammer)(nil)

// blockHammerThreadThreshold is the number of blacklisted-row activation
// attempts after which a core is treated as an attacker thread.
const blockHammerThreadThreshold = 64

// NewBlockHammer configures the scheme from the paper's per-FlipTH
// (CBF size, NBL) pairs (Section VI-A). The delay denominator uses
// FlipTH/2 − NBL: a double-sided victim absorbs disturbance from two
// aggressors, so each blacklisted row must stay below FlipTH/2 ACTs per
// tCBF window (the paper notes NBL must be lower than FlipTH/2 for exactly
// this reason).
func NewBlockHammer(opt Options) *BlockHammer {
	opt.normalize()
	counters, nbl := analysis.BlockHammerConfigFor(opt.FlipTH)
	if nbl > streaming.CBFMaxCount {
		// The filters' counters saturate there; only thresholds at or
		// below it get the exact-count blacklist decision.
		panic(fmt.Sprintf("mitigation: BlockHammer NBL %d at FlipTH %d exceeds the filter counters' saturation point %d", nbl, opt.FlipTH, streaming.CBFMaxCount))
	}
	tCBF := opt.Timing.TREFW
	den := opt.FlipTH/2 - nbl
	if den < 1 {
		den = 1
	}
	delay := (tCBF - timing.PicoSeconds(nbl)*opt.Timing.TRC) / timing.PicoSeconds(den)
	if delay < 0 {
		delay = 0
	}
	return &BlockHammer{
		opt:         opt,
		nbl:         uint64(nbl),
		tDelay:      delay,
		filters:     make([]*streaming.DualCBF, opt.banks()),
		nextACT:     make([][]timing.PicoSeconds, opt.banks()),
		cbfCounters: counters,
		cbfHashes:   4,
	}
}

// Name implements mc.Scheme.
func (s *BlockHammer) Name() string { return "blockhammer" }

//mithril:hotpath
func (s *BlockHammer) filter(bank int) *streaming.DualCBF {
	f := s.filters[bank]
	if f == nil {
		// Half-epoch tCBF/2 expressed in per-bank ACT capacity.
		half := s.opt.Timing.ACTsPerREFW() / 2
		if half < 1 {
			half = 1
		}
		f = streaming.NewDualCBF(s.cbfHashes, s.cbfCounters, half) //mithril:allow hotpathalloc one-time lazy construction on a bank's first ACT
		s.filters[bank] = f
	}
	return f
}

// OnActivate implements mc.Scheme: feed the filters, arm the row throttle
// when the estimate crosses NBL, and escalate repeat-offender threads.
//
//mithril:hotpath
func (s *BlockHammer) OnActivate(bank int, row uint32, core int, now timing.PicoSeconds) []uint32 {
	if s.filter(bank).ObserveEstimate(row) >= s.nbl {
		na := s.nextACT[bank]
		if na == nil {
			na = make([]timing.PicoSeconds, s.opt.Timing.Rows) //mithril:allow hotpathalloc one-time per-bank array on the first blacklist event
			s.nextACT[bank] = na
		}
		na[row] = now + s.tDelay
		for core >= len(s.coreBad) {
			s.coreBad = append(s.coreBad, 0)
			s.coreTill = append(s.coreTill, 0)
		}
		s.coreBad[core]++
		if s.coreBad[core] >= blockHammerThreadThreshold {
			s.coreTill[core] = now + s.tDelay
		}
	}
	return nil
}

// PreACTDelay implements mc.Scheme: blacklisted rows (and escalated
// threads) wait out their release times.
//
//mithril:hotpath
func (s *BlockHammer) PreACTDelay(bank int, row uint32, core int, now timing.PicoSeconds) timing.PicoSeconds {
	var until timing.PicoSeconds
	if na := s.nextACT[bank]; na != nil {
		until = na[row]
	}
	if core < len(s.coreTill) {
		if t := s.coreTill[core]; t > until {
			until = t
		}
	}
	if until > now {
		return until
	}
	return 0
}

// CollidingRows implements the attack.Throttler oracle: for each of the
// target row's hash slots, find another row of the bank hashing to the same
// slot in that filter row. Activating the returned rows NBL times inflates
// every slot of the target, blacklisting it without touching it. Every
// bank's filters hash alike, so the answer is the same for every bank.
func (s *BlockHammer) CollidingRows(_ int, target uint32, max int) []uint32 {
	rows := make([]uint32, 0, max)
	// Reconstruct slot indices with the same hashing the sketch uses.
	for h := 0; h < s.cbfHashes && len(rows) < max; h++ {
		slot := streaming.SlotIndex(target, h, s.cbfCounters)
		for candidate := uint32(0); candidate < uint32(s.opt.Timing.Rows); candidate++ {
			if candidate == target || absDiff(candidate, target) <= uint32(s.opt.BlastRadius) {
				continue // don't hand the attacker rows that hammer the target directly
			}
			if streaming.SlotIndex(candidate, h, s.cbfCounters) == slot {
				rows = append(rows, candidate)
				break
			}
		}
	}
	return rows
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}
