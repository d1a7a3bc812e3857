package mitigation

import (
	"mithril/internal/mc"
	"mithril/internal/timing"
)

// CBT (Seyedzadeh et al.): the grouped-counter tree. Each bank owns a small
// set of counters, each covering a contiguous row range. A counter that
// crosses a split threshold divides its range in two (children inherit the
// parent count, conservatively) until the node budget is exhausted; a
// counter that crosses the refresh threshold (FlipTH/4) refreshes its whole
// group — rows inside the range plus the boundary neighbours — and resets.
//
// Section III-D's incompatibility argument shows up directly: group
// refreshes of wide ranges stack far more rows than a tRFM window could
// absorb, which is why CBT stays ARR-based here.
type CBT struct {
	mc.NoProtection
	opt       Options
	maxNodes  int
	refreshTH uint64
	splitTH   uint64
	banks     [][]cbtNode // per global bank, seeded with one full-range node on first ACT
	vbuf      []uint32    // reusable victim buffer (mc.Scheme contract)
	groupRefs uint64      // group refreshes executed
	rowsRefd  uint64      // total rows refreshed
}

type cbtNode struct {
	lo, hi int // row range [lo, hi)
	count  uint64
}

var _ mc.Scheme = (*CBT)(nil)

// NewCBT sizes the tree per the area model: ≈ 9·S/FlipTH nodes per bank,
// split threshold at half the refresh threshold.
func NewCBT(opt Options) *CBT {
	opt.normalize()
	s := opt.Timing.ACTsPerREFW()
	n := 9 * s / opt.FlipTH
	if n < 4 {
		n = 4
	}
	refreshTH := uint64(opt.FlipTH / 4)
	if refreshTH == 0 {
		refreshTH = 1
	}
	return &CBT{
		opt:       opt,
		maxNodes:  n,
		refreshTH: refreshTH,
		splitTH:   refreshTH / 2,
		banks:     make([][]cbtNode, opt.banks()),
	}
}

// Name implements mc.Scheme.
func (s *CBT) Name() string { return "cbt" }

// OnActivate implements mc.Scheme.
//
//mithril:hotpath
func (s *CBT) OnActivate(bank int, row uint32, core int, now timing.PicoSeconds) []uint32 {
	nodes := s.banks[bank]
	if nodes == nil {
		nodes = []cbtNode{{lo: 0, hi: s.opt.Timing.Rows}} //mithril:allow hotpathalloc one-time lazy seed on a bank's first ACT
	}
	idx := -1
	for i := range nodes {
		if int(row) >= nodes[i].lo && int(row) < nodes[i].hi {
			idx = i
			break
		}
	}
	if idx < 0 { // should not happen: ranges partition the bank
		nodes = append(nodes, cbtNode{lo: 0, hi: s.opt.Timing.Rows})
		idx = len(nodes) - 1
	}
	nodes[idx].count++
	// Split phase: divide hot ranges while budget remains.
	if nodes[idx].count >= s.splitTH && len(nodes) < s.maxNodes && nodes[idx].hi-nodes[idx].lo > 1 {
		n := nodes[idx]
		mid := (n.lo + n.hi) / 2
		// Children inherit the parent's count (conservative).
		nodes[idx] = cbtNode{lo: n.lo, hi: mid, count: n.count}
		nodes = append(nodes, cbtNode{lo: mid, hi: n.hi, count: n.count})
		// Re-locate the row after the split.
		if int(row) >= mid {
			idx = len(nodes) - 1
		}
	}
	var victimRows []uint32
	if nodes[idx].count >= s.refreshTH {
		n := nodes[idx]
		victimRows = s.vbuf[:0]
		for r := n.lo - s.opt.BlastRadius; r < n.hi+s.opt.BlastRadius; r++ {
			if r >= 0 && r < s.opt.Timing.Rows {
				victimRows = append(victimRows, uint32(r))
			}
		}
		s.vbuf = victimRows
		nodes[idx].count = 0
		s.groupRefs++
		s.rowsRefd += uint64(len(victimRows))
	}
	s.banks[bank] = nodes
	return victimRows
}
