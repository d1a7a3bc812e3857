package streaming

import "fmt"

// LossyCounting implements the Manku–Motwani lossy counting algorithm, the
// tracking mechanism underlying TWiCe. The stream is divided into buckets of
// width W; each tracked key stores its observed frequency f and the maximum
// possible undercount Δ (the bucket id at insertion). At bucket boundaries,
// entries with f + Δ ≤ current bucket id are pruned.
//
// Like CbS it provides both bounds needed for deterministic RH protection —
// true ≤ f + Δ and f ≤ true — but it is algorithmically less efficient: the
// live table can grow to several times 1/ε entries and the Δ slack inflates
// the bound used for greedy RFM selection (see analysis.LossyBoundM and the
// dotted lines of Figure 6).
type LossyCounting struct {
	width   int // bucket width W = ⌈1/ε⌉
	current int // current bucket id
	seen    int // items observed in the current bucket
	table   map[uint32]*lossyEntry
}

type lossyEntry struct {
	f     uint64
	delta uint64
}

// NewLossyCounting returns a lossy counter with error bound ε = 1/width.
func NewLossyCounting(width int) *LossyCounting {
	if width <= 0 {
		panic(fmt.Sprintf("streaming: LossyCounting width must be positive, got %d", width))
	}
	return &LossyCounting{width: width, current: 1, table: make(map[uint32]*lossyEntry)}
}

// Observe records one occurrence of key.
//
//mithril:hotpath
func (l *LossyCounting) Observe(key uint32) {
	if e, ok := l.table[key]; ok {
		e.f++
	} else {
		l.table[key] = &lossyEntry{f: 1, delta: uint64(l.current - 1)} //mithril:allow hotpathalloc heap-backed table is TWiCe's modeled inefficiency, not a simulator defect
	}
	l.seen++
	if l.seen == l.width {
		l.prune()
		l.seen = 0
		l.current++
	}
}

//mithril:hotpath
func (l *LossyCounting) prune() {
	for key, e := range l.table {
		if e.f+e.delta <= uint64(l.current) {
			delete(l.table, key)
		}
	}
}

// Estimate reports the conservative upper bound f + Δ for on-table keys and
// the maximum undercount (current bucket id − 1) otherwise, mirroring how a
// deterministic RH scheme must treat untracked rows.
//
//mithril:hotpath
func (l *LossyCounting) Estimate(key uint32) uint64 {
	if e, ok := l.table[key]; ok {
		return e.f + e.delta
	}
	return uint64(l.current - 1)
}

// Drop removes a key (TWiCe prunes a row after its victims are refreshed).
//
//mithril:hotpath
func (l *LossyCounting) Drop(key uint32) { delete(l.table, key) }

// Reset clears the tracker.
func (l *LossyCounting) Reset() {
	l.table = make(map[uint32]*lossyEntry)
	l.current = 1
	l.seen = 0
}
