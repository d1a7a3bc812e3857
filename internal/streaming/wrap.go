package streaming

// Wrapping counters (Section IV-E of the paper): Mithril never needs the
// absolute estimated count, only the relative order of table entries, and
// the spread Max−Min is bounded by M (Theorem 1). Counters of B bits
// therefore remain totally ordered under modular arithmetic as long as
// 2^(B-1) exceeds the maximum spread, removing the periodic table reset
// (and its two-fold threshold degradation) that Graphene pays for. The
// claim is tested in wrapped_test.go, where a 16-bit wrapping table is held
// to the unbounded reference past counter wraparound.

// WrapCounterBits returns the number of counter bits required to keep a
// wrapping counter totally ordered for a maximum spread: the smallest B with
// 2^(B-1) > spread. This sizes the Mithril count-CAM entries (Table IV).
func WrapCounterBits(maxSpread uint64) int {
	bits := 1
	for (uint64(1) << uint(bits-1)) <= maxSpread {
		bits++
	}
	return bits
}
