// Package streaming implements the frequent-items streaming algorithms that
// RowHammer trackers are built from (Section II-C.4 and III of the Mithril
// paper):
//
//   - Counter-based Summary (CbS, a.k.a. Misra–Gries / Space-Saving): the
//     tracking mechanism of Graphene and Mithril. SpaceSaving, an
//     O(1)-per-update bucketed Stream-Summary, is the one implementation.
//     The tests hold it to two references that live only in _test.go
//     files: the obviously-correct scan CbS (cbs_ref_test.go) and a
//     map-based Stream-Summary that pins tie order
//     (spacesaving_ref_test.go).
//   - Lossy Counting (Manku–Motwani): the tracking mechanism of TWiCe.
//   - Dual interleaved Counting Bloom Filters, each a count-min sketch of
//     saturating 16-bit counters: the tracking mechanism of BlockHammer.
//
// CbS maintains, for every key, the two bounds the Mithril proof relies on:
//
//	(1) actual ≤ estimated            (lower bound on safety)
//	(2) estimated ≤ actual + Min      (upper bound enabling greedy decrement)
//
// where Min is the minimum counter in the table. Both are enforced by tests
// in cbs_test.go, including under the RFM-style DecrementMaxToMin operation.
// wrapped_test.go checks the Section IV-E claim that 16-bit wrapping
// counters order the table exactly like unbounded ones; WrapCounterBits
// sizes those counters.
package streaming
