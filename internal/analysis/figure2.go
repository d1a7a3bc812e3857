package analysis

import "mithril/internal/timing"

// Figure 2 model: why reactive ARR-style thresholds are incompatible with
// the RFM interface (Section III-A).
//
// ARR-Graphene triggers an immediate adjacent-row refresh when a row's
// estimated count reaches the predefined threshold T, so the guaranteed-safe
// FlipTH grows linearly with T. The calibration constant follows the paper's
// worked example (T = 2K protects FlipTH = 10K): a factor 2 for the
// double-sided attack, a factor 2 for the periodic table reset, and one
// extra T of CbS estimation slack — FlipTH_safe = (2·2 + 1)·T = 5T.
//
// RFM-Graphene must postpone the refresh to the next RFM slot. When many
// rows cross T in a short period, the last buffered row waits through
// ⌈S/T⌉·RFMTH further activations (S = ACTs per tREFW): with T = 2K and
// RFMTH = 64, 310-ish rows each wait up to 310·64 ≈ 20K ACTs, so no choice
// of T can protect a low FlipTH — the curve has a floor that rises with
// RFMTH, which is exactly the paper's incompatibility argument.

// ARRGrapheneSafeFlipTH returns the FlipTH protected by reactive
// ARR-Graphene at predefined threshold t.
func ARRGrapheneSafeFlipTH(t int) float64 {
	if t <= 0 {
		return 0
	}
	return 5 * float64(t)
}

// RFMGrapheneSafeFlipTH returns the FlipTH protected when the same reactive
// scheme is retrofitted onto the RFM interface with threshold rfmTH.
func RFMGrapheneSafeFlipTH(p timing.Params, t, rfmTH int) float64 {
	if t <= 0 || rfmTH <= 0 {
		return 0
	}
	s := p.ACTsPerREFW()
	rowsCrossing := (s + t - 1) / t // rows that can reach T within tREFW
	wait := float64(rowsCrossing) * float64(rfmTH)
	// The retrofit inherits the native scheme's threshold-linear term and
	// adds the buffered-row wait: victims keep accumulating ACTs while the
	// refresh sits in the RFM queue behind the other crossing rows.
	return ARRGrapheneSafeFlipTH(t) + wait
}

// Figure2Point is one x-coordinate of the Figure 2 curves.
type Figure2Point struct {
	Threshold int             // predefined threshold T (x axis)
	ARR       float64         // ARR-Graphene safe FlipTH
	RFM       map[int]float64 // RFMTH -> RFM-Graphene safe FlipTH
}

// Figure2Curve evaluates both models over thresholds for each RFMTH in
// rfmTHs, producing the data behind Figure 2.
func Figure2Curve(p timing.Params, thresholds, rfmTHs []int) []Figure2Point {
	out := make([]Figure2Point, 0, len(thresholds))
	for _, t := range thresholds {
		pt := Figure2Point{Threshold: t, ARR: ARRGrapheneSafeFlipTH(t), RFM: make(map[int]float64, len(rfmTHs))}
		for _, r := range rfmTHs {
			pt.RFM[r] = RFMGrapheneSafeFlipTH(p, t, r)
		}
		out = append(out, pt)
	}
	return out
}

// RFMGrapheneFloor reports the minimum safe FlipTH achievable by
// RFM-Graphene over a threshold sweep — the "limit ... regardless of how low
// the predefined threshold is set" of Section III-A.
//
//mithril:allow testonly Section III-A's floor claim; its test checks it against the Figure 2 sweep
func RFMGrapheneFloor(p timing.Params, rfmTH int, thresholds []int) float64 {
	best := 0.0
	for i, t := range thresholds {
		v := RFMGrapheneSafeFlipTH(p, t, rfmTH)
		if i == 0 || v < best {
			best = v
		}
	}
	return best
}
