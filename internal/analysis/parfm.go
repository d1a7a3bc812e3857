package analysis

import (
	"math"
	"sync"

	"mithril/internal/timing"
)

// PARFM failure-probability model (Appendix C of the paper).
//
// PARFM samples one aggressor uniformly among the last RFMTH activations at
// every RFM command. The attacker's most cost-effective pattern activates
// RFMTH distinct rows once per RFM interval (equation (5) is monotonically
// decreasing in per-interval ACTs j), so each target row gains one ACT per
// interval and survives selection with probability (1 − 1/RFMTH) per RFM.

// ParfmSingleRowFailure evaluates Fail(1): the probability that one specific
// row reaches FlipTH/2 un-refreshed ACTs within a tREFW window, using the
// recurrence
//
//	P[i] = P[i−1] + (j/R)·(1 − j/R)^{rounds}·(1 − P[i − rounds − 1])
//
// where the attacker activates the row j times per RFM interval. The paper
// evaluates j = 1 (the most cost-effective pattern per equation (5)); when
// the window holds fewer intervals than FlipTH/2 — which happens on
// time-compressed parameter sets — the attacker is forced to j =
// ⌈(FlipTH/2)/intervals⌉ to reach the threshold at all, and the recurrence
// generalizes accordingly (rounds = ⌈(FlipTH/2)/j⌉ intervals survived with
// per-RFM selection probability j/R).
func ParfmSingleRowFailure(p timing.Params, flipTH, rfmTH int) float64 {
	if flipTH <= 1 || rfmTH <= 0 {
		return 1
	}
	half := flipTH / 2
	intervals := p.ACTsPerREFW() / rfmTH // RFM commands per tREFW
	if intervals < 1 {
		return 0
	}
	j := 1
	if intervals < half {
		j = (half + intervals - 1) / intervals
	}
	if j > rfmTH {
		return 0 // cannot fit FlipTH/2 ACTs into the window at all
	}
	rounds := (half + j - 1) / j
	if intervals < rounds {
		return 0
	}
	r := float64(rfmTH)
	sel := float64(j) / r
	surv := math.Pow(1-sel, float64(rounds))
	pPrev := make([]float64, intervals+1)
	for i := rounds; i <= intervals; i++ {
		if i == rounds {
			pPrev[i] = surv
			continue
		}
		back := i - rounds - 1
		var pBack float64
		if back >= 0 {
			pBack = pPrev[back]
		}
		pPrev[i] = pPrev[i-1] + sel*surv*(1-pBack)
		if pPrev[i] > 1 {
			pPrev[i] = 1
		}
	}
	return pPrev[intervals]
}

// ParfmBankFailure upper-bounds the per-bank failure probability by the
// first inclusion–exclusion term, RFMTH·Fail(1), as the paper argues the
// higher terms are negligible for FlipTH ≥ 1K.
func ParfmBankFailure(p timing.Params, flipTH, rfmTH int) float64 {
	f := float64(rfmTH) * ParfmSingleRowFailure(p, flipTH, rfmTH)
	if f > 1 {
		return 1
	}
	return f
}

// ParfmSystemFailure converts a bank failure probability into the system
// failure probability for nBanks simultaneously attackable banks:
// 1 − (1 − Fail)^nBanks. The paper uses 22 banks (the tFAW-limited count
// for 2 ranks × 32 banks).
func ParfmSystemFailure(p timing.Params, flipTH, rfmTH, nBanks int) float64 {
	bank := ParfmBankFailure(p, flipTH, rfmTH)
	// For tiny probabilities 1−(1−x)^n loses precision; use the exact
	// expm1/log1p formulation.
	return -math.Expm1(float64(nBanks) * math.Log1p(-bank))
}

// DefaultAttackableBanks is the number of banks that can be activated
// simultaneously under tFAW in the paper's 2-rank system (Section IX-C).
const DefaultAttackableBanks = 22

// ParfmRequiredRFMTH returns the largest RFMTH (searched over
// parfmCandidates, descending) whose system failure probability stays at or
// below target (typically 1e-15) for the given FlipTH. ok is false when even
// RFMTH = 1 misses the target.
//
// Answers are memoized per process: every PARFM scheme construction asks
// the same question, and each answer costs one failure-probability
// recurrence per candidate.
func ParfmRequiredRFMTH(p timing.Params, flipTH, nBanks int, target float64) (rfmTH int, ok bool) {
	key := parfmQuery{p, flipTH, nBanks, target}
	parfmMemo.Lock()
	defer parfmMemo.Unlock()
	if r, hit := parfmMemo.answers[key]; hit {
		return r, r > 0
	}
	if len(parfmMemo.answers) >= parfmMemoLimit {
		clear(parfmMemo.answers)
	}
	for _, r := range parfmCandidates {
		if ParfmSystemFailure(p, flipTH, r, nBanks) <= target {
			rfmTH = r
			break
		}
	}
	parfmMemo.answers[key] = rfmTH
	return rfmTH, rfmTH > 0
}

// parfmCandidates is ParfmRequiredRFMTH's search list, descending, so the
// first candidate that meets the target is the largest.
var parfmCandidates = []int{256, 224, 192, 160, 128, 96, 80, 64, 48, 32, 24, 16, 12, 8, 6, 4, 2, 1}

type parfmQuery struct {
	p              timing.Params
	flipTH, nBanks int
	target         float64
}

// parfmMemoLimit bounds the memo in a long-lived server, where the FlipTH
// and timing of each query come from requests.
const parfmMemoLimit = 1024

// parfmMemo maps a query to its RFMTH, 0 when no candidate meets the target.
var parfmMemo = struct {
	sync.Mutex
	answers map[parfmQuery]int
}{answers: make(map[parfmQuery]int)}

// ParfmCostEffectiveness is equation (5): the attacker's per-ACT value of
// activating a row j times per RFM interval. It decreases monotonically in
// j, which is why one-ACT-per-interval is the worst case.
//
//mithril:allow testonly the paper's equation (5), kept beside the sampler it motivates; its test checks the monotonicity claim
func ParfmCostEffectiveness(rfmTH, j int) float64 {
	if j <= 0 || j > rfmTH {
		return 0
	}
	return math.Pow(1-float64(j)/float64(rfmTH), 1/float64(j))
}
