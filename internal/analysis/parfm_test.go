package analysis

import (
	"math"
	"testing"

	"mithril/internal/timing"
)

func TestParfmSingleRowFailureDecreasesWithSmallerRFMTH(t *testing.T) {
	p := timing.DDR5()
	f64 := ParfmSingleRowFailure(p, 3125, 64)
	f16 := ParfmSingleRowFailure(p, 3125, 16)
	if !(f16 < f64) {
		t.Fatalf("more frequent sampling must reduce failure: f(16)=%g ≥ f(64)=%g", f16, f64)
	}
}

func TestParfmSingleRowFailureIncreasesAtLowerFlipTH(t *testing.T) {
	p := timing.DDR5()
	hi := ParfmSingleRowFailure(p, 50000, 64)
	lo := ParfmSingleRowFailure(p, 3125, 64)
	if !(hi < lo) {
		t.Fatalf("lower FlipTH must fail more often: f(50K)=%g ≥ f(3.125K)=%g", hi, lo)
	}
}

func TestParfmProbabilitiesAreProbabilities(t *testing.T) {
	p := timing.DDR5()
	for _, flipTH := range StandardFlipTHs {
		for _, r := range []int{16, 64, 256} {
			v := ParfmSingleRowFailure(p, flipTH, r)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Errorf("Fail(1)(%d, %d) = %v out of [0,1]", flipTH, r, v)
			}
			sys := ParfmSystemFailure(p, flipTH, r, DefaultAttackableBanks)
			if sys < 0 || sys > 1 || math.IsNaN(sys) {
				t.Errorf("system failure (%d, %d) = %v out of [0,1]", flipTH, r, sys)
			}
			if sys+1e-18 < ParfmBankFailure(p, flipTH, r) && DefaultAttackableBanks > 1 {
				t.Errorf("system failure should be ≥ bank failure")
			}
		}
	}
}

func TestParfmDegenerateInputs(t *testing.T) {
	p := timing.DDR5()
	if got := ParfmSingleRowFailure(p, 0, 64); got != 1 {
		t.Errorf("FlipTH=0 should be certain failure, got %v", got)
	}
	if got := ParfmSingleRowFailure(p, 3125, 0); got != 1 {
		t.Errorf("RFMTH=0 should be certain failure, got %v", got)
	}
	// Gigantic FlipTH: window too short to accumulate FlipTH/2 ACTs.
	if got := ParfmSingleRowFailure(p, 1<<30, 64); got != 0 {
		t.Errorf("unreachable FlipTH should be zero failure, got %v", got)
	}
}

func TestParfmRequiredRFMTHMeetsTarget(t *testing.T) {
	p := timing.DDR5()
	for _, flipTH := range []int{50000, 6250, 1500} {
		r, ok := ParfmRequiredRFMTH(p, flipTH, DefaultAttackableBanks, 1e-15)
		if !ok {
			t.Fatalf("no RFMTH meets 1e-15 at FlipTH=%d", flipTH)
		}
		if got := ParfmSystemFailure(p, flipTH, r, DefaultAttackableBanks); got > 1e-15 {
			t.Fatalf("returned RFMTH=%d violates target: %g", r, got)
		}
	}
	// The paper's argument: PARFM needs a smaller RFMTH as FlipTH drops.
	rHi, _ := ParfmRequiredRFMTH(p, 50000, DefaultAttackableBanks, 1e-15)
	rLo, _ := ParfmRequiredRFMTH(p, 1500, DefaultAttackableBanks, 1e-15)
	if !(rLo < rHi) {
		t.Fatalf("required RFMTH should shrink with FlipTH: r(1.5K)=%d ≥ r(50K)=%d", rLo, rHi)
	}
}

func TestParfmCostEffectivenessMonotone(t *testing.T) {
	// Equation (5) decreases in j: one ACT per interval is the attacker's
	// best strategy.
	prev := math.Inf(1)
	for j := 1; j <= 64; j++ {
		v := ParfmCostEffectiveness(64, j)
		if v >= prev {
			t.Fatalf("cost-effectiveness should decrease: j=%d gives %v after %v", j, v, prev)
		}
		prev = v
	}
	if ParfmCostEffectiveness(64, 0) != 0 || ParfmCostEffectiveness(64, 65) != 0 {
		t.Error("out-of-range j should report 0")
	}
}

func TestParfmScaledWindowForcesLowerRFMTH(t *testing.T) {
	// On a time-compressed parameter set (tREFW/8), the j>1 generalization
	// must keep PARFM honest: large RFMTH values cannot remain "safe" just
	// because j=1 no longer fits the window.
	p := timing.DDR5()
	p.TREFW /= 8
	p.RefreshGroups /= 8
	rScaled, ok := ParfmRequiredRFMTH(p, 1500, DefaultAttackableBanks, 1e-15)
	if !ok {
		t.Fatal("no RFMTH meets the target on the scaled window")
	}
	if rScaled >= 256 {
		t.Fatalf("scaled window should not trivially pass RFMTH=%d", rScaled)
	}
	if got := ParfmSystemFailure(p, 1500, rScaled, DefaultAttackableBanks); got > 1e-15 {
		t.Fatalf("returned RFMTH=%d violates target: %g", rScaled, got)
	}
}
