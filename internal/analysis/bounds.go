// Package analysis implements the closed-form mathematics of the Mithril
// paper: the Theorem 1 bound M and Theorem 2 bound M′ on estimated-count
// growth, the (Nentry, RFMTH) configuration search behind Figure 6, the
// PARFM failure-probability recurrence of Appendix C, the ARR-vs-RFM
// Graphene incompatibility model of Figure 2, and the per-scheme counter
// table area models of Table IV.
package analysis

import (
	"fmt"
	"math"

	"mithril/internal/streaming"
	"mithril/internal/timing"
)

// Harmonic returns the n-th harmonic number H_n = Σ_{k=1..n} 1/k.
func Harmonic(n int) float64 {
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	return h
}

// BoundM computes Theorem 1's bound M on the increase of any single row's
// estimated count within one tREFW:
//
//	M = Σ_{k=1..N} RFMTH/k + (RFMTH/N)·(W − 2)
//
// where W is the maximum number of RFM intervals per tREFW. Mithril is safe
// against double-sided RowHammer when M < FlipTH/2.
func BoundM(p timing.Params, nEntry, rfmTH int) float64 {
	if nEntry <= 0 || rfmTH <= 0 {
		return math.Inf(1)
	}
	return boundM(p.RFMIntervalsPerREFW(rfmTH), nEntry, rfmTH, Harmonic(nEntry))
}

// boundM is BoundM from W and h = H_N.
func boundM(w, nEntry, rfmTH int, h float64) float64 {
	return float64(rfmTH)*h + float64(rfmTH)*float64(w-2)/float64(nEntry)
}

// BoundMPrime computes Theorem 2's bound M′ when the adaptive refresh policy
// (threshold AdTH) is enabled:
//
//	M′ = Σ_{k=1..n*} RFMTH/k + ((W − n* + N − 2)·RFMTH + (N − n*)·AdTH)/N
//	n* = ⌈N·RFMTH / (RFMTH + AdTH)⌉
//
// With AdTH = 0 it reduces exactly to BoundM.
func BoundMPrime(p timing.Params, nEntry, rfmTH, adTH int) float64 {
	if nEntry <= 0 || rfmTH <= 0 || adTH < 0 {
		return math.Inf(1)
	}
	return boundMPrime(p.RFMIntervalsPerREFW(rfmTH), nEntry, rfmTH, adTH, Harmonic(nStar(nEntry, rfmTH, adTH)))
}

// nStar is Theorem 2's n*, clamped to [1, N]; it is N when AdTH is 0, and
// it grows by at most 1 when N does.
func nStar(nEntry, rfmTH, adTH int) int {
	n := (nEntry*rfmTH + rfmTH + adTH - 1) / (rfmTH + adTH) // ceil
	return max(1, min(n, nEntry))
}

// boundMPrime is BoundMPrime from W and h = H_{n*}.
func boundMPrime(w, nEntry, rfmTH, adTH int, h float64) float64 {
	if adTH == 0 {
		return boundM(w, nEntry, rfmTH, h)
	}
	ns := nStar(nEntry, rfmTH, adTH)
	tail := (float64(w-ns+nEntry-2)*float64(rfmTH) + float64(nEntry-ns)*float64(adTH)) / float64(nEntry)
	return float64(rfmTH)*h + tail
}

// DoubleSidedBlast is the aggregated RH effect of a double-sided attack
// (range 1): safety requires M < FlipTH/2.
const DoubleSidedBlast = 2.0

// NonAdjacentBlast is the aggregated RH effect within range 3 reported by
// BlockHammer and adopted in Section V-C: M < FlipTH/3.5, with six victim
// rows refreshed per preventive refresh.
const NonAdjacentBlast = 3.5

// MinNEntry returns the smallest table size N such that the (adaptive)
// bound stays below FlipTH/blast for the given RFMTH. ok is false when no
// N achieves it (the bound's harmonic term eventually grows with N, so
// feasibility is decidable by scanning up to N ≈ W). The scan is O(W): the
// harmonic sum H_{n*} is carried from one N to the next, adding 1/k in
// Harmonic's order, so every bound it compares equals BoundMPrime's bit
// for bit.
func MinNEntry(p timing.Params, flipTH, rfmTH, adTH int, blast float64) (n int, ok bool) {
	if flipTH <= 0 || rfmTH <= 0 || adTH < 0 || blast <= 0 {
		return 0, false
	}
	target := float64(flipTH) / blast
	w := p.RFMIntervalsPerREFW(rfmTH)
	limit := w + 16 // M is increasing in N beyond N ≈ W−2
	h, k := 0.0, 0  // h = H_k
	for n := 1; n <= limit; n++ {
		for ns := nStar(n, rfmTH, adTH); k < ns; {
			k++
			h += 1 / float64(k)
		}
		if boundMPrime(w, n, rfmTH, adTH, h) < target {
			return n, true
		}
	}
	return 0, false
}

// LossyBoundM is the analogue of BoundM for a greedy RFM scheme built on
// Lossy Counting instead of CbS (the dotted lines of Figure 6).
//
// Derivation (substitution documented in DESIGN.md §3): Lossy Counting has
// the lower bound f ≤ true but its upper bound carries the per-entry slack
// Δ ≤ S/N (S = ACTs per tREFW, N = table entries ≈ 1/ε). After the greedy
// preventive refresh, the selected entry's estimate can only be safely
// lowered to f − Δ ≥ estimate − S/N, so every tREFW window leaks an extra
// S/N of bound growth compared to CbS:
//
//	M_LC = M_CbS + S/N
func LossyBoundM(p timing.Params, nEntry, rfmTH int) float64 {
	if nEntry <= 0 || rfmTH <= 0 {
		return math.Inf(1)
	}
	s := float64(p.ACTsPerREFW())
	return BoundM(p, nEntry, rfmTH) + s/float64(nEntry)
}

// MinNEntryLossy is MinNEntry for the Lossy-Counting variant, with the
// same O(W) running harmonic sum.
func MinNEntryLossy(p timing.Params, flipTH, rfmTH int, blast float64) (n int, ok bool) {
	if flipTH <= 0 || rfmTH <= 0 || blast <= 0 {
		return 0, false
	}
	target := float64(flipTH) / blast
	w := p.RFMIntervalsPerREFW(rfmTH)
	s := float64(p.ACTsPerREFW())
	limit := 4*w + 64
	h := 0.0 // H_n
	for n := 1; n <= limit; n++ {
		h += 1 / float64(n)
		if boundM(w, n, rfmTH, h)+s/float64(n) < target {
			return n, true
		}
	}
	return 0, false
}

// Config is one feasible Mithril operating point.
type Config struct {
	FlipTH int
	RFMTH  int
	NEntry int
	AdTH   int
	// M is the Theorem 1/2 bound achieved by this configuration.
	M float64
	// TableKB is the per-bank counter table size in kilobytes.
	TableKB float64
	// CounterBits is the wrapping-counter width (Section IV-E).
	CounterBits int
}

// String renders the configuration compactly for reports.
func (c Config) String() string {
	return fmt.Sprintf("FlipTH=%d RFMTH=%d N=%d AdTH=%d M=%.0f table=%.2fKB",
		c.FlipTH, c.RFMTH, c.NEntry, c.AdTH, c.M, c.TableKB)
}

// AddressBits returns the row-address width for a bank with rows rows.
func AddressBits(rows int) int {
	bits := 0
	for (1 << uint(bits)) < rows {
		bits++
	}
	return bits
}

// MithrilCounterBits sizes the wrapping count-CAM entry: enough bits to keep
// modular order for a spread bounded by M (Section IV-E / Table IV).
func MithrilCounterBits(m float64) int {
	if m < 0 {
		m = 0
	}
	return streaming.WrapCounterBits(uint64(math.Ceil(m)))
}

// Configure computes the minimal Mithril configuration for a target FlipTH
// at a given RFMTH and AdTH (use adTH = 0 for the plain Theorem 1 sizing).
func Configure(p timing.Params, flipTH, rfmTH, adTH int, blast float64) (Config, bool) {
	n, ok := MinNEntry(p, flipTH, rfmTH, adTH, blast)
	if !ok {
		return Config{}, false
	}
	m := BoundMPrime(p, n, rfmTH, adTH)
	cbits := MithrilCounterBits(m)
	entryBits := AddressBits(p.Rows) + cbits
	return Config{
		FlipTH:      flipTH,
		RFMTH:       rfmTH,
		NEntry:      n,
		AdTH:        adTH,
		M:           m,
		TableKB:     float64(n*entryBits) / 8 / 1024,
		CounterBits: cbits,
	}, true
}

// ConfigCurve returns, for one FlipTH, the feasible (RFMTH → table size)
// curve of Figure 6. Infeasible RFMTH values are skipped.
func ConfigCurve(p timing.Params, flipTH int, rfmTHs []int, adTH int, blast float64) []Config {
	out := make([]Config, 0, len(rfmTHs))
	for _, r := range rfmTHs {
		if c, ok := Configure(p, flipTH, r, adTH, blast); ok {
			out = append(out, c)
		}
	}
	return out
}

// LossyConfigCurve is ConfigCurve for the Lossy-Counting variant (Figure 6
// dotted lines). Entry width: address bits + full (non-wrapping) counter of
// ⌈log2 S⌉ bits + Δ field of the same width, as Lossy Counting must retain
// absolute counts and per-entry error terms.
func LossyConfigCurve(p timing.Params, flipTH int, rfmTHs []int, blast float64) []Config {
	s := p.ACTsPerREFW()
	cbits := 0
	for (1 << uint(cbits)) < s {
		cbits++
	}
	out := make([]Config, 0, len(rfmTHs))
	for _, r := range rfmTHs {
		n, ok := MinNEntryLossy(p, flipTH, r, blast)
		if !ok {
			continue
		}
		entryBits := AddressBits(p.Rows) + 2*cbits
		out = append(out, Config{
			FlipTH:      flipTH,
			RFMTH:       r,
			NEntry:      n,
			M:           LossyBoundM(p, n, r),
			TableKB:     float64(n*entryBits) / 8 / 1024,
			CounterBits: cbits,
		})
	}
	return out
}

// AdditionalNEntryPercent quantifies the Figure 7 right axis: the extra
// table entries the adaptive-refresh policy requires to preserve the same
// FlipTH guarantee, relative to AdTH = 0.
func AdditionalNEntryPercent(p timing.Params, flipTH, rfmTH, adTH int) (float64, bool) {
	base, ok1 := MinNEntry(p, flipTH, rfmTH, 0, DoubleSidedBlast)
	adapt, ok2 := MinNEntry(p, flipTH, rfmTH, adTH, DoubleSidedBlast)
	if !ok1 || !ok2 {
		return 0, false
	}
	return 100 * float64(adapt-base) / float64(base), true
}
