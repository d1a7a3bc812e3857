// Package mitigation implements every RowHammer protection scheme of the
// paper's Table I behind the mc.Scheme interface:
//
//	PARA         probabilistic · ARR       · MC
//	PARFM        probabilistic · RFM       · DRAM (Section III-E)
//	CBT          deterministic · ARR       · MC   (grouped counters)
//	TWiCe        deterministic · ARR       · buffer chip (lossy counting)
//	Graphene     deterministic · ARR       · MC   (CbS)
//	BlockHammer  deterministic · throttling· MC   (dual counting Bloom filters)
//	Mithril(+)   deterministic · RFM       · DRAM (CbS, this paper)
//
// All schemes are configured from (timing.Params, FlipTH) exactly the way
// Section VI-A describes, via the Options/Build factory. Per-bank tracker
// state is sized as dense arrays from the Params bank count at
// construction — the ACT/RFM hot path performs no map lookups and no
// allocations (victim lists are returned in reusable buffers per the
// mc.Scheme contract).
package mitigation

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"mithril/internal/core"
	"mithril/internal/mc"
	"mithril/internal/timing"
)

// Options carries the common configuration for scheme construction. The
// bank count is taken from Timing (Channels × Ranks × Banks, fixed at
// build time); every scheme sizes its per-bank tracker state as dense
// arrays from it, mirroring the fixed-size SRAM of the hardware modeled.
type Options struct {
	Timing timing.Params
	// FlipTH is the RowHammer threshold to protect.
	FlipTH int
	// BlastRadius is the per-side victim range (1 = double-sided; 3 for
	// the non-adjacent model of Section V-C).
	BlastRadius int
	// RFMTH overrides the paper's per-FlipTH RFM threshold when positive
	// (Mithril/Mithril+ only).
	RFMTH int
	// AdTH is Mithril's adaptive-refresh threshold; the paper's default
	// is 200. Negative disables the adaptive policy (AdTH = 0).
	AdTH int
	// Seed drives the probabilistic schemes deterministically. Zero is a
	// sentinel for the package default DefaultSeed, so Seed = 0 and
	// Seed = DefaultSeed configure identical RNG streams — callers who
	// need distinct streams must pick any other value.
	Seed uint64
}

// DefaultSeed is the RNG seed normalize substitutes for a zero Seed
// ("mithril" in ASCII). An explicit Seed = DefaultSeed is indistinguishable
// from the zero value.
const DefaultSeed = 0x6d69746872696c

// banks reports the total bank count the per-bank dense state is sized to.
func (o *Options) banks() int { return o.Timing.TotalBanks() }

func (o *Options) normalize() {
	if o.BlastRadius <= 0 {
		o.BlastRadius = 1
	}
	if o.AdTH == 0 {
		o.AdTH = DefaultAdTH
	}
	if o.AdTH < 0 {
		o.AdTH = 0
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
}

// DefaultAdTH is the paper's default adaptive-refresh threshold.
const DefaultAdTH = 200

// PaperRFMTH returns the RFMTH the evaluation assigns per FlipTH level
// (Section VI-A: 256 at 50K/25K, fixed 32 at 1.5K, scaling between).
func PaperRFMTH(flipTH int) int {
	switch {
	case flipTH >= 25000:
		return 256
	case flipTH >= 6250:
		return 128
	case flipTH >= 3125:
		return 64
	default:
		return 32
	}
}

// appendVictims writes the rows within radius of aggressor on both sides
// (bank-local, clamped at zero; the device clamps the upper edge) into buf,
// reusing its storage. Schemes keep one such buffer so the ACT/RFM hot path
// stays allocation-free; per the mc.Scheme contract the result is only
// valid until the scheme's next call.
//
//mithril:hotpath
func appendVictims(buf []uint32, aggressor uint32, radius int) []uint32 {
	return core.AppendVictimRows(buf[:0], aggressor, radius)
}

// Factory constructs one scheme instance from the common Options. Build
// has already rejected a non-positive FlipTH; any other configuration the
// scheme cannot protect (Mithril's infeasible Theorem 1/2 points) comes
// back as an error, so no table entry panics on caller input.
type Factory func(Options) (mc.Scheme, error)

// factories is the fixed scheme table: the paper's Table I set plus the
// unprotected baseline "none". Every consumer (spec validation, the CLI
// catalogs, the serve endpoint, the result-store stamp) reads it through
// Build, Known and Names.
var factories = map[string]Factory{
	"none":        func(Options) (mc.Scheme, error) { return mc.NoProtection{}, nil },
	"para":        func(opt Options) (mc.Scheme, error) { return NewPARA(opt), nil },
	"parfm":       func(opt Options) (mc.Scheme, error) { return NewPARFM(opt), nil },
	"cbt":         func(opt Options) (mc.Scheme, error) { return NewCBT(opt), nil },
	"twice":       func(opt Options) (mc.Scheme, error) { return NewTWiCe(opt), nil },
	"graphene":    func(opt Options) (mc.Scheme, error) { return NewGraphene(opt), nil },
	"blockhammer": func(opt Options) (mc.Scheme, error) { return NewBlockHammer(opt), nil },
	"mithril":     mithrilFactory(false),
	"mithril+":    mithrilFactory(true),
}

// ErrUnknownScheme is returned (wrapped, with the valid names listed) by
// Build for a name outside the scheme table. Match with errors.Is.
var ErrUnknownScheme = errors.New("unknown mitigation scheme")

// Build constructs a scheme by name; the empty string is an alias for
// "none". The table holds "blockhammer", "cbt", "graphene", "mithril",
// "mithril+", "none", "para", "parfm", "twice". An unknown name yields an
// error wrapping ErrUnknownScheme that lists the valid names; a FlipTH
// below 1, or a Mithril/Mithril+ point no table size can protect, yields
// a configuration error.
func Build(name string, opt Options) (mc.Scheme, error) {
	if name == "" {
		name = "none"
	}
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("mitigation: %w %q (valid: %s)", ErrUnknownScheme, name, strings.Join(Names(), ", "))
	}
	if opt.FlipTH < 1 {
		return nil, fmt.Errorf("mitigation: %s: FlipTH %d must be positive", name, opt.FlipTH)
	}
	return f(opt)
}

// Known reports whether name is in the scheme table (the "" alias Build
// accepts is not a table name).
func Known(name string) bool {
	_, ok := factories[name]
	return ok
}

// Names lists the scheme names in sorted order. The ordering is a
// documented guarantee (and pinned by a test): consumers render the list
// in error messages, CLI help, and service responses, and the result-store
// stamp fingerprints it. The returned slice is the caller's to modify.
func Names() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
