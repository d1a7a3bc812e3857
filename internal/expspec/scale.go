// Package expspec is the declarative experiment layer: a JSON spec format
// describing an experiment grid (axes over scheme × FlipTH × workload ×
// attack × seed × adversarial flag at a named scale), validation and
// deterministic grid expansion, and an executor that fans the expanded
// grid out over the internal/sweep worker pool with single-flight
// baseline caching. Scheme, workload, and attack names resolve through
// the fixed tables of internal/mitigation, internal/trace and
// internal/attack (workloads also take the "trace:<path>" replay form),
// and validation rejects unknown names before anything simulates. Every
// execution is context-aware (cancellation stops the sweep within one grid
// point and aborts in-flight simulations) and row-oriented: RunAtContext
// collects rows in deterministic grid order, StreamRowsAt yields the same
// rows (or a subset) in completion order as workers finish them, and
// ExecOptions adds a per-row progress hook, a baseline cache shareable
// across executions, and a result store.
// Results render as the CLI's aligned text tables or as machine-readable
// JSON/CSV rows, and as the raw full-precision "golden" line format the
// repository's regression goldens (testdata/golden_*.txt) are pinned in.
//
// The paper's simulation figures (7, 9, 10, 11) and the safety sweep are
// shipped spec files (specs/*.json at the module root), run like any other
// spec; opening a new scenario — a different scheme subset, FlipTH grid,
// workload mix, or seed set — is a new JSON file, not a recompile.
//
// Everything one kind of spec does differently — axis validation,
// expansion, preparing and running rows, columns, golden lines, and which
// Row/Result field holds its points — lives in that kind's own file
// (kind_comparison.go, kind_safety.go, kind_configgrid.go, kind_adth.go)
// behind the rowKind interface. The generic code looks a kind up in
// kindTable (spec.go) and never switches on Kind, so a new kind is one
// new file plus one table entry.
package expspec

import (
	"errors"
	"fmt"

	"mithril/internal/analysis"
	"mithril/internal/cpu"
	"mithril/internal/timing"
)

// Scale sizes the simulation experiments. The paper runs 400M instructions
// over 16 cores on McSimA+; the simulator is cycle-approximate and the
// rate-based metrics (RFM frequency, refresh overheads) converge at far
// smaller budgets, so Quick is the default for tests/benches and Full for
// the CLI.
type Scale struct {
	Cores        int
	InstrPerCore int64
	FlipTHs      []int
	Seed         uint64
	// TimeScale compresses the refresh window (tREFW/TimeScale with
	// proportionally fewer refresh groups, same refresh duty cycle) so
	// window-relative mechanisms — BlockHammer blacklists, CBF epochs,
	// PARFM sampling windows — engage within simulable horizons. All
	// schemes are configured from the same scaled parameters, so relative
	// comparisons are preserved (DESIGN.md §4).
	TimeScale int
	// Jobs bounds the sweep engine's worker pool: each (scheme, FlipTH,
	// workload) cell is an independent simulation, so sweeps fan out over
	// Jobs workers. 0 (or negative) means one worker per core; 1 forces
	// the serial path. Parallel and serial sweeps return identical
	// results in identical order.
	Jobs int
}

// Params returns the (possibly time-scaled) DDR5 parameters for this scale.
func (sc Scale) Params() timing.Params {
	p := timing.DDR5()
	f := sc.TimeScale
	if f <= 1 {
		return p
	}
	p.TREFW /= timing.PicoSeconds(f)
	p.RefreshGroups /= f
	return p
}

// ErrInvalidScale is wrapped by every Scale.Validate failure; match with
// errors.Is.
var ErrInvalidScale = errors.New("invalid scale")

// Validate rejects a scale the simulator cannot run — a core count outside
// [1, cpu.MaxCores), a non-positive instruction budget, or a time scale
// that compresses the refresh window past a valid timing set — so every
// execution path fails before its first row instead of panicking or
// failing mid-stream.
func (sc Scale) Validate() error {
	if sc.Cores < 1 || sc.Cores >= cpu.MaxCores {
		return fmt.Errorf("%w: cores %d outside [1, %d)", ErrInvalidScale, sc.Cores, cpu.MaxCores)
	}
	if sc.InstrPerCore <= 0 {
		return fmt.Errorf("%w: instr_per_core must be positive, got %d", ErrInvalidScale, sc.InstrPerCore)
	}
	if err := sc.Params().Validate(); err != nil {
		return fmt.Errorf("%w: time_scale %d: %w", ErrInvalidScale, sc.TimeScale, err)
	}
	return nil
}

// attackCores sizes attack workloads: the paper's 15+1 arrangement at full
// scale, a 3+1 arrangement otherwise (attack effects are per-bank, not
// per-core, so fewer benign cores change little but cost linearly less).
func (sc Scale) attackCores() int {
	if sc.Cores >= 16 {
		return sc.Cores
	}
	if sc.Cores > 4 {
		return 4
	}
	return sc.Cores
}

// multiSidedVictims picks the attack width (32 at full scale, 8 quick).
func (sc Scale) multiSidedVictims() int {
	if sc.Cores >= 16 {
		return 32
	}
	return 8
}

// QuickScale is the fast experiment configuration.
func QuickScale() Scale {
	return Scale{Cores: 8, InstrPerCore: 20_000, FlipTHs: []int{50000, 6250, 1500}, Seed: 1, TimeScale: 8}
}

// FullScale matches the paper's system size (16 cores, all FlipTH levels).
func FullScale() Scale {
	return Scale{Cores: 16, InstrPerCore: 100_000, FlipTHs: analysis.StandardFlipTHs, Seed: 1, TimeScale: 8}
}

// GoldenScale is QuickScale at the regression goldens' instruction budget:
// small enough to run in CI on every push, large enough to exercise refresh
// windows, RFM pacing, and the attack workloads. The specs/*.golden.json
// files run at this scale so `mithrilsim diff` reproduces
// testdata/golden_*.txt exactly.
func GoldenScale() Scale {
	sc := QuickScale()
	sc.InstrPerCore = 10_000
	return sc
}
