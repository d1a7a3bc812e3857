// Package mithril is the public API of the Mithril reproduction (Kim et
// al., "Mithril: Cooperative Row Hammer Protection on Commodity DRAM
// Leveraging Managed Refresh", HPCA 2022): a DDR5 system simulator with
// every mitigation scheme of the paper's Table I, the closed-form Theorem
// 1/2 configuration math, and experiment drivers that regenerate each
// evaluation figure and table.
//
// Quick start — construct an Engine once, then drive everything through
// it with a context:
//
//	eng := mithril.NewEngine(mithril.DDR5())
//	scheme, _ := mithril.NewScheme("mithril", mithril.SchemeOptions{
//	    Timing: mithril.DDR5(), FlipTH: 6250,
//	})
//	cmp, _ := eng.Compare(ctx, mithril.SimConfig{
//	    FlipTH: 6250,
//	    Scheduler: mithril.BLISS, Policy: mithril.MinimalistOpen,
//	}, mithril.MixHigh(16, 1), scheme)
//	fmt.Printf("relative perf %.2f%%\n", cmp.RelativePerformance)
//
// The simulation figures (7, 9, 10, 11) and the safety sweep are shipped
// declarative specs: load one with LoadShippedSpec("figure10.quick") and
// run it with Engine.RunSpec, reading the result's Perf, Grid, AdTH or
// Safety rows. Sweeps fan their independent simulation cells out over a
// worker pool sized by WithJobs (0 = all cores, 1 = serial); parallel and
// serial runs produce identical results in identical order. Engine.Stream
// yields grid points as workers finish them, for consumers that need
// partial results before the sweep completes.
//
// Schemes, workloads and attack patterns come from fixed tables: the
// paper's Table I schemes, its five benign workloads, and its attack
// patterns (see NewScheme, NewWorkload and AttackNames; specs name
// attacks on their Attacks axis).
//
// Every simulation entry point takes a context: Engine.Compare,
// Engine.RunSpec/RunSpecAt, Engine.Stream/StreamAt, and RunParallelContext.
package mithril

import (
	"mithril/internal/analysis"
	"mithril/internal/attack"
	"mithril/internal/expspec"
	"mithril/internal/mc"
	"mithril/internal/mitigation"
	"mithril/internal/sim"
	"mithril/internal/timing"
	"mithril/internal/trace"
)

// Re-exported types: the façade keeps downstream users on one import.
type (
	// TimingParams is the DRAM timing/organization parameter set.
	TimingParams = timing.Params
	// PicoSeconds is the simulator time unit.
	PicoSeconds = timing.PicoSeconds
	// SchemeOptions configures mitigation construction.
	SchemeOptions = mitigation.Options
	// Scheme is a RowHammer mitigation pluggable into the controller.
	Scheme = mc.Scheme
	// SimConfig describes one simulation run.
	SimConfig = sim.Config
	// Comparison is a protected run normalized against its baseline.
	Comparison = sim.Comparison
	// Workload is a named, replayable set of per-core generators.
	Workload = trace.Workload
	// MithrilConfig is a feasible (Nentry, RFMTH) operating point.
	MithrilConfig = analysis.Config
	// SchedulerKind selects the MC scheduling policy.
	SchedulerKind = mc.SchedulerKind
	// PagePolicy selects the row-buffer management policy.
	PagePolicy = mc.PagePolicy
)

// Scheduler kinds (Table III uses BLISS).
const (
	FCFS   = mc.FCFS
	FRFCFS = mc.FRFCFS
	BLISS  = mc.BLISS
)

// Page policies (Table III uses minimalist-open).
const (
	OpenPage       = mc.OpenPage
	ClosedPage     = mc.ClosedPage
	MinimalistOpen = mc.MinimalistOpen
)

// DDR5 returns the paper's DDR5-4800 parameter set (Table III).
func DDR5() TimingParams { return timing.DDR5() }

// NewScheme builds a mitigation by name from the paper's Table I set
// ("blockhammer", "cbt", "graphene", "mithril", "mithril+", "none",
// "para", "parfm", "twice"). An unknown name yields an error wrapping
// ErrUnknownScheme that lists the valid names. A FlipTH below 1, or a
// Mithril/Mithril+ point no table size can protect, is an error too.
func NewScheme(name string, opt SchemeOptions) (Scheme, error) {
	return mitigation.Build(name, opt)
}

// ErrUnknownScheme is wrapped by NewScheme's error for a name outside the
// scheme table; match with errors.Is.
var ErrUnknownScheme = mitigation.ErrUnknownScheme

// SchemeNames lists the scheme names. The sorted order is a
// documented, tested guarantee — consumers may render it directly in
// error messages and service responses.
func SchemeNames() []string { return mitigation.Names() }

// Configure computes the minimal Mithril table for a (FlipTH, RFMTH, AdTH)
// point per Theorem 1/2; ok is false when the point is infeasible.
func Configure(p TimingParams, flipTH, rfmTH, adTH int) (MithrilConfig, bool) {
	return analysis.Configure(p, flipTH, rfmTH, adTH, analysis.DoubleSidedBlast)
}

// BoundM evaluates the Theorem 1 bound for a configuration.
func BoundM(p TimingParams, nEntry, rfmTH int) float64 {
	return analysis.BoundM(p, nEntry, rfmTH)
}

// ExperimentSpec is a declarative experiment description: a named grid
// over scheme × FlipTH × workload × attack × seed (× adversarial flag)
// at a scale, the JSON format the shipped specs/*.json figures use.
// Scheme, workload, and attack names resolve through the fixed tables
// (see SchemeNames, WorkloadNames, AttackNames); workloads also accept
// the "trace:<path>" replay form. See the README's "Declarative
// experiment specs" and "Scenario catalog" sections for the format.
type ExperimentSpec = expspec.Spec

// ExperimentResult holds an executed spec's rows; Emit renders it as a
// human table or machine-readable JSON/CSV/golden rows.
type ExperimentResult = expspec.Result

// Output formats for ExperimentResult.Emit.
const (
	FormatTable  = expspec.FormatTable
	FormatJSON   = expspec.FormatJSON
	FormatCSV    = expspec.FormatCSV
	FormatGolden = expspec.FormatGolden
)

// ParseSpec decodes and validates a declarative experiment spec (unknown
// schemes, workloads, columns, axes, and JSON fields are errors). Execute
// it with Engine.RunSpec (the spec's own scale) or Engine.RunSpecAt.
func ParseSpec(data []byte) (*ExperimentSpec, error) { return expspec.Parse(data) }

// LoadShippedSpec loads one embedded spec by name (e.g. "figure10.quick";
// see SpecsFS for the inventory).
func LoadShippedSpec(name string) (*ExperimentSpec, error) {
	return expspec.LoadFS(specsFS, "specs/"+name+".json")
}

// MixHigh re-exports the paper's mix-high workload; NewWorkload builds
// the others by name.
func MixHigh(cores int, seed uint64) Workload { return trace.MixHigh(cores, seed) }

// ------------------------------------------------- workload/attack tables

// WorkloadInfo describes one table workload (name + one-line
// description) for catalogs.
type WorkloadInfo = trace.WorkloadInfo

// AttackInfo describes one table attack pattern for catalogs; the
// Name carries the display spelling ("multi:<n>" for parameterized
// patterns).
type AttackInfo = attack.PatternInfo

// WorkloadNames lists the table's workload names. The sorted order is a
// documented, tested guarantee, like SchemeNames. The "trace:<path>"
// replay form is a name shape, not a table entry, and is not listed.
func WorkloadNames() []string { return trace.WorkloadNames() }

// WorkloadCatalog lists the table's workloads with descriptions,
// sorted by name (the CLI `workloads` command and the serve /v1/catalog
// endpoint render it directly).
func WorkloadCatalog() []WorkloadInfo { return trace.Workloads() }

// NewWorkload builds a workload by table name (the paper's five: "fft",
// "mix-blend", "mix-high", "pagerank", "radix") or by the "trace:<path>"
// form, which parses a recorded access-trace file (format in the README)
// and replays it on every core. An unknown name yields an error wrapping
// ErrUnknownWorkload that lists the valid names.
func NewWorkload(name string, cores int, seed uint64) (Workload, error) {
	return trace.BuildWorkload(name, cores, seed)
}

// ErrUnknownWorkload is wrapped by NewWorkload's error (and spec
// validation) for an unknown workload name; match with errors.Is.
var ErrUnknownWorkload = trace.ErrUnknownWorkload

// AttackNames lists the table attack patterns' display spellings
// ("blockhammer-adversarial", "decoy:<n>", "double", "multi:<n>",
// "single"). The sorted order is a documented, tested guarantee.
func AttackNames() []string { return attack.Names() }

// AttackCatalog lists the table attack patterns with descriptions,
// sorted by name.
func AttackCatalog() []AttackInfo { return attack.Patterns() }

// ErrUnknownAttack is wrapped by spec validation's error for an
// unknown attack pattern; match with errors.Is.
var ErrUnknownAttack = attack.ErrUnknownAttack
