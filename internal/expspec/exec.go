package expspec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"
	"strings"

	"mithril/internal/analysis"
	"mithril/internal/attack"
	"mithril/internal/energy"
	"mithril/internal/mc"
	"mithril/internal/mitigation"
	"mithril/internal/resultstore"
	"mithril/internal/sim"
	"mithril/internal/stats"
	"mithril/internal/sweep"
	"mithril/internal/timing"
	"mithril/internal/trace"
)

// attackInstrFactor extends attack runs so threshold mechanisms (NBL,
// FlipTH accumulation) have time to engage.
const attackInstrFactor = 64

// BaseSimConfig builds the Table III system configuration at the scale's
// (possibly time-compressed) timing.
func BaseSimConfig(flipTH int, sc Scale) sim.Config {
	return sim.Config{
		Params:       sc.Params(),
		FlipTH:       flipTH,
		Scheduler:    mc.BLISS,
		Policy:       mc.MinimalistOpen,
		InstrPerCore: sc.InstrPerCore,
	}
}

// ---------------------------------------------------------------- registries

// Benign workload names resolve through the open registry in
// internal/trace (trace.BuildWorkload), which also understands the
// "trace:<path>" replay form; attack names resolve through the open
// registry in internal/attack (attack.Build). This package adds only the
// two comparison meta-workloads that depend on the experiment scale:
// "normal" is the scale's benign set reduced to one geomean row;
// "multi-sided-rh" is the Figure 10(b) attack.
const (
	normalSet    = "normal"
	multiSidedRH = "multi-sided-rh"
)

// validateComparisonWorkload accepts the meta-workloads plus anything the
// workload registry can build; its error lists the meta names too, so a
// typo of "normal" is steered back to the full vocabulary.
func validateComparisonWorkload(name string) error {
	if name == normalSet || name == multiSidedRH {
		return nil
	}
	if err := trace.ValidateWorkloadName(name); err != nil {
		return fmt.Errorf("%w; comparison also accepts %q and %q", err, normalSet, multiSidedRH)
	}
	return nil
}

// adthWorkloads maps the Figure 7 workload classes to generators, plus the
// short labels its energy-column headers use.
var adthWorkloads = map[string]struct {
	short string
	build func(cores int, seed uint64) trace.Workload
}{
	"multi-programmed": {"multi-prog", trace.MixHigh},
	"multi-threaded":   {"multi-thread", trace.FFT},
}

func adthWorkloadNames() []string { return sortedKeys(adthWorkloads) }

// safetyBackground builds the benign core a safety attack runs alongside.
// Background core first, attacker last: the run ends when the benign core
// finishes even if the attacker is throttled to a crawl. The background
// must be memory-bound (footprint ≫ LLC) so the attacker gets a realistic
// time window.
func safetyBackground() trace.Generator {
	return trace.NewStream("bg", 1<<28, 64<<20, 10, 4)
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ---------------------------------------------------------------- row types

// PerfPoint is one (scheme, FlipTH, workload) measurement.
type PerfPoint struct {
	Scheme              string
	FlipTH              int
	RFMTH               int
	Workload            string
	Seed                uint64
	RelativePerformance float64 // % of unprotected aggregate IPC
	EnergyOverheadPct   float64
	TableKB             float64
	Safe                bool
}

// String renders the point for logs.
func (p PerfPoint) String() string {
	return fmt.Sprintf("%-12s FlipTH=%-6d %-16s perf=%6.2f%% energy=+%5.2f%% table=%6.2fKB safe=%v",
		p.Scheme, p.FlipTH, p.Workload, p.RelativePerformance, p.EnergyOverheadPct, p.TableKB, p.Safe)
}

// SafetyResult is one scheme × attack verdict.
type SafetyResult struct {
	Scheme         string
	Attack         string
	FlipTH         int
	Seed           uint64
	Flips          int
	MaxDisturbance float64
	Safe           bool
}

// Figure9Point compares Mithril and Mithril+ at one operating point.
type Figure9Point struct {
	FlipTH, RFMTH int
	Seed          uint64
	Mithril       float64 // relative performance %
	MithrilPlus   float64
	TableKB       float64
	EnergyMithril float64
	EnergyPlus    float64
}

// Figure7Point is one AdTH level of Figure 7.
type Figure7Point struct {
	FlipTH, RFMTH, AdTH int
	Seed                uint64
	// EnergyOverheadPct per workload class (multi-programmed/threaded).
	EnergyOverheadPct map[string]float64
	// AdditionalNEntryPct is the Theorem 2 table growth (right axis).
	AdditionalNEntryPct float64
}

// Row is one completed output row of an executing spec: the unit the
// streaming executor yields as workers finish grid points. Exactly one of
// the point fields is set, matching the spec's kind.
type Row struct {
	// Index is the row's position in the spec's deterministic Expand
	// order. Streams deliver rows in completion order; consumers that
	// need grid order reassemble by Index.
	Index int
	// Cell is the expanded grid cell this row realizes.
	Cell Cell

	Perf   *PerfPoint    // comparison
	Safety *SafetyResult // safety
	Grid   *Figure9Point // configgrid
	AdTH   *Figure7Point // adth

	// Cached is true when the row was served from the result store
	// instead of simulated (rows from storeless executions are never
	// cached). Cached and simulated rows are byte-identical in every
	// output format — the flag exists for effectiveness accounting, not
	// for consumers to treat the rows differently.
	Cached bool
}

// ---------------------------------------------------------- exec options

// ExecOptions tunes a spec execution beyond what Scale carries. The zero
// value (and a nil pointer) mean no progress reporting, no store, and a
// private baseline cache per execution. Local and distributed executions
// honour the same options: both bind them through one Execution.
type ExecOptions struct {
	// Progress, when non-nil, is invoked as each output row is handed to
	// the consumer, with the number of rows delivered and the total row
	// count. It runs on the stream's consumer loop, so calls never overlap
	// and the hook needs no locking; it must not block for long — the next
	// row waits on it.
	Progress func(done, total int)
	// Baselines, when non-nil, shares unprotected-baseline simulations
	// across executions (the Engine's WithBaselineCache installs one).
	// Entries are keyed by the machine a baseline run simulates — scale
	// geometry, seed, and the workload's generator identity — not by
	// FlipTH or scheme, which never change the unprotected run, so sharing
	// is sound across thresholds, schemes and spec kinds.
	Baselines *BaselineCache
	// Store, when non-nil, is the content-addressed result store: every
	// cacheable row is looked up before it simulates (a hit is served
	// as-is, marked Row.Cached) and written back when it is delivered,
	// unless it is already stored. Keys cover everything that determines
	// a row (see storekey.go), so a shared store never conflates scales,
	// seeds, or schema generations; output is byte-identical either way.
	Store resultstore.Store
}

// BaselineCache is a single-flight cache of unprotected baseline runs,
// shareable across spec executions (and safe for concurrent ones). Keys
// include the scale geometry, so one cache can serve specs at different
// scales without ever conflating their baselines.
type BaselineCache struct {
	c sweep.Cache[baselineKey, baseline]
}

// NewBaselineCache returns an empty cache.
func NewBaselineCache() *BaselineCache { return &BaselineCache{} }

// Len reports the number of distinct baselines filled or in flight.
func (b *BaselineCache) Len() int { return b.c.Len() }

// get is the single-flight fill with cancellation-eviction: a baseline
// aborted by ctx cancellation is forgotten, not cached. A caller whose own
// ctx is still live retries the fill — single-flight can hand it another
// execution's cancelled result (it was blocked on that fill, or raced the
// eviction), and that cancellation is not a fact about the key. The loop
// terminates: each retry either joins a fill that completes, or runs the
// caller's own fill under the caller's live ctx.
func (b *BaselineCache) get(ctx context.Context, k baselineKey, fill func() (baseline, error)) (baseline, error) {
	for {
		res, err := b.c.Get(k, fill)
		if err == nil || (!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)) {
			return res, err
		}
		b.c.Forget(k)
		if ctx.Err() != nil {
			return res, err // our own execution is the cancelled one
		}
	}
}

// baseline is what normalization reads of an unprotected run: per-core
// IPCs and the energy breakdown. Nothing FlipTH shapes (the fault
// checker's Safety report) is kept, so an entry filled at one threshold
// cannot leak into a row at another.
type baseline struct {
	ipcs   []float64
	energy energy.Breakdown
}

// baselineKey identifies the machine an unprotected run simulates: the
// scale fields that shape it (core count, instruction budget, time
// compression), the seed, and the identity of the generators its cores
// replay. FlipTH is not part of it — it parameterizes only the rh fault
// checker, never the run (TestUnprotectedRunIndependentOfFlipTH) — and
// neither is the scheme under test.
type baselineKey struct {
	cores     int
	instr     int64
	timeScale int
	seed      uint64
	workload  string // generator identity: the workload name, or adversaryID for adversarial cells
}

func (sc Scale) baselineKey(seed uint64, workload string) baselineKey {
	return baselineKey{
		cores: sc.Cores, instr: sc.InstrPerCore, timeScale: sc.TimeScale,
		seed: seed, workload: workload,
	}
}

// cfgFor derives the run configuration for a workload at the scale: attack
// workloads get an extended instruction budget and end when the benign
// cores finish.
func (sc Scale) cfgFor(flipTH int, w trace.Workload) sim.Config {
	cfg := BaseSimConfig(flipTH, sc)
	cfg.Workload = w.Fresh()
	if w.Attackers > 0 {
		cfg.InstrPerCore = sc.InstrPerCore * attackInstrFactor
		cfg.RequireCores = len(cfg.Workload) - w.Attackers
	}
	return cfg
}

// baseline returns the unprotected run of w, whose generator identity is
// id. Every scheme is normalized against it, and the cache is keyed by
// what the run simulates (see baselineKey), so every row reaching the same
// cache with the same generators at the same scale and seed — at any
// FlipTH, under any scheme, from any spec kind — shares one simulation. A
// fill runs at the FlipTH of the first cell that asks: the threshold
// shapes only the fault checker, which a baseline does not keep, and that
// threshold's device pool is already warm.
func (rr *rowRunner) baseline(ctx context.Context, seed uint64, flipTH int, w trace.Workload, id string) (baseline, error) {
	return rr.baselines.get(ctx, rr.sc.baselineKey(seed, id), func() (baseline, error) {
		res, err := sim.RunContext(ctx, rr.sc.cfgFor(flipTH, w))
		return baseline{ipcs: res.IPCs, energy: res.Energy}, err
	})
}

// BenignIPC sums per-core IPCs excluding trailing attacker cores (a
// non-positive count means none; a count beyond the core total sums
// nothing rather than walking off the slice).
func BenignIPC(ipcs []float64, attackers int) float64 {
	n := len(ipcs) - attackers
	if n > len(ipcs) {
		n = len(ipcs)
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += ipcs[i]
	}
	return total
}

// measure runs scheme on workload and produces the normalized point;
// trailing attacker cores (w.Attackers) are excluded from IPC aggregation.
// id is the workload's generator identity, which keys its baseline: w.Name
// for every workload but the adversarial cell's.
func (rr *rowRunner) measure(ctx context.Context, scheme mc.Scheme, seed uint64, flipTH int, w trace.Workload, id string) (PerfPoint, error) {
	attackers := w.Attackers
	base, err := rr.baseline(ctx, seed, flipTH, w, id)
	if err != nil {
		return PerfPoint{}, err
	}
	cfg := rr.sc.cfgFor(flipTH, w)
	cfg.Scheme = scheme
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return PerfPoint{}, err
	}
	pt := PerfPoint{
		Scheme:   scheme.Name(),
		FlipTH:   flipTH,
		Workload: w.Name,
		Seed:     seed,
		Safe:     res.Safety.Safe(),
	}
	if b := BenignIPC(base.ipcs, attackers); b > 0 {
		pt.RelativePerformance = 100 * BenignIPC(res.IPCs, attackers) / b
	}
	pt.EnergyOverheadPct = energy.OverheadPercent(res.Energy, base.energy)
	return pt, nil
}

// normalWorkloads returns the benign workload set for a scale (two mixes at
// quick scale; the paper's five at full scale).
func normalWorkloads(sc Scale, seed uint64) []trace.Workload {
	if sc.Cores < 16 {
		return []trace.Workload{trace.MixHigh(sc.Cores, seed), trace.FFT(sc.Cores, seed)}
	}
	all := trace.NormalWorkloads(sc.Cores, seed)
	out := make([]trace.Workload, len(all))
	for i, w := range all {
		out[i] = w.Workload
	}
	return out
}

// multiSidedWorkload builds the Figure 10(b) workload: benign cores plus
// one multi-sided attacker (32 victims at full scale).
func multiSidedWorkload(sc Scale, seed uint64) trace.Workload {
	mapper := mc.NewAddressMapper(sc.Params())
	n := sc.attackCores()
	benign := trace.MixHigh(n, seed)
	victims := sc.multiSidedVictims()
	return trace.Workload{
		Name:      multiSidedRH,
		Attackers: 1,
		Fresh: func() []trace.Generator {
			gens := benign.Fresh()
			gens[len(gens)-1] = attack.NewMultiSided(mapper, 1, 7, 4000, victims)
			return gens
		},
	}
}

// attackWorkload builds one comparison attacks-axis workload: the benign
// mix-high cores with the last core replaced by the named registry
// pattern at its paper-default coordinates — the same arrangement as
// multi-sided-rh, for any registered attack. The workload is named after
// the built generator ("multi:8" measures as workload "multi-sided-8"),
// so baseline-cache keys and output rows are distinct per pattern. The
// pattern is built once up front to surface bad names/arguments before
// the sweep starts; Fresh rebuilds it per simulation because generators
// are stateful.
func attackWorkload(sc Scale, seed uint64, name string) (trace.Workload, error) {
	mapper := mc.NewAddressMapper(sc.Params())
	n := sc.attackCores()
	benign := trace.MixHigh(n, seed)
	gen, err := attack.Build(name, attack.Params{Mapper: mapper})
	if err != nil {
		return trace.Workload{}, err
	}
	return trace.Workload{
		Name:      gen.Name(),
		Attackers: 1,
		Fresh: func() []trace.Generator {
			gens := benign.Fresh()
			g, err := attack.Build(name, attack.Params{Mapper: mapper})
			if err != nil {
				// Build is deterministic and succeeded above.
				panic(fmt.Sprintf("expspec: attack %q failed on rebuild: %v", name, err))
			}
			gens[len(gens)-1] = g
			return gens
		},
	}, nil
}

// adversarialWorkload builds the Figure 10(c) workload: benign cores with
// one hot-row service core, plus a BlockHammer-collision adversary aimed at
// the service core's rows. Against non-throttling schemes the adversary's
// walk is harmless background traffic. The adversary's rows are searched
// once per cell and every Fresh builds its generator from them. The second
// result is the workload's generator identity: the name carries the
// scheme, but the rows are all that vary with it, so schemes that yield
// the same rows share one baseline.
func adversarialWorkload(sc Scale, seed uint64, scheme mc.Scheme) (trace.Workload, string) {
	p := sc.Params()
	mapper := mc.NewAddressMapper(p)
	n := sc.attackCores()
	benign := trace.MixHigh(n, seed)
	victimCore := n - 2
	if victimCore < 0 {
		victimCore = 0
	}
	base := uint64(victimCore) << 28
	loc := mapper.Map(base)
	rows := adversaryRows(mapper, loc, scheme)
	return trace.Workload{
		Name:      "bh-adversarial/" + scheme.Name(),
		Attackers: 1,
		Fresh: func() []trace.Generator {
			gens := benign.Fresh()
			// The service core strides an 8 MB object with a prime stride:
			// cache-hostile, so its rows keep re-activating — throttling
			// them (or escalating to the whole thread) hurts directly.
			gens[victimCore] = trace.NewStrided("service", base, 8<<20, 257, 6)
			// The adversary hammers rows that collide with the service
			// core's hot rows in the deployed scheme's filters.
			gens[len(gens)-1] = attack.NewRowList("bh-adversarial", mapper, loc.Channel, loc.Bank, rows)
			return gens
		},
	}, adversaryID(rows)
}

// adversaryID is an adversarial workload's generator identity. Like the
// workload names that key every other baseline it must name one set of
// generators; the bracketed row list keeps it apart from those names.
func adversaryID(rows []int) string { return fmt.Sprint("bh-adversarial", rows) }

// adversaryRows picks the adversary's rows: those colliding with the
// service core's first two hot rows in its first bank, or a fixed walk
// when the scheme exposes no collision oracle.
func adversaryRows(mapper *mc.AddressMapper, loc mc.Location, scheme mc.Scheme) []int {
	var rows []int
	if th, ok := scheme.(attack.Throttler); ok {
		for i := 0; i < 2; i++ {
			for _, r := range th.CollidingRows(loc.GlobalBank, uint32(loc.Row+i), 4) {
				rows = append(rows, int(r))
			}
		}
	}
	if len(rows) == 0 {
		for i := 0; i < 16; i++ {
			rows = append(rows, (loc.Row+64+8*i)%mapper.Params().Rows)
		}
	}
	return rows
}

// schemeTableKB reports the per-bank counter table area for the scheme at
// a FlipTH level (Figure 10(e)/Table IV models).
func schemeTableKB(name string, flipTH int) float64 {
	p := timing.DDR5()
	switch name {
	case "graphene":
		return analysis.GrapheneTableKB(p, flipTH)
	case "twice":
		return analysis.TWiCeTableKB(p, flipTH)
	case "cbt":
		return analysis.CBTTableKB(p, flipTH)
	case "blockhammer":
		return analysis.BlockHammerTableKB(flipTH)
	case "mithril", "mithril+":
		kb, ok := analysis.MithrilTableKB(p, flipTH, mitigation.PaperRFMTH(flipTH), 0)
		if !ok {
			return 0
		}
		return kb
	default:
		return 0
	}
}

// ---------------------------------------------------------------- executors

// RunAtContext validates the spec and executes its grid at an explicit
// scale (the library's figure wrappers pass their caller's Scale; the CLI
// passes the spec's resolved scale with the -jobs override applied): it is
// StreamRowsAt over the full grid, collected into a Result in the
// deterministic Expand order regardless of worker count. Cancellation is
// cooperative: the sweep stops claiming cells when ctx is cancelled and
// in-flight simulations abort mid-run. opts is as for StreamRowsAt.
func (s *Spec) RunAtContext(ctx context.Context, sc Scale, opts *ExecOptions) (*Result, error) {
	x, err := s.NewExecution(sc, nil, opts)
	if err != nil {
		return nil, err
	}
	seq, err := x.stream(ctx)
	if err != nil {
		return nil, err
	}
	rows := make([]Row, 0, len(x.rows))
	for row, err := range seq {
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return s.NewResult(sc, rows)
}

// NewResult assembles completed rows into a Result, ordering them by
// Row.Index (in place) so a Result emits in grid order whatever order the
// rows completed in. Each row must carry exactly the point matching the
// spec's kind; a row without one means the caller mixed rows from a
// different spec or dropped a shard, which is an error here rather than a
// panic at emission time.
func (s *Spec) NewResult(sc Scale, rows []Row) (*Result, error) {
	slices.SortFunc(rows, func(a, b Row) int { return cmp.Compare(a.Index, b.Index) })
	res := &Result{Spec: s, Scale: sc}
	for i := range rows {
		if rows[i].pointKind() != s.Kind {
			return nil, fmt.Errorf("spec %q: row %d has no %s point", s.Name, rows[i].Index, s.Kind)
		}
		if rows[i].Cached {
			res.RowsCached++
		} else {
			res.RowsSimulated++
		}
	}
	res.Perf = points(rows, func(r *Row) *PerfPoint { return r.Perf })
	res.Safety = points(rows, func(r *Row) *SafetyResult { return r.Safety })
	res.Grid = points(rows, func(r *Row) *Figure9Point { return r.Grid })
	res.AdTH = points(rows, func(r *Row) *Figure7Point { return r.AdTH })
	return res, nil
}

// pointKind reports which kind's point the row carries, or "" when it
// carries none or more than one: the one owner of which Row field holds
// which kind's point.
func (row *Row) pointKind() Kind {
	n, kind := 0, Kind("")
	if row.Perf != nil {
		n, kind = n+1, Comparison
	}
	if row.Safety != nil {
		n, kind = n+1, SafetyKind
	}
	if row.Grid != nil {
		n, kind = n+1, ConfigGrid
	}
	if row.AdTH != nil {
		n, kind = n+1, AdTHSweep
	}
	if n != 1 {
		return ""
	}
	return kind
}

// points copies one Row field's points out of rows, or returns nil when
// the rows (which all carry the same kind) hold theirs elsewhere.
func points[T any](rows []Row, field func(*Row) *T) []T {
	if len(rows) == 0 || field(&rows[0]) == nil {
		return nil
	}
	out := make([]T, len(rows))
	for i := range rows {
		out[i] = *field(&rows[i])
	}
	return out
}

// StreamRowsAt executes an explicit row-index subset of the expanded grid
// — the shard a distributed worker is handed; nil runs the full grid —
// yielding each row as workers finish it: completion order, not grid
// order, with Row.Index holding the grid index. Every construction
// failure — invalid spec or scale, out-of-range or duplicated subset
// index, a workload that will not build — is returned before the first
// yield, so a caller speaking a streaming wire protocol can reject the
// request cleanly instead of discovering the error after committing to a
// 200 and an NDJSON header. The sequence terminates with a single non-nil
// error when a cell fails, a store write fails, or ctx is cancelled;
// breaking out of the range cancels the remaining rows, and all workers
// have exited when the range ends. opts.Progress observes each row as it
// is yielded, opts.Baselines shares unprotected runs across executions,
// and opts.Store serves and records rows; nil opts means no hook, no
// store, and a private baseline cache.
func (s *Spec) StreamRowsAt(ctx context.Context, sc Scale, rows []int, opts *ExecOptions) (iter.Seq2[Row, error], error) {
	x, err := s.NewExecution(sc, rows, opts)
	if err != nil {
		return nil, err
	}
	return x.stream(ctx)
}

// Execution is one spec execution bound to a scale, a row subset and the
// caller's ExecOptions: the one owner of how a row meets the result store
// and the progress hook. Local runs (StreamRowsAt, RunAtContext) and the
// distributed coordinator both drive one. Rows come from Local or from a
// remote worker; Cached serves a row from the store; Deliver records every
// row handed to the consumer, writing fresh rows back and reporting
// progress.
type Execution struct {
	spec      *Spec
	sc        Scale
	baselines *BaselineCache
	cells     []Cell
	rows      []int // the grid indices the execution covers, subset order

	// Store binding: keys and cacheable are indexed like cells and set for
	// the covered rows before any row runs, so a bad attack spelling fails
	// up front and probes stay pure lookups. served and simulated record
	// where a row came from, which decides its write-back: Cached served
	// it (stored already), Local simulated it after its own probe missed
	// (written without a second probe), or it came from elsewhere — a
	// remote worker that may share the store — and is probed again.
	store     resultstore.Store
	stamp     string
	keys      []resultstore.Key
	cacheable []bool
	served    []bool
	simulated []bool

	progress func(done, total int)
	done     int
}

// NewExecution validates the spec and scale, expands the grid, checks the
// row subset (nil: every expanded cell; otherwise in-range and free of
// duplicates — a duplicated row would double-count in every consumer and
// a wild index has no cell to realize), and keys the covered rows for the
// store.
func (s *Spec) NewExecution(sc Scale, rows []int, opts *ExecOptions) (*Execution, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	x := &Execution{spec: s, sc: sc, cells: s.Expand(sc)}
	if opts != nil {
		x.baselines, x.store, x.progress = opts.Baselines, opts.Store, opts.Progress
	}
	if x.baselines == nil {
		x.baselines = NewBaselineCache()
	}
	if rows == nil {
		x.rows = make([]int, len(x.cells))
		for i := range x.rows {
			x.rows[i] = i
		}
	} else {
		seen := make(map[int]bool, len(rows))
		for _, i := range rows {
			if i < 0 || i >= len(x.cells) {
				return nil, fmt.Errorf("spec %q: row %d out of range (grid has %d rows)", s.Name, i, len(x.cells))
			}
			if seen[i] {
				return nil, fmt.Errorf("spec %q: duplicate row %d in subset", s.Name, i)
			}
			seen[i] = true
		}
		x.rows = append([]int(nil), rows...)
	}
	if x.store != nil {
		x.stamp = StoreStamp()
		x.keys = make([]resultstore.Key, len(x.cells))
		x.cacheable = make([]bool, len(x.cells))
		x.served = make([]bool, len(x.cells))
		x.simulated = make([]bool, len(x.cells))
		for _, i := range x.rows {
			key, ok, err := s.cellKey(sc, x.cells[i], x.stamp)
			if err != nil {
				return nil, err
			}
			x.keys[i], x.cacheable[i] = key, ok
		}
	}
	return x, nil
}

// Cells returns the expanded grid in Expand order. The slice is the
// execution's own; callers must not modify it.
func (x *Execution) Cells() []Cell { return x.cells }

// Cached serves grid row i from the result store, marked Row.Cached. Any
// defect in a stored record — wrong stamp, undecodable payload, a point of
// the wrong kind — is a miss (the row re-simulates and overwrites it),
// never an error: the store is an accelerator, not a dependency. Distinct
// rows may be probed concurrently.
func (x *Execution) Cached(i int) (Row, bool) {
	rec, ok := x.stored(i)
	if !ok {
		return Row{}, false
	}
	row := Row{Index: i, Cell: x.cells[i], Cached: true}
	if !decodeRow(x.spec.Kind, rec.Payload, &row) {
		return Row{}, false
	}
	x.served[i] = true
	return row, true
}

// stored returns row i's record when the store holds one under the
// current stamp.
func (x *Execution) stored(i int) (resultstore.Record, bool) {
	if x.store == nil || !x.cacheable[i] {
		return resultstore.Record{}, false
	}
	rec, ok := x.store.Get(x.keys[i])
	return rec, ok && rec.Stamp == x.stamp
}

// Deliver records a covered row the execution hands to its consumer,
// once per row and from one goroutine (the stream's consumer loop), so the
// progress hook needs no locking. A row Cached did not serve is written
// back; one that did not come from Local is written only if it is not
// already stored under the current stamp — a worker sharing the store may
// have put it — so a store sees each row Put once. A write failure is
// loud: a store that stops accepting writes mid-sweep is losing rows the
// operator asked to persist, and silently degrading to compute-only would
// hide that until the re-run.
func (x *Execution) Deliver(row Row) error {
	i := row.Index
	write := x.store != nil && x.cacheable[i] && !x.served[i]
	if write && !x.simulated[i] {
		_, stored := x.stored(i)
		write = !stored
	}
	if write {
		payload, err := encodeRow(row)
		if err != nil {
			return err
		}
		if err := x.store.Put(resultstore.Record{Key: x.keys[i], Stamp: x.stamp, Payload: payload}); err != nil {
			return err
		}
	}
	x.done++
	if x.progress != nil {
		x.progress(x.done, len(x.rows))
	}
	return nil
}

// Local is the execution's local row source: it runs rows (grid indices
// the execution covers) on the scale's sweep workers and yields each one
// undelivered, in completion order. A worker serves its row through Cached
// when it can — decoding stays on the workers, off the consumer loop — and
// simulates it otherwise. Failures building the state those rows consume
// are returned before the first yield; the sequence otherwise behaves as
// StreamRowsAt's.
func (x *Execution) Local(ctx context.Context, rows []int) (iter.Seq2[Row, error], error) {
	rr, err := x.newRowRunner(rows)
	if err != nil {
		return nil, err
	}
	run := func(ctx context.Context, j int) (Row, error) {
		i := rows[j]
		if row, ok := x.Cached(i); ok {
			return row, nil
		}
		if x.simulated != nil {
			x.simulated[i] = true
		}
		return rr.run(ctx, i)
	}
	return func(yield func(Row, error) bool) {
		for iv, err := range sweep.StreamContext(ctx, x.sc.Jobs, len(rows), run) {
			if !yield(iv.V, err) || err != nil {
				return
			}
		}
	}, nil
}

// stream is Local over every covered row, each delivered on its way to
// the consumer.
func (x *Execution) stream(ctx context.Context) (iter.Seq2[Row, error], error) {
	src, err := x.Local(ctx, x.rows)
	if err != nil {
		return nil, err
	}
	return func(yield func(Row, error) bool) {
		for row, err := range src {
			if err == nil {
				err = x.Deliver(row)
			}
			if err != nil {
				yield(Row{}, err)
				return
			}
			if !yield(row, nil) {
				return
			}
		}
	}, nil
}

// seeds resolves the seed axis (empty: the scale's single seed).
func (s *Spec) seeds(sc Scale) []uint64 {
	if len(s.Axes.Seeds) > 0 {
		return s.Axes.Seeds
	}
	return []uint64{sc.Seed}
}

// seedSet is the per-seed workload state a comparison spec prepares once
// and reuses across its grid rows. Named workloads (registry and
// trace-file) and attacks-axis workloads are prebuilt here so build
// errors — an unknown name, a malformed trace file — surface before the
// sweep starts; trace-file workloads are additionally shared across
// seeds (a replay ignores the seed), so each file is parsed exactly once
// per execution.
type seedSet struct {
	normals []trace.Workload
	rhW     trace.Workload
	named   map[string]trace.Workload // workloads axis, by spec name
	attacks map[string]trace.Workload // attacks axis, by registry name
}

// needSet records which seeds, (seed, workload) pairs, and (seed, attack)
// pairs a row subset touches, so newRowRunner prebuilds only the state
// those rows consume. Adversarial cells contribute nothing beyond their
// seed — their workload is built inline per row.
type needSet struct {
	seeds     map[uint64]bool
	workloads map[seedName]bool // workload cells (comparison, configgrid)
	attacks   map[seedName]bool // attack cells (comparison attacks axis, safety)
	attackAny map[string]bool   // attacks named by any subset cell, any seed
}

type seedName struct {
	seed uint64
	name string
}

func newNeedSet(cells []Cell, rows []int) *needSet {
	n := &needSet{
		seeds:     map[uint64]bool{},
		workloads: map[seedName]bool{},
		attacks:   map[seedName]bool{},
		attackAny: map[string]bool{},
	}
	for _, i := range rows {
		c := cells[i]
		n.seeds[c.Seed] = true
		switch {
		case c.Adversarial:
		case c.Attack != "":
			n.attacks[seedName{c.Seed, c.Attack}] = true
			n.attackAny[c.Attack] = true
		case c.Workload != "":
			n.workloads[seedName{c.Seed, c.Workload}] = true
		}
	}
	return n
}

func (n *needSet) seed(seed uint64) bool                  { return n.seeds[seed] }
func (n *needSet) workload(seed uint64, name string) bool { return n.workloads[seedName{seed, name}] }
func (n *needSet) attack(seed uint64, name string) bool   { return n.attacks[seedName{seed, name}] }
func (n *needSet) anyAttack(name string) bool             { return n.attackAny[name] }

// rowRunner simulates one spec's rows at one scale, one output row at a
// time: the simulation behind Execution.Local. Precomputed per-seed state
// keeps row jobs pure. That state is prebuilt only for the rows the runner
// was built for, so a subset never touches inputs it will not simulate —
// in particular, a worker handed a shard of a spec that also names
// trace-file workloads never opens those files unless the shard includes
// their rows.
type rowRunner struct {
	spec      *Spec
	sc        Scale
	baselines *BaselineCache
	cells     []Cell

	sets      map[uint64]*seedSet       // comparison
	workloads map[uint64]trace.Workload // configgrid
	mapper    *mc.AddressMapper         // safety
}

// newRowRunner binds the per-kind state for the named grid rows.
func (x *Execution) newRowRunner(rows []int) (*rowRunner, error) {
	s, sc := x.spec, x.sc
	rr := &rowRunner{spec: s, sc: sc, baselines: x.baselines, cells: x.cells}
	// needs records which (seed, workload/attack) pairs the rows touch.
	needs := newNeedSet(rr.cells, rows)
	// buildNamed resolves one workloads-axis name. Trace replays are
	// seed-independent, so one build (one file parse) serves every seed.
	traceShared := map[string]trace.Workload{}
	buildNamed := func(name string, seed uint64) (trace.Workload, error) {
		if !strings.HasPrefix(name, trace.TracePrefix) {
			return trace.BuildWorkload(name, sc.Cores, seed)
		}
		w, ok := traceShared[name]
		if !ok {
			var err error
			if w, err = trace.BuildWorkload(name, sc.Cores, seed); err != nil {
				return trace.Workload{}, err
			}
			traceShared[name] = w
		}
		return w, nil
	}
	switch s.Kind {
	case Comparison:
		rr.sets = map[uint64]*seedSet{}
		for _, seed := range s.seeds(sc) {
			set := &seedSet{
				named:   map[string]trace.Workload{},
				attacks: map[string]trace.Workload{},
			}
			rr.sets[seed] = set
			for _, name := range s.Axes.Workloads {
				if !needs.workload(seed, name) {
					continue
				}
				switch name {
				case normalSet:
					set.normals = normalWorkloads(sc, seed)
				case multiSidedRH:
					set.rhW = multiSidedWorkload(sc, seed)
				default:
					w, err := buildNamed(name, seed)
					if err != nil {
						return nil, err
					}
					set.named[name] = w
				}
			}
			for _, name := range s.Axes.Attacks {
				if !needs.attack(seed, name) {
					continue
				}
				w, err := attackWorkload(sc, seed, name)
				if err != nil {
					return nil, err
				}
				set.attacks[name] = w
			}
		}
	case SafetyKind:
		rr.mapper = mc.NewAddressMapper(sc.Params())
		// Trial-build every subset pattern (sans oracle) so bad
		// coordinates — an out-of-bank multi:<n>, say — fail here, before
		// the sweep, exactly as comparison specs fail in attackWorkload.
		for _, a := range s.Axes.Attacks {
			if !needs.anyAttack(a) {
				continue
			}
			if _, err := attack.Build(a, attack.Params{Mapper: rr.mapper}); err != nil {
				return nil, err
			}
		}
	case ConfigGrid:
		rr.workloads = map[uint64]trace.Workload{}
		for _, seed := range s.seeds(sc) {
			if !needs.seed(seed) {
				continue
			}
			w, err := buildNamed(s.Axes.Workloads[0], seed)
			if err != nil {
				return nil, err
			}
			rr.workloads[seed] = w
		}
	}
	return rr, nil
}

// run computes grid row i. It is safe for concurrent invocation across
// distinct rows; per-row scheme instances are built fresh, so tracker
// state never leaks between rows.
func (rr *rowRunner) run(ctx context.Context, i int) (Row, error) {
	row := Row{Index: i, Cell: rr.cells[i]}
	var err error
	switch rr.spec.Kind {
	case Comparison:
		row.Perf, err = rr.comparisonRow(ctx, rr.cells[i])
	case SafetyKind:
		row.Safety, err = rr.safetyRow(ctx, rr.cells[i])
	case ConfigGrid:
		row.Grid, err = rr.configGridRow(ctx, rr.cells[i])
	case AdTHSweep:
		row.AdTH, err = rr.adthRow(ctx, rr.cells[i])
	}
	if err != nil {
		return Row{}, err
	}
	return row, nil
}

// buildScheme constructs a fresh scheme instance for one simulation. Every
// simulation gets its own instance — tracker state must never leak between
// grid cells (or between the member workloads of a "normal" row).
func (rr *rowRunner) buildScheme(name string, flipTH int, seed uint64) (mc.Scheme, error) {
	return mitigation.Build(name, mitigation.Options{Timing: rr.sc.Params(), FlipTH: flipTH, Seed: seed})
}

// comparisonRow measures one output row of a comparison sweep: a single
// workload cell, or the whole "normal" benign set geomean-reduced to one
// point, or the per-scheme BlockHammer-collision adversarial cell.
//
// The "normal" row runs its member workloads serially inside the one row
// job — a deliberate trade: the output row is the streaming unit (a
// partially-measured geomean is meaningless to a consumer), at the cost
// of intra-row parallelism the old cell-granular executor had. Sweeps
// keep their cross-row fan-out, which dominates at real grid sizes.
func (rr *rowRunner) comparisonRow(ctx context.Context, c Cell) (*PerfPoint, error) {
	if c.Adversarial {
		scheme, err := rr.buildScheme(c.Scheme, c.FlipTH, c.Seed)
		if err != nil {
			return nil, err
		}
		w, id := adversarialWorkload(rr.sc, c.Seed, scheme)
		pt, err := rr.measure(ctx, scheme, c.Seed, c.FlipTH, w, id)
		if err != nil {
			return nil, err
		}
		pt.TableKB = schemeTableKB(c.Scheme, c.FlipTH)
		return &pt, nil
	}
	set := rr.sets[c.Seed]
	if c.Attack != "" {
		scheme, err := rr.buildScheme(c.Scheme, c.FlipTH, c.Seed)
		if err != nil {
			return nil, err
		}
		w := set.attacks[c.Attack]
		pt, err := rr.measure(ctx, scheme, c.Seed, c.FlipTH, w, w.Name)
		if err != nil {
			return nil, err
		}
		pt.TableKB = schemeTableKB(c.Scheme, c.FlipTH)
		return &pt, nil
	}
	if c.Workload == normalSet {
		var perfs []float64
		var energySum float64
		safe := true
		for _, w := range set.normals {
			scheme, err := rr.buildScheme(c.Scheme, c.FlipTH, c.Seed)
			if err != nil {
				return nil, err
			}
			pt, err := rr.measure(ctx, scheme, c.Seed, c.FlipTH, w, w.Name)
			if err != nil {
				return nil, err
			}
			perfs = append(perfs, pt.RelativePerformance)
			energySum += pt.EnergyOverheadPct
			safe = safe && pt.Safe
		}
		return &PerfPoint{
			Scheme: c.Scheme, FlipTH: c.FlipTH, Workload: normalSet, Seed: c.Seed,
			RelativePerformance: stats.Geomean(perfs),
			EnergyOverheadPct:   energySum / float64(len(set.normals)),
			TableKB:             schemeTableKB(c.Scheme, c.FlipTH),
			Safe:                safe,
		}, nil
	}
	w := set.rhW
	if c.Workload != multiSidedRH {
		w = set.named[c.Workload]
	}
	scheme, err := rr.buildScheme(c.Scheme, c.FlipTH, c.Seed)
	if err != nil {
		return nil, err
	}
	pt, err := rr.measure(ctx, scheme, c.Seed, c.FlipTH, w, w.Name)
	if err != nil {
		return nil, err
	}
	pt.TableKB = schemeTableKB(c.Scheme, c.FlipTH)
	return &pt, nil
}

// safetyRow attacks one scheme with one registered attack pattern in the
// full simulator and reports the fault-model verdict. The deployed
// scheme's collision oracle (when it exposes one) is handed to the
// pattern build, so oracle-driven patterns like blockhammer-adversarial
// aim at the actual filters under test. The reported Attack is the built
// generator's display name ("multi:32" reports as "multi-sided-32"),
// which keeps the pre-registry golden lines byte-identical.
func (rr *rowRunner) safetyRow(ctx context.Context, c Cell) (*SafetyResult, error) {
	scheme, err := rr.buildScheme(c.Scheme, c.FlipTH, c.Seed)
	if err != nil {
		return nil, err
	}
	oracle, _ := scheme.(attack.Throttler)
	gen, err := attack.Build(c.Attack, attack.Params{Mapper: rr.mapper, Oracle: oracle})
	if err != nil {
		return nil, err
	}
	cfg := BaseSimConfig(c.FlipTH, rr.sc)
	cfg.Scheme = scheme
	cfg.Workload = []trace.Generator{safetyBackground(), gen}
	cfg.InstrPerCore = rr.sc.InstrPerCore * attackInstrFactor
	cfg.RequireCores = 1 // benign core only
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &SafetyResult{
		Scheme: c.Scheme, Attack: gen.Name(), FlipTH: c.FlipTH, Seed: c.Seed,
		Flips: res.Safety.Flips, MaxDisturbance: res.Safety.MaxDisturbance,
		Safe: res.Safety.Safe(),
	}, nil
}

// configGridRow measures the paired Mithril/Mithril+ point of one feasible
// (FlipTH, RFMTH) grid cell.
func (rr *rowRunner) configGridRow(ctx context.Context, c Cell) (*Figure9Point, error) {
	w := rr.workloads[c.Seed]
	opt := mitigation.Options{Timing: rr.sc.Params(), FlipTH: c.FlipTH, RFMTH: c.RFMTH, Seed: c.Seed}
	m, err := rr.measure(ctx, mitigation.NewMithril(opt), c.Seed, c.FlipTH, w, w.Name)
	if err != nil {
		return nil, err
	}
	plus, err := rr.measure(ctx, mitigation.NewMithrilPlus(opt), c.Seed, c.FlipTH, w, w.Name)
	if err != nil {
		return nil, err
	}
	kb, _ := analysis.MithrilTableKB(timing.DDR5(), c.FlipTH, c.RFMTH, 0)
	return &Figure9Point{
		FlipTH: c.FlipTH, RFMTH: c.RFMTH, Seed: c.Seed,
		Mithril: m.RelativePerformance, MithrilPlus: plus.RelativePerformance,
		TableKB:       kb,
		EnergyMithril: m.EnergyOverheadPct, EnergyPlus: plus.EnergyOverheadPct,
	}, nil
}

// adOrDisabled maps AdTH 0 to the mitigation package's "disabled" encoding.
func adOrDisabled(ad int) int {
	if ad == 0 {
		return -1
	}
	return ad
}

// adthRow sweeps the workload classes for one (seed, config, AdTH) point,
// reporting energy overheads plus the Theorem 2 table growth.
func (rr *rowRunner) adthRow(ctx context.Context, c Cell) (*Figure7Point, error) {
	p := rr.sc.Params()
	pt := &Figure7Point{FlipTH: c.FlipTH, RFMTH: c.RFMTH, AdTH: c.AdTH, Seed: c.Seed,
		EnergyOverheadPct: map[string]float64{}}
	if pct, ok := analysis.AdditionalNEntryPercent(p, c.FlipTH, c.RFMTH, c.AdTH); ok {
		pt.AdditionalNEntryPct = pct
	}
	for _, wName := range rr.spec.Axes.Workloads {
		w := adthWorkloads[wName].build(rr.sc.Cores, c.Seed)
		scheme := mitigation.NewMithril(mitigation.Options{
			Timing: p, FlipTH: c.FlipTH, RFMTH: c.RFMTH, AdTH: adOrDisabled(c.AdTH), Seed: c.Seed,
		})
		m, err := rr.measure(ctx, scheme, c.Seed, c.FlipTH, w, w.Name)
		if err != nil {
			return nil, err
		}
		pt.EnergyOverheadPct[wName] = m.EnergyOverheadPct
	}
	return pt, nil
}
