package expspec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"strings"

	"mithril/internal/energy"
	"mithril/internal/mc"
	"mithril/internal/mitigation"
	"mithril/internal/resultstore"
	"mithril/internal/sim"
	"mithril/internal/sweep"
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

// ---------------------------------------------------------------- row types

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
	// across executions that pass the same cache (nil: each execution
	// fills a private one).
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
// scales without ever conflating their baselines. A row whose baseline
// another worker is filling runs its protected simulation while it waits
// (see Execution.measure), so no worker sits idle on a shared baseline.
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
// caller's own fill under the caller's live ctx. meanwhile is as for
// sweep.Cache.Get, and may run on every retry that finds another caller's
// fill in flight.
func (b *BaselineCache) get(ctx context.Context, k baselineKey, fill func() (baseline, error), meanwhile func()) (baseline, error) {
	for {
		res, err := b.c.Get(k, fill, meanwhile)
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
// threshold's device pool is already warm. So which caller fills a
// baseline never changes its value. When another caller holds the fill,
// meanwhile runs before this caller waits for it.
func (x *Execution) baseline(ctx context.Context, seed uint64, flipTH int, w trace.Workload, id string, meanwhile func()) (baseline, error) {
	return x.baselines.get(ctx, x.sc.baselineKey(seed, id), func() (baseline, error) {
		res, err := sim.RunContext(ctx, x.sc.cfgFor(flipTH, w))
		return baseline{ipcs: res.IPCs, energy: res.Energy}, err
	}, meanwhile)
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
//
// It runs two simulations: the shared unprotected baseline and the
// protected run. When the baseline is unclaimed or already filled, the
// baseline comes first. When another worker is filling it, the protected
// run goes first and measure joins the baseline after, instead of idling
// on the fill. Both runs are deterministic, so the order never changes the
// point; a serial execution never finds a fill in flight.
func (x *Execution) measure(ctx context.Context, scheme mc.Scheme, seed uint64, flipTH int, w trace.Workload, id string) (PerfPoint, error) {
	attackers := w.Attackers
	var (
		res    sim.Result
		runErr error
		ran    bool
	)
	protected := func() {
		if ran {
			return
		}
		ran = true
		cfg := x.sc.cfgFor(flipTH, w)
		cfg.Scheme = scheme
		res, runErr = sim.RunContext(ctx, cfg)
	}
	base, err := x.baseline(ctx, seed, flipTH, w, id, protected)
	if err != nil {
		return PerfPoint{}, err
	}
	protected()
	if runErr != nil {
		return PerfPoint{}, runErr
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

// ---------------------------------------------------------------- executors

// RunAtContext validates the spec and executes its grid at an explicit
// scale (Engine.RunSpec passes the spec's resolved scale with the Engine's
// worker count applied; tests and benchmarks pass their own): it is
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
	k, ok := kindTable[s.Kind]
	if !ok {
		return nil, fmt.Errorf("spec %q: unknown kind %q", s.Name, s.Kind)
	}
	slices.SortFunc(rows, func(a, b Row) int { return cmp.Compare(a.Index, b.Index) })
	res := &Result{Spec: s, Scale: sc}
	for i := range rows {
		if !k.has(rows[i]) || rows[i].points() != 1 {
			return nil, fmt.Errorf("spec %q: row %d has no %s point", s.Name, rows[i].Index, s.Kind)
		}
		if rows[i].Cached {
			res.RowsCached++
		} else {
			res.RowsSimulated++
		}
	}
	k.collect(res, rows)
	return res, nil
}

// points counts the kinds whose point the row carries.
func (row Row) points() int {
	n := 0
	for _, k := range kinds {
		if kindTable[k].has(row) {
			n++
		}
	}
	return n
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
// a wild index has no cell to realize), vets the Mithril operating point
// of every covered row, and keys the covered rows for the store.
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
	// Vet every Mithril point up front, so a point no table size can
	// protect is a 400 before any row runs or any shard is dispatched,
	// not a run failure partway through the stream.
	kind := kindTable[s.Kind]
	vetted := memo[mitigation.Options, bool]{}
	for _, i := range x.rows {
		if opt, ok := kind.mithrilPoint(sc, x.cells[i]); ok {
			if _, err := vetted.get(opt, func() (bool, error) { return true, mitigation.CheckMithril(opt) }); err != nil {
				return nil, err
			}
		}
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
	compute, err := kindTable[x.spec.Kind].prepare(x, rows)
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
		row, err := compute(ctx, x.cells[i])
		if err != nil {
			return Row{}, err
		}
		row.Index, row.Cell = i, x.cells[i]
		return row, nil
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

// memo builds each distinct input once while a kind prepares its rows;
// the rows then only read it, so concurrent row jobs need no locking.
type memo[K comparable, V any] map[K]V

func (m memo[K, V]) get(k K, build func() (V, error)) (V, error) {
	if v, ok := m[k]; ok {
		return v, nil
	}
	v, err := build()
	if err == nil {
		m[k] = v
	}
	return v, err
}

// workloadKey names one prepared workload of a cell. A trace replay
// ignores the seed, so its key drops it: each file is parsed once per
// execution, however many seeds replay it.
type workloadKey struct {
	seed             uint64
	workload, attack string
}

func workloadKeyOf(c Cell) workloadKey {
	if strings.HasPrefix(c.Workload, trace.TracePrefix) {
		return workloadKey{workload: c.Workload}
	}
	return workloadKey{c.Seed, c.Workload, c.Attack}
}

// schemeMithrilPoint is the operating point of a cell deploying Mithril or
// Mithril+: its FlipTH at the paper's RFMTH.
func schemeMithrilPoint(sc Scale, c Cell) (mitigation.Options, bool) {
	return mitigation.Options{Timing: sc.Params(), FlipTH: c.FlipTH}, c.Scheme == "mithril" || c.Scheme == "mithril+"
}

// buildScheme constructs a fresh scheme instance for one simulation. Every
// simulation gets its own instance — tracker state must never leak between
// grid cells (or between the member workloads of a "normal" row).
func (x *Execution) buildScheme(name string, flipTH int, seed uint64) (mc.Scheme, error) {
	return mitigation.Build(name, mitigation.Options{Timing: x.sc.Params(), FlipTH: flipTH, Seed: seed})
}
