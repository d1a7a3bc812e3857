package mithril

import (
	"context"
	"iter"

	"mithril/internal/distrib"
	"mithril/internal/expspec"
	"mithril/internal/sim"
	"mithril/internal/sweep"
)

// ProgressFunc observes sweep progress: done output rows completed out of
// total. The Engine serializes calls, so implementations need no locking;
// they must not block for long — they run on the sweep's critical path.
type ProgressFunc func(done, total int)

// ExperimentResultRow is one completed output row of a streaming spec
// execution: Engine.Stream yields these as workers finish grid points, in
// completion order (Row.Index recovers the deterministic grid order).
// Render one as machine-readable values with ExperimentSpec.RowValues.
type ExperimentResultRow = expspec.Row

// Engine is the context-aware entry point to the simulator: construct one
// from the DRAM parameter set plus options, then drive simulations,
// comparisons, and declarative experiment specs through it. Every method
// takes a context.Context and honours cancellation cooperatively — a
// cancelled sweep stops claiming grid points and aborts in-flight
// simulations mid-run.
//
//	eng := mithril.NewEngine(mithril.DDR5(),
//	    mithril.WithJobs(8),
//	    mithril.WithProgress(func(done, total int) { log.Printf("%d/%d", done, total) }),
//	)
//	res, err := eng.RunSpec(ctx, spec)
//
// An Engine is immutable after construction and safe for concurrent use.
type Engine struct {
	params    TimingParams
	jobs      int // 0: leave the scale's worker count alone
	progress  ProgressFunc
	baselines *expspec.BaselineCache
	store     ResultStore
	coord     *distrib.Coordinator
	coordErr  error
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithJobs fixes the sweep worker count for every spec the Engine runs,
// overriding the Scale.Jobs of the specs' resolved scales (n <= 0 means
// one worker per core, mirroring Scale.Jobs).
func WithJobs(n int) EngineOption {
	return func(e *Engine) {
		e.jobs = n
		if n <= 0 {
			e.jobs = sweep.DefaultJobs()
		}
	}
}

// WithProgress installs a progress hook invoked after each output row of a
// spec execution completes.
func WithProgress(fn ProgressFunc) EngineOption {
	return func(e *Engine) { e.progress = fn }
}

// WithBaselineCache gives the Engine a persistent unprotected-baseline
// cache shared across every RunSpec/Stream call: a service running many
// overlapping scenarios simulates each distinct baseline once, not once
// per request. Entries are keyed by the machine a baseline run simulates
// (scale geometry, seed, and the workload's generators), not by FlipTH or
// scheme, which never change an unprotected run; without this option each
// execution uses a private cache.
func WithBaselineCache() EngineOption {
	return func(e *Engine) { e.baselines = expspec.NewBaselineCache() }
}

// WithResultStore attaches a content-addressed result store shared by
// every RunSpec/Stream call: each grid row is looked up before it
// simulates and written back when a worker completes it, so a row is
// simulated at most once across executions — and, with a disk store
// (OpenResultStore), across process lifetimes. Keys cover everything
// that determines a row (cell values, timing parameters, scale geometry,
// schema/registry stamp), so sharing is always sound and output stays
// byte-identical with or without the store. ExperimentResult's
// RowsCached/RowsSimulated report the split.
func WithResultStore(st ResultStore) EngineOption {
	return func(e *Engine) { e.store = st }
}

// WithWorkers fans every spec execution out across mithrilsim serve
// worker peers (base URLs, e.g. "http://host:8377"): the grid is
// partitioned into shards, shards stream back over POST /v1/run, failed
// or disconnected shards are re-dispatched against surviving workers,
// and rows merge back in deterministic grid order — RunSpec output is
// byte-identical to a local run. The other options apply exactly as they
// do locally, through the same execution: WithResultStore serves stored
// rows before any dispatch and writes delivered rows back (so a retried
// row is never simulated twice), WithProgress observes every delivered
// row, and WithJobs and WithBaselineCache apply to rows the coordinator
// must run itself, i.e. trace-file workloads that cannot travel. An empty
// or malformed worker list surfaces as an error from the first
// RunSpec/Stream call.
func WithWorkers(workers []string) EngineOption {
	return func(e *Engine) {
		e.coord, e.coordErr = distrib.New(workers, distrib.Options{})
	}
}

// NewEngine builds an Engine for the DRAM parameter set p (the default
// Params for Run/Compare configs that leave theirs zero).
func NewEngine(p TimingParams, opts ...EngineOption) *Engine {
	e := &Engine{params: p}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// execOptions binds the Engine's hooks for one spec execution.
func (e *Engine) execOptions() *expspec.ExecOptions {
	return &expspec.ExecOptions{Progress: e.progress, Baselines: e.baselines, Store: e.store}
}

// scaleFor resolves a spec's scale with the Engine's worker count applied.
func (e *Engine) scaleFor(sp *ExperimentSpec) (Scale, error) {
	sc, err := sp.Scale.Resolve()
	if err != nil {
		return Scale{}, err
	}
	return e.applyJobs(sc), nil
}

func (e *Engine) applyJobs(sc Scale) Scale {
	if e.jobs != 0 {
		sc.Jobs = e.jobs
	}
	return sc
}

// Run executes one simulation under ctx. A zero cfg.Params inherits the
// Engine's parameter set.
func (e *Engine) Run(ctx context.Context, cfg SimConfig) (SimResult, error) {
	if cfg.Params == (TimingParams{}) {
		cfg.Params = e.params
	}
	return sim.RunContext(ctx, cfg)
}

// Compare runs a workload unprotected and protected under ctx and reports
// normalized performance and energy. A zero cfg.Params inherits the
// Engine's parameter set.
func (e *Engine) Compare(ctx context.Context, cfg SimConfig, w Workload, s Scheme) (Comparison, error) {
	if cfg.Params == (TimingParams{}) {
		cfg.Params = e.params
	}
	return sim.RunComparisonContext(ctx, cfg, w, s)
}

// RunSpec executes a declarative experiment spec at the spec's own scale
// (with the Engine's worker count applied) and returns the complete result
// in deterministic grid order.
func (e *Engine) RunSpec(ctx context.Context, sp *ExperimentSpec) (*ExperimentResult, error) {
	sc, err := e.scaleFor(sp)
	if err != nil {
		return nil, err
	}
	return e.RunSpecAt(ctx, sp, sc)
}

// RunSpecAt is RunSpec at an explicit scale, overriding the spec's own
// (benchmarks and tests run the shipped specs at smaller ones): StreamAt's
// rows collected into a Result. A local run collects through RunAtContext,
// which sizes the row slice from the expanded grid up front.
func (e *Engine) RunSpecAt(ctx context.Context, sp *ExperimentSpec, sc Scale) (*ExperimentResult, error) {
	if e.coord == nil && e.coordErr == nil {
		return sp.RunAtContext(ctx, e.applyJobs(sc), e.execOptions())
	}
	var rows []ExperimentResultRow
	for row, err := range e.StreamAt(ctx, sp, sc) {
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return sp.NewResult(e.applyJobs(sc), rows)
}

// Stream executes a spec at its own scale and yields each output row as
// workers finish it — completion order, not grid order. The sequence
// terminates with a single non-nil error when a grid point fails or ctx is
// cancelled; breaking out of the range cancels the remaining grid, and all
// workers have exited by the time the range ends. This is the entry point
// for long-running consumers (the serve endpoint's NDJSON responses) that
// must surface results before the sweep completes.
func (e *Engine) Stream(ctx context.Context, sp *ExperimentSpec) iter.Seq2[ExperimentResultRow, error] {
	sc, err := e.scaleFor(sp)
	if err != nil {
		return errSeq(err)
	}
	return e.StreamAt(ctx, sp, sc)
}

// StreamAt is Stream at an explicit scale.
func (e *Engine) StreamAt(ctx context.Context, sp *ExperimentSpec, sc Scale) iter.Seq2[ExperimentResultRow, error] {
	var seq iter.Seq2[ExperimentResultRow, error]
	err := e.coordErr
	switch {
	case err != nil:
	case e.coord != nil:
		seq, err = e.coord.Stream(ctx, sp, e.applyJobs(sc), e.execOptions())
	default:
		seq, err = sp.StreamRowsAt(ctx, e.applyJobs(sc), nil, e.execOptions())
	}
	if err != nil {
		return errSeq(err)
	}
	return seq
}

// errSeq is a row sequence that yields err once: how Stream reports a
// failure to start.
func errSeq(err error) iter.Seq2[ExperimentResultRow, error] {
	return func(yield func(ExperimentResultRow, error) bool) { yield(ExperimentResultRow{}, err) }
}

// RunParallelContext executes fn(ctx, 0..n-1) on up to jobs workers (0 =
// all cores) and returns the results in index order. The first cell error
// (or a ctx cancellation) cancels the context handed to the remaining
// cells, so long-running cells can abort cooperatively. Downstream studies
// fan their own simulation grids out on this (see
// examples/scheduler_study).
func RunParallelContext[T any](ctx context.Context, jobs, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return sweep.RunContext(ctx, jobs, n, fn)
}
