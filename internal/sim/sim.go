// Package sim assembles the full system — cores + LLC + memory controller +
// DRAM device + mitigation scheme — and runs event-driven simulations that
// produce the performance, energy, and safety numbers behind the paper's
// evaluation figures. The core is a next-event calendar (calendar.go): each
// iteration advances only the cores and channels with actionable work,
// then jumps the clock to the earliest of request completion, per-bank
// timing expiry, RFM/REF deadline, and core wake-up. The pre-calendar
// tick loop survives in legacy.go as the reference implementation the
// differential-equivalence tests compare against.
package sim

import (
	"context"
	"fmt"
	"sync/atomic"

	"mithril/internal/cpu"
	"mithril/internal/dram"
	"mithril/internal/energy"
	"mithril/internal/mc"
	"mithril/internal/rh"
	"mithril/internal/timing"
	"mithril/internal/trace"
)

// Config describes one simulation run.
type Config struct {
	Params  timing.Params
	FlipTH  int
	Weights []float64 // disturbance weights (nil = double-sided)

	Scheduler mc.SchedulerKind
	Policy    mc.PagePolicy
	Scheme    mc.Scheme // nil = no protection

	Workload     []trace.Generator // one per core
	InstrPerCore int64
	CoreCfg      cpu.CoreConfig
	LLCBytes     int
	LLCWays      int

	// MaxTime bounds the simulated time (a safety stop for starved runs).
	MaxTime timing.PicoSeconds

	// RequireCores ends the run once the first RequireCores cores reach
	// their instruction target (0 = all). Attack experiments set this to
	// the benign core count: a throttled attacker never finishes — that
	// is the mitigation working, not a reason to run forever.
	RequireCores int
}

func (c *Config) normalize() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.FlipTH <= 0 {
		return fmt.Errorf("sim: FlipTH must be positive, got %d", c.FlipTH)
	}
	if len(c.Workload) == 0 {
		return fmt.Errorf("sim: workload has no cores")
	}
	if c.InstrPerCore <= 0 {
		c.InstrPerCore = 100_000
	}
	if c.CoreCfg == (cpu.CoreConfig{}) {
		c.CoreCfg = cpu.DefaultCoreConfig()
	}
	if c.LLCBytes <= 0 {
		c.LLCBytes = 16 << 20 // Table III: 16 MB
	}
	if c.LLCWays <= 0 {
		c.LLCWays = 16
	}
	// The LLC packs tags into 32 bits; proving here that the device's
	// address space fits them spares a check on every access.
	if err := cpu.CheckLLC(c.LLCBytes, c.LLCWays, mc.NewAddressMapper(c.Params).AddressSpace()); err != nil {
		return err
	}
	if c.MaxTime <= 0 {
		c.MaxTime = 400 * timing.Millisecond
	}
	return nil
}

// Result carries everything a run produced.
type Result struct {
	SchemeName    string
	IPCs          []float64
	AggregateIPC  float64
	SimulatedTime timing.PicoSeconds
	Device        dram.BankStats
	MC            mc.Stats
	Energy        energy.Breakdown
	Safety        rh.Report
	LLCHitRate    float64
	Finished      bool // all cores reached their instruction target
}

// completion is a pending memory response. The owning core index is
// recovered from the request ID's top bits (cpu.NewCore seeds each core's
// ID counter at id<<48 and validates the id fits), which keeps the heap
// element at 16 bytes — one fewer word for every sift during push/pop.
type completion struct {
	at    timing.PicoSeconds
	reqID uint64
}

// completionCore extracts the owning core index from a request ID.
//
//mithril:hotpath
func completionCore(reqID uint64) int { return int(reqID >> 48) }

// completionQueue holds pending memory responses sorted by completion
// time. Completion times arrive in loosely increasing order (each is
// now + latency with a nondecreasing now), so a sorted buffer beats a
// binary heap here: most pushes land at the tail after one comparison,
// out-of-order pushes binary-search and shift only the later entries, and
// pop is a head-index bump. A heap's sift comparisons are data-dependent
// branches that mispredict ~half the time; this layout keeps the hot
// delivery path branch-free. Delivery order among equal times follows
// insertion order; completions commute (each touches only its own core).
type completionQueue struct {
	items []completion
	head  int // items[head:] is the live window, sorted ascending by at
}

//mithril:hotpath
func (q *completionQueue) push(c completion) {
	s := q.items
	if q.head >= 32 && q.head*2 >= len(s) {
		// Reclaim the consumed prefix before it forces slice growth: the
		// live window slides right as completions are delivered.
		n := copy(s, s[q.head:])
		s = s[:n]
		q.head = 0
	}
	if n := len(s); n == q.head || s[n-1].at <= c.at {
		q.items = append(s, c)
		return
	}
	// First live element strictly later than c.at; inserting after equal
	// times keeps equal-time delivery in push order.
	lo, hi := q.head, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].at <= c.at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, completion{})
	copy(s[lo+1:], s[lo:len(s)-1])
	s[lo] = c
	q.items = s
}

// minAt reports the earliest pending completion time, or timing.Never
// when the queue is empty (so callers fold it into a min without an
// emptiness branch).
//
//mithril:hotpath
func (q *completionQueue) minAt() timing.PicoSeconds {
	if q.head == len(q.items) {
		return timing.Never
	}
	return q.items[q.head].at
}

//mithril:hotpath
func (q *completionQueue) pop() completion {
	c := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return c
}

// genSource adapts a trace.Generator to the core's Source interface and
// folds generator addresses into the device address space in the same
// step. The space is always a power of two (AddressSpace is 1 << total
// bits), so the fold is a mask rather than a per-access division.
type genSource struct {
	g    trace.Generator
	mask uint64
}

//mithril:hotpath
func (s genSource) Next() cpu.Op {
	a := s.g.Next()
	return cpu.Op{Gap: a.Gap, Addr: a.Addr & s.mask, Write: a.Write, Serialize: a.Serialize, Uncached: a.Uncached}
}

// cancelCheckInterval is how many main-loop iterations pass between
// cooperative ctx polls: frequent enough that cancellation lands within
// microseconds of simulated progress, rare enough that the poll is
// invisible on the tick hot path.
const cancelCheckInterval = 1 << 12

// RunContext executes one simulation to completion (or MaxTime) and
// returns the results. Cancellation is cooperative: the simulation polls
// ctx every few thousand loop iterations and aborts with ctx's error when
// it is done, so a cancelled sweep stops mid-run instead of finishing a
// multi-second grid point it will discard. A context that can never be
// cancelled (context.Background()) adds no per-iteration work.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.normalize(); err != nil {
		return Result{}, err
	}
	scheme := cfg.Scheme
	if scheme == nil {
		scheme = mc.NoProtection{}
	}
	// Device and LLC come from free-list pools: building a device means a
	// bank and a checker object per bank, and the 16 MB LLC's tag array is
	// a megabyte, so a recycled pair spares a short run that allocation.
	// Nothing a Result carries aliases either object, so they are safe to
	// recycle the moment RunContext returns (the reset on reacquisition
	// erases any state, including that of a cancelled run).
	dev := dram.AcquireDevice(cfg.Params, cfg.FlipTH, cfg.Weights)
	defer dram.ReleaseDevice(dev)
	var pending completionQueue
	ctl := mc.NewController(dev, mc.Config{
		Scheduler: cfg.Scheduler,
		Policy:    cfg.Policy,
		Scheme:    scheme,
	}, func(r *mc.Request, at timing.PicoSeconds) {
		pending.push(completion{at: at, reqID: r.ID})
	})
	llc := cpu.AcquireLLC(cfg.LLCBytes, cfg.LLCWays)
	defer cpu.ReleaseLLC(llc)
	space := ctl.Mapper().AddressSpace()
	cores := make([]*cpu.Core, len(cfg.Workload))
	for i, g := range cfg.Workload {
		cores[i] = cpu.NewCore(i, cfg.CoreCfg, genSource{g, space - 1}, llc, cfg.InstrPerCore, ctl.Enqueue)
	}

	cancellable := ctx.Done() != nil
	if cancellable {
		// Short runs can finish inside one check interval; an already-
		// cancelled context must still abort before simulating anything.
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	var now timing.PicoSeconds
	var allDone bool
	var err error
	if useLegacyTickLoop.Load() {
		now, allDone, err = runLoopTicked(ctx, &cfg, cores, ctl, &pending, cancellable)
	} else {
		now, allDone, err = runLoopCalendar(ctx, &cfg, cores, ctl, &pending, newCalendar(len(cores)), cancellable)
	}
	if err != nil {
		return Result{}, err
	}
	res := collect(cfg, scheme, cores, dev, ctl, llc, now)
	res.Finished = allDone
	return res, nil
}

// useLegacyTickLoop routes RunContext through the deprecated tick loop
// (legacy.go) instead of the event calendar. Test-only: the differential-
// equivalence suite flips it to prove both loops produce byte-identical
// results on every shipped quick spec.
var useLegacyTickLoop atomic.Bool

// SetLegacyTickLoop selects the simulator loop for subsequent runs and
// reports the previous setting (restore it with a deferred call). It
// exists solely for the differential-equivalence tests; production code
// always runs the calendar loop.
func SetLegacyTickLoop(v bool) (prev bool) {
	return useLegacyTickLoop.Swap(v)
}

func collect(cfg Config, scheme mc.Scheme, cores []*cpu.Core, dev *dram.Device, ctl *mc.Controller, llc *cpu.LLC, now timing.PicoSeconds) Result {
	res := Result{
		SchemeName:    scheme.Name(),
		SimulatedTime: now,
		Device:        dev.TotalStats(),
		MC:            ctl.Stats(),
		Safety:        dev.SafetyReport(),
		LLCHitRate:    llc.HitRate(),
	}
	for _, c := range cores {
		ipc := c.IPC()
		res.IPCs = append(res.IPCs, ipc)
		res.AggregateIPC += ipc
	}
	res.Energy = energy.Compute(res.Device, res.MC, energy.DefaultParams())
	return res
}

// Comparison holds a protected run normalized against its baseline.
type Comparison struct {
	Baseline  Result
	Protected Result
	// RelativePerformance is protected aggregate IPC / baseline aggregate
	// IPC × 100 (the paper's "relative performance (%)").
	RelativePerformance float64
	// EnergyOverheadPercent is the relative dynamic energy increase.
	EnergyOverheadPercent float64
}

// RunComparisonContext executes the workload twice — unprotected baseline
// and with the scheme — using identical generator state, and reports
// normalized metrics. ctx is threaded through both runs.
func RunComparisonContext(ctx context.Context, cfg Config, workload trace.Workload, scheme mc.Scheme) (Comparison, error) {
	base := cfg
	base.Scheme = nil
	base.Workload = workload.Fresh()
	baseline, err := RunContext(ctx, base)
	if err != nil {
		return Comparison{}, err
	}
	prot := cfg
	prot.Scheme = scheme
	prot.Workload = workload.Fresh()
	protected, err := RunContext(ctx, prot)
	if err != nil {
		return Comparison{}, err
	}
	cmp := Comparison{Baseline: baseline, Protected: protected}
	if baseline.AggregateIPC > 0 {
		cmp.RelativePerformance = 100 * protected.AggregateIPC / baseline.AggregateIPC
	}
	cmp.EnergyOverheadPercent = energy.OverheadPercent(protected.Energy, baseline.Energy)
	return cmp, nil
}
