package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// A run sets its workload up at least minSetups times, and more while the
// set-ups have taken under setupBudget in total (cheap set-ups repeat up
// to maxSetups times; smoke-test runs stop at minSetups); setup_s is the
// median.
const (
	minSetups   = 3
	maxSetups   = 50
	setupBudget = time.Second
)

// workload is one benchmark input set. Its timed phase is a closed loop
// with one caller, which starts each unit when the previous one returns.
type workload struct {
	name string
	// minUnits is the number of units every run completes, whatever
	// --seconds says; the output digest covers exactly these units.
	minUnits int
	// setup builds an instance ready for its first unit.
	setup func(ctx context.Context, e *env) (instance, error)
}

// instance is a set-up workload. unit runs unit i — a sweep repetition, a
// replay or a request — and checks its output. reset runs before every
// unit, outside its time, and returns the process to the state set-up
// left it in.
type instance interface {
	reset()
	unit(ctx context.Context, i int) (unitOut, error)
	close() error
}

// unitOut is what one unit delivered.
type unitOut struct {
	rows      int
	firstRows []time.Duration // per execution (spec run or request): start to first row
	out       []byte          // canonical output, digested and compared across units
}

// env is what a workload's set-up receives.
type env struct {
	seed uint64
	tiny bool
	dir  string    // private directory, removed after the run
	rec  *recorder // nil: untraced
}

// unitRecord is one finished unit.
type unitRecord struct {
	i      int
	dur    time.Duration
	rssMB  float64 // the process's peak resident set while the unit ran
	bytes  uint64  // heap bytes allocated while the unit ran
	allocs uint64  // heap objects allocated while the unit ran
	out    unitOut
	err    error
}

// drive runs units one after another until the budget is spent and at
// least w.minUnits units have run. Between units, outside their time, it
// resets the instance and, when one is due, takes a host reference sample
// (host may be nil).
func drive(ctx context.Context, inst instance, w *workload, budget time.Duration, rec *recorder, host *hostRef) ([]unitRecord, error) {
	deadline := time.Now().Add(budget)
	var recs []unitRecord
	for i := 0; ctx.Err() == nil && (i < w.minUnits || time.Now().Before(deadline)); i++ {
		inst.reset()
		if host != nil && host.due() {
			if err := host.sample(); err != nil {
				return recs, err
			}
		}
		if err := resetPeakRSS(); err != nil {
			return recs, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		uctx, end := rec.begin(withRequest(ctx, uint64(i+1)), "bench.unit")
		start := time.Now()
		out, err := inst.unit(uctx, i)
		d := time.Since(start)
		end()
		runtime.ReadMemStats(&after)
		recs = append(recs, unitRecord{
			i: i, dur: d, rssMB: peakRSSMB(),
			bytes: after.TotalAlloc - before.TotalAlloc, allocs: after.Mallocs - before.Mallocs,
			out: out, err: err,
		})
	}
	return recs, ctx.Err()
}

// tally folds unit records into the report's counts and problems.
func (r *report) tally(recs []unitRecord) {
	for _, u := range recs {
		r.attempted++
		if u.err != nil {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("unit %d: %v", u.i, u.err))
		}
	}
}

// newEnv makes a fresh private directory under root for one set-up.
func newEnv(cfg config, root, name string, rec *recorder) (*env, error) {
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{seed: cfg.seed, tiny: cfg.tiny, dir: dir, rec: rec}, nil
}

// measure runs one workload and reports its end-to-end metrics, or with
// cfg.trace its per-layer metrics.
func measure(ctx context.Context, w *workload, cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.scratch, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	if cfg.trace {
		return measureTraced(ctx, w, cfg, root)
	}

	host, err := startHostRef(ctx)
	if err != nil {
		return nil, err
	}
	rep, err := measureHost(ctx, w, cfg, root, host)
	if cerr := host.close(); err == nil && cerr != nil {
		err = fmt.Errorf("reference process: %w", cerr)
	}
	return rep, err
}

// measureHost is the untraced run: set-up several times, then the timed
// phase, with host reference samples taken outside both.
func measureHost(ctx context.Context, w *workload, cfg config, root string, host *hostRef) (*report, error) {
	// Set up several times, each from the same collected heap; the last
	// instance is the one measured.
	var setups []float64
	var inst instance
	var total time.Duration
	for k := 0; k < minSetups || (!cfg.tiny && k < maxSetups && total < setupBudget); k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
		freshHeap()
		if host.due() {
			if err := host.sample(); err != nil {
				return nil, err
			}
		}
		e, err := newEnv(cfg, root, fmt.Sprintf("setup-%d", k), nil)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		inst, err = w.setup(ctx, e)
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		total += d
		setups = append(setups, d.Seconds())
	}

	// Return the set-up's freed memory to the OS, so that the first units'
	// resident sets do not carry it.
	inst.reset()
	debug.FreeOSMemory()
	recs, err := drive(ctx, inst, w, budget(cfg.seconds), nil, host)
	if err != nil {
		inst.close()
		return nil, err
	}

	rep := &report{}
	rep.tally(recs)
	if err := inst.close(); err != nil {
		rep.problems = append(rep.problems, fmt.Sprintf("tear-down: %v", err))
	}
	var durs, firsts, rss, allocBytes, allocs []float64
	var outs [][]byte
	var busy time.Duration
	rows := 0
	for _, u := range recs {
		durs = append(durs, ms(u.dur))
		rss = append(rss, u.rssMB)
		allocBytes = append(allocBytes, float64(u.bytes))
		allocs = append(allocs, float64(u.allocs))
		busy += u.dur
		if f := u.out.firstRows; len(f) > 0 {
			var sum time.Duration
			for _, d := range f {
				sum += d
			}
			firsts = append(firsts, ms(sum)/float64(len(f)))
		}
		rows += u.out.rows
		if u.i < w.minUnits {
			outs = append(outs, u.out.out)
		}
	}
	rep.digest = digest(outs)

	// Host times are reported at nominal host speed; the raw values go on
	// the comment lines.
	times := []metric{
		{"setup_s", median(setups), "s"},
		{"unit_p50_ms", median(durs), "ms"},
		{"unit_p90_ms", quantile(durs, 0.9), "ms"},
		{"first_row_p50_ms", median(firsts), "ms"},
	}
	rate := metric{"rows_per_s", float64(rows) / busy.Seconds(), "rows/s"}
	f := host.factor()
	for _, m := range times {
		rep.metrics = append(rep.metrics, metric{m.name, m.value * f, m.unit})
		rep.info = append(rep.info, metric{"raw." + m.name, m.value, m.unit})
	}
	rep.metrics = append(rep.metrics,
		metric{rate.name, rate.value / f, rate.unit},
		metric{"alloc_mb", median(allocBytes) / 1e6, "MB"},
		metric{"allocs_k", median(allocs) / 1e3, "k"},
		metric{"max_rss_mb", median(rss), "MB"},
	)
	rep.info = append(rep.info,
		metric{"raw." + rate.name, rate.value, rate.unit},
		metric{"host.ref_p50_ms", median(host.samples), "ms"},
		metric{"host.ref_samples", float64(len(host.samples)), "count"},
		metric{"host.factor", f, "x"},
	)
	return rep, nil
}

// measureTraced runs the workload untraced, then traced with a span
// recorder (each half gets half the budget and at least minUnits units),
// then the layer probes, and reports the per-layer metrics. Both halves
// must produce the same output: tracing never changes a row.
func measureTraced(ctx context.Context, w *workload, cfg config, root string) (*report, error) {
	rep := &report{}
	half := budget(cfg.seconds) / 2
	var p50 [2]float64
	rec := newRecorder()
	for k, r := range []*recorder{nil, rec} {
		e, err := newEnv(cfg, root, fmt.Sprintf("half-%d", k), r)
		if err != nil {
			return nil, err
		}
		inst, err := w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		recs, err := drive(ctx, inst, w, half, r, nil)
		if err != nil {
			inst.close()
			return nil, err
		}
		rep.tally(recs)
		if err := inst.close(); err != nil {
			rep.problems = append(rep.problems, fmt.Sprintf("tear-down: %v", err))
		}
		var durs []float64
		var outs [][]byte
		for _, u := range recs {
			durs = append(durs, ms(u.dur))
			if u.i < w.minUnits {
				outs = append(outs, u.out.out)
			}
		}
		p50[k] = median(durs)
		if d := digest(outs); k == 1 && d != rep.digest {
			rep.problems = append(rep.problems, "traced output differs from untraced output")
		} else {
			rep.digest = d
		}
	}
	e, err := newEnv(cfg, root, "probes", rec)
	if err != nil {
		return nil, err
	}
	probes, err := runProbes(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	rep.metrics = append(rec.layerMetrics(), probes...)
	rep.metrics = append(rep.metrics, metric{"trace_overhead_pct", 100 * (p50[1]/p50[0] - 1), "%"})
	if err := rec.writeSpans(filepath.Join(cfg.spans, w.name+".spans.json"), w.name, cfg.seed); err != nil {
		return nil, err
	}
	return rep, nil
}

// freshHeap leaves the heap as a new process would have it: two
// collections free everything sync.Pool held (the first moves pooled
// objects to the victim cache, the second frees them), so the Device and
// LLC pools are empty, and the freed memory goes back to the OS. Without
// it, whatever pooled devices the previous unit left behind decide the
// next unit's allocations and speed.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

func budget(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
