package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"mithril/internal/attack"
	"mithril/internal/cpu"
	"mithril/internal/dram"
	"mithril/internal/expspec"
	"mithril/internal/mc"
	"mithril/internal/mitigation"
	"mithril/internal/resultstore"
	"mithril/internal/sim"
	"mithril/internal/timing"
	"mithril/internal/trace"
)

// The layer probes run in every traced run, whatever the workload, so
// each per-layer metric is measured on every workload: one jobs=1 pass
// over a spec of every row class, a few fleet requests, one simulation per
// cell class with a counting scheme, a replay of the captured ACT stream
// into each scheme, and the Device/LLC pool cycle.

// rowClasses are the row kinds the jobs=1 pass times separately.
var rowClasses = []string{"normal", "attack", "adversarial", "safety", "configgrid", "adth", "cached"}

func runProbes(ctx context.Context, e *env) ([]metric, error) {
	if err := rowPass(ctx, e); err != nil {
		return nil, fmt.Errorf("row pass: %w", err)
	}
	if err := fleetProbe(ctx, e); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	out, acts, err := simProbes(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	replayed, err := replaySchemes(e, acts)
	if err != nil {
		return nil, fmt.Errorf("scheme replay: %w", err)
	}
	out = append(out, replayed...)
	return append(out, poolCycles(e)...), nil
}

// rowPass runs one small spec of each kind at golden scale, serially, with
// a store: the gap between two yields is the later row's service time.
// A second pass over the now-warm store times cached rows.
func rowPass(ctx context.Context, e *env) error {
	sc := e.scale("golden", 8, 10_000, 0)
	docs := []struct {
		kind expspec.Kind
		axes expspec.Axes
	}{
		{expspec.Comparison, expspec.Axes{Schemes: []string{"mithril", "blockhammer"}, FlipTHs: []int{1500}, Workloads: []string{"normal", "multi-sided-rh"}, Adversarial: true}},
		{expspec.SafetyKind, expspec.Axes{Schemes: []string{"mithril+", "graphene"}, FlipTHs: []int{2000}, Attacks: []string{"double"}}},
		{expspec.ConfigGrid, expspec.Axes{Workloads: []string{"mix-high"}, Grid: []expspec.GridLevel{{FlipTH: 6250, RFMTHs: []int{256, 128}}}}},
		{expspec.AdTHSweep, expspec.Axes{Configs: adthConfigs, AdTHs: []int{0, 200}, Workloads: []string{"multi-programmed"}}},
	}
	store := traceStore(e.rec, resultstore.NewMem())
	baselines := expspec.NewBaselineCache()
	for pass := 0; pass < 2; pass++ {
		for _, d := range docs {
			sp, _, err := genSpec("probe."+string(d.kind), d.kind, sc, d.axes)
			if err != nil {
				return err
			}
			scale, err := sp.Scale.Resolve()
			if err != nil {
				return err
			}
			scale.Jobs = 1
			pctx, end := e.rec.begin(ctx, "expspec.pass")
			start := time.Now()
			seq, err := sp.StreamRowsAt(pctx, scale, nil, &expspec.ExecOptions{Baselines: baselines, Store: store})
			prev := time.Now()
			e.rec.sample("expspec.setup", ms(prev.Sub(start)))
			if err != nil {
				end()
				return err
			}
			var rows []expspec.Row
			for row, err := range seq {
				if err != nil {
					end()
					return err
				}
				now := time.Now()
				e.rec.record(pctx, "expspec.row."+rowClass(sp.Kind, row), prev, now)
				prev = now
				rows = append(rows, row)
			}
			sort.Slice(rows, func(a, b int) bool { return rows[a].Index < rows[b].Index })
			result, err := sp.NewResult(scale, rows)
			if err == nil {
				err = emit(pctx, e.rec, &bytes.Buffer{}, result)
			}
			end()
			if err != nil {
				return err
			}
		}
		if pass == 0 {
			e.rec.count("expspec.baselines", float64(baselines.Len()))
		}
	}
	return nil
}

func rowClass(kind expspec.Kind, row expspec.Row) string {
	switch {
	case row.Cached:
		return "cached"
	case kind != expspec.Comparison:
		return string(kind)
	case row.Cell.Adversarial:
		return "adversarial"
	case row.Cell.Workload == "normal":
		return "normal"
	default:
		return "attack"
	}
}

// fleetProbe sends one request of each serve kind through a fresh fleet.
func fleetProbe(ctx context.Context, e *env) error {
	inst, err := setupServeFleet(ctx, e)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		uctx, end := e.rec.begin(withRequest(ctx, uint64(i+1)), "bench.unit")
		_, err = inst.unit(uctx, i)
		end()
		if err != nil {
			break
		}
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	return err
}

// countingScheme counts the controller's calls into a scheme and captures
// the first ACTs it sees.
type countingScheme struct {
	mc.Scheme
	activates, preACTs uint64
	acts               []act // captured up to cap(acts)
}

type act struct {
	bank int
	row  uint32
	core int
	now  timing.PicoSeconds
}

func (c *countingScheme) OnActivate(bank int, row uint32, core int, now timing.PicoSeconds) []uint32 {
	c.activates++
	if len(c.acts) < cap(c.acts) {
		c.acts = append(c.acts, act{bank, row, core, now})
	}
	return c.Scheme.OnActivate(bank, row, core, now)
}

func (c *countingScheme) PreACTDelay(bank int, row uint32, core int, now timing.PicoSeconds) timing.PicoSeconds {
	c.preACTs++
	return c.Scheme.PreACTDelay(bank, row, core, now)
}

// simProbes runs one simulation per cell class — benign rows at quick and
// full scale, the multi-sided attack and the BlockHammer adversary at
// attack length — and returns their metrics plus the attack run's ACTs.
func simProbes(ctx context.Context, e *env) ([]metric, []act, error) {
	div := int64(1)
	if e.tiny {
		div = 20
	}
	quick := expspec.QuickScale()
	quick.Seed = inputSeed(e.seed, 0)
	quick.InstrPerCore /= div
	full := quick
	full.Cores, full.InstrPerCore = 16, 50_000/div
	p := quick.Params()
	mapper := mc.NewAddressMapper(p)
	build := func(name string, flipTH int) (mc.Scheme, error) {
		return mitigation.Build(name, mitigation.Options{Timing: p, FlipTH: flipTH, Seed: quick.Seed})
	}
	// attackLength mirrors the executor's attack cells: the attacker as the
	// last core, 64x the instruction budget, ending when the other cores
	// finish.
	attackLength := func(cfg *sim.Config, gens []trace.Generator) {
		cfg.Workload = gens
		cfg.InstrPerCore *= 64
		cfg.RequireCores = len(gens) - 1
	}

	var out []metric
	var captured []act
	for _, class := range []string{"benign-quick", "benign-full", "attack", "adversarial"} {
		var cfg sim.Config
		var scheme mc.Scheme
		var err error
		switch class {
		case "benign-quick":
			cfg = expspec.BaseSimConfig(6250, quick)
			cfg.Workload = trace.MixHigh(quick.Cores, quick.Seed).Fresh()
			scheme, err = build("mithril", 6250)
		case "benign-full":
			cfg = expspec.BaseSimConfig(1500, full)
			cfg.Workload = trace.MixHigh(full.Cores, full.Seed).Fresh()
			scheme, err = build("mithril", 1500)
		case "attack":
			cfg = expspec.BaseSimConfig(1500, quick)
			gens := trace.MixHigh(4, quick.Seed).Fresh()
			gens[3] = attack.NewMultiSided(mapper, 1, 7, 4000, 8)
			attackLength(&cfg, gens)
			scheme, err = build("mithril+", 1500)
		case "adversarial":
			cfg = expspec.BaseSimConfig(1500, quick)
			scheme, err = build("blockhammer", 1500)
			if err == nil {
				attackLength(&cfg, adversarialGens(mapper, quick.Seed, scheme.(attack.Throttler)))
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", class, err)
		}
		counted := &countingScheme{Scheme: scheme}
		if class == "attack" {
			counted.acts = make([]act, 0, 200_000)
		}
		cfg.Scheme = counted
		sctx, end := e.rec.begin(ctx, "sim.run."+class)
		start := time.Now()
		res, err := sim.RunContext(sctx, cfg)
		host := time.Since(start)
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", class, err)
		}
		if res.Device.ACTs == 0 {
			return nil, nil, fmt.Errorf("%s: no ACTs simulated", class)
		}
		captured = append(captured, counted.acts...)
		pre := "sim." + class + "."
		out = append(out,
			metric{pre + "ms", ms(host), "ms"},
			metric{pre + "acts", float64(res.Device.ACTs), "count"},
			metric{pre + "ns_per_act", float64(host.Nanoseconds()) / float64(res.Device.ACTs), "ns/act"},
			metric{pre + "simulated_us", float64(res.SimulatedTime) / float64(timing.Microsecond), "sim_us"},
			metric{"mitigation." + class + ".on_activate_calls", float64(counted.activates), "count"},
			metric{"mitigation." + class + ".pre_act_delay_calls", float64(counted.preACTs), "count"},
		)
		// The RFM classes report commands issued; BlockHammer issues none and
		// throttles instead.
		if class == "adversarial" {
			out = append(out, metric{pre + "throttle_hits", float64(res.MC.ThrottleHit), "count"})
		} else {
			out = append(out, metric{pre + "rfms", float64(res.MC.RFMIssued), "count"})
		}
	}
	return out, captured, nil
}

// adversarialGens mirrors the executor's adversarial comparison cell
// (Figure 10(c)) at quick scale: four mix-high cores, the third replaced
// by a strided service core and the last by an adversary hammering the
// rows that collide with the service core's first two rows in the
// scheme's filters, so BlockHammer throttles the service core.
func adversarialGens(mapper *mc.AddressMapper, seed uint64, oracle attack.Throttler) []trace.Generator {
	gens := trace.MixHigh(4, seed).Fresh()
	service := len(gens) - 2
	base := uint64(service) << 28
	gens[service] = trace.NewStrided("service", base, 8<<20, 257, 6)
	loc := mapper.Map(base)
	var rows []int
	for i := 0; i < 2; i++ {
		for _, r := range oracle.CollidingRows(loc.GlobalBank, uint32(loc.Row+i), 4) {
			rows = append(rows, int(r))
		}
	}
	gens[len(gens)-1] = attack.NewRowList("bh-adversarial", mapper, loc.Channel, loc.Bank, rows)
	return gens
}

// replaySchemes feeds the captured ACT stream into a fresh instance of each
// scheme, issuing RFMs the way the controller's RAA counters would, and
// reports the median host time per ACT over three passes.
func replaySchemes(e *env, acts []act) ([]metric, error) {
	p := expspec.QuickScale().Params()
	var out []metric
	for _, name := range []string{"mithril", "mithril+", "parfm", "blockhammer", "graphene"} {
		var per []float64
		for pass := 0; pass < 3; pass++ {
			s, err := mitigation.Build(name, mitigation.Options{Timing: p, FlipTH: 1500, Seed: inputSeed(e.seed, 0)})
			if err != nil {
				return nil, err
			}
			raa := make([]int, p.TotalBanks())
			start := time.Now()
			for _, a := range acts {
				s.PreACTDelay(a.bank, a.row, a.core, a.now)
				s.OnActivate(a.bank, a.row, a.core, a.now)
				if s.RFMCompatible() {
					if raa[a.bank]++; raa[a.bank] >= s.RFMTH() {
						raa[a.bank] = 0
						if !s.SkipRFM(a.bank) {
							s.OnRFM(a.bank, a.now)
						}
					}
				}
			}
			per = append(per, float64(time.Since(start).Nanoseconds())/float64(max(len(acts), 1)))
		}
		out = append(out, metric{"mitigation." + strings.ReplaceAll(name, "+", "-plus") + ".ns_per_act", median(per), "ns/act"})
	}
	return out, nil
}

// poolCycles times the fixed cost every simulation pays for its Device and
// LLC: a pooled acquire/release cycle, and a construction (what a pool
// miss costs).
func poolCycles(e *env) []metric {
	p := expspec.QuickScale().Params()
	n := 20
	if e.tiny {
		n = 3
	}
	timeMedian := func(n int, f func()) float64 {
		var t []float64
		for k := 0; k < n; k++ {
			start := time.Now()
			f()
			t = append(t, ms(time.Since(start)))
		}
		return median(t)
	}
	return []metric{
		{"dram.acquire_ms", timeMedian(n, func() { dram.ReleaseDevice(dram.AcquireDevice(p, 6250, nil)) }), "ms"},
		{"dram.new_device_ms", timeMedian(3, func() { dram.NewDevice(p, 6250, nil) }), "ms"},
		{"cpu.llc_acquire_ms", timeMedian(n, func() { cpu.ReleaseLLC(cpu.AcquireLLC(16<<20, 16)) }), "ms"},
		{"cpu.new_llc_ms", timeMedian(3, func() { cpu.NewLLC(16<<20, 16) }), "ms"},
	}
}
