package mithril

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus ablation benches
// for the paper's design choices (Sections III-A, IV-E, V-C).
// Simulation-backed benches run the shipped quick specs at the golden
// scale and report the headline metrics via b.ReportMetric, so a single
// -benchtime=1x pass regenerates every result.

import (
	"context"
	"testing"

	"mithril/internal/analysis"
	"mithril/internal/attack"
	"mithril/internal/core"
	"mithril/internal/dram"
	"mithril/internal/expspec"
	"mithril/internal/mc"
	"mithril/internal/mitigation"
	"mithril/internal/resultstore"
	"mithril/internal/sim"
	"mithril/internal/streaming"
	"mithril/internal/timing"
)

// BenchmarkFigure2 regenerates the ARR-vs-RFM Graphene incompatibility
// curves (analytic).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := Figure2Data()
		if i == b.N-1 {
			b.ReportMetric(pts[3].ARR, "ARR_safe_flipTH_at_2K")
			b.ReportMetric(pts[3].RFM[64], "RFM64_safe_flipTH_at_2K")
		}
	}
}

// BenchmarkFigure6 regenerates the configuration curves (analytic).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series := Figure6Data()
		if i == b.N-1 {
			for _, s := range series {
				if s.FlipTH == 6250 {
					for _, c := range s.CbS {
						if c.RFMTH == 128 {
							b.ReportMetric(float64(c.NEntry), "Nentry_6.25K_rfm128")
							b.ReportMetric(c.TableKB, "KB_6.25K_rfm128")
						}
					}
				}
			}
		}
	}
}

// BenchmarkFigure7 runs the adaptive-refresh AdTH sweep (simulation).
func BenchmarkFigure7(b *testing.B) {
	sc := expspec.GoldenScale()
	eng := NewEngine(DDR5())
	for i := 0; i < b.N; i++ {
		pts := runShipped(b, eng, "figure7.quick", sc).AdTH
		if i == b.N-1 {
			b.ReportMetric(pts[0].EnergyOverheadPct["multi-programmed"], "energy%_AdTH0")
			b.ReportMetric(pts[4].EnergyOverheadPct["multi-programmed"], "energy%_AdTH200")
			b.ReportMetric(pts[4].AdditionalNEntryPct, "extra_Nentry%_AdTH200")
		}
	}
}

// BenchmarkFigure8 regenerates the large-object-sweep characterization.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := Figure8()
		if i == b.N-1 {
			b.ReportMetric(float64(d.SmallDistinct), "rows_small_window")
			b.ReportMetric(float64(d.LargeDistinct), "rows_large_window")
			b.ReportMetric(float64(d.SmallMaxRow), "max_accesses_per_row")
		}
	}
}

// BenchmarkFigure9 compares Mithril and Mithril+ across the (FlipTH, RFMTH)
// grid (simulation).
func BenchmarkFigure9(b *testing.B) {
	sc := expspec.GoldenScale()
	eng := NewEngine(DDR5())
	for i := 0; i < b.N; i++ {
		pts := runShipped(b, eng, "figure9.quick", sc).Grid
		if i == b.N-1 && len(pts) > 0 {
			last := pts[len(pts)-1] // lowest FlipTH point
			b.ReportMetric(last.Mithril, "mithril_perf%")
			b.ReportMetric(last.MithrilPlus, "mithril+_perf%")
			b.ReportMetric(last.TableKB, "tableKB")
		}
	}
}

// BenchmarkFigure10Perf runs the RFM-compatible comparison (simulation):
// normal, multi-sided RH, and BlockHammer-adversarial workloads, with the
// dynamic-energy comparison on normal workloads (Figure 10(d)).
func BenchmarkFigure10Perf(b *testing.B) {
	sc := expspec.GoldenScale()
	sc.FlipTHs = []int{1500}
	eng := NewEngine(DDR5())
	for i := 0; i < b.N; i++ {
		pts := runShipped(b, eng, "figure10.quick", sc).Perf
		if i == b.N-1 {
			for _, p := range pts {
				switch {
				case p.Scheme == "mithril" && p.Workload == "normal":
					b.ReportMetric(p.RelativePerformance, "mithril_normal%")
				case p.Scheme == "mithril+" && p.Workload == "normal":
					b.ReportMetric(p.RelativePerformance, "mithril+_normal%")
				case p.Scheme == "blockhammer" && p.Workload == "bh-adversarial/blockhammer":
					b.ReportMetric(p.RelativePerformance, "blockhammer_adversarial%")
				}
				if p.Workload == "normal" {
					b.ReportMetric(p.EnergyOverheadPct, p.Scheme+"_energy%")
				}
				if !p.Safe {
					b.Fatalf("unsafe point: %v", p)
				}
			}
		}
	}
}

// BenchmarkFigure10Area reports the BlockHammer-vs-Mithril table sizes
// (Figure 10(e), analytic).
func BenchmarkFigure10Area(b *testing.B) {
	p := timing.DDR5()
	for i := 0; i < b.N; i++ {
		for _, f := range analysis.StandardFlipTHs {
			bh := analysis.BlockHammerTableKB(f)
			mt, ok := analysis.MithrilTableKB(p, f, mitigation.PaperRFMTH(f), 0)
			if i == b.N-1 && ok && f == 1500 {
				b.ReportMetric(bh, "blockhammer_KB_1.5K")
				b.ReportMetric(mt, "mithril_KB_1.5K")
				b.ReportMetric(bh/mt, "ratio_1.5K")
			}
		}
	}
}

// BenchmarkFigure11 runs the RFM-non-compatible baseline comparison.
func BenchmarkFigure11(b *testing.B) {
	sc := expspec.GoldenScale()
	sc.FlipTHs = []int{6250}
	eng := NewEngine(DDR5())
	for i := 0; i < b.N; i++ {
		pts := runShipped(b, eng, "figure11.quick", sc).Perf
		if i == b.N-1 {
			for _, p := range pts {
				if p.Workload == "normal" {
					b.ReportMetric(p.RelativePerformance, p.Scheme+"_normal%")
				}
			}
		}
	}
}

// BenchmarkTable4 regenerates the per-bank area table (analytic).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		computed, _ := Table4Data()
		if i == b.N-1 {
			for _, row := range computed {
				if row.Scheme == "Mithril-32 @ DRAM" {
					b.ReportMetric(row.KB[1500], "mithril32_KB_1.5K")
				}
				if row.Scheme == "BlockHammer @ MC" {
					b.ReportMetric(row.KB[1500], "blockhammer_KB_1.5K")
				}
			}
		}
	}
}

// BenchmarkSafetySweep runs the end-to-end attack verdict sweep (E11).
func BenchmarkSafetySweep(b *testing.B) {
	sc := expspec.GoldenScale()
	eng := NewEngine(DDR5())
	for i := 0; i < b.N; i++ {
		results := runShipped(b, eng, "safety.quick", sc).Safety
		if i == b.N-1 {
			unsafe := 0
			for _, r := range results {
				if r.Scheme != "none" && !r.Safe {
					unsafe++
				}
			}
			b.ReportMetric(float64(unsafe), "protected_schemes_flipped")
		}
	}
}

// BenchmarkPARFMFailureModel evaluates the Appendix C recurrence.
func BenchmarkPARFMFailureModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, ok := PARFMRequiredRFMTH(3125)
		if !ok {
			b.Fatal("no feasible RFMTH")
		}
		if i == b.N-1 {
			_, system := PARFMFailure(3125, r)
			b.ReportMetric(float64(r), "required_RFMTH_3.125K")
			b.ReportMetric(system*1e18, "system_failure_x1e18")
		}
	}
}

// ------------------------------------------------------------- Ablations

// BenchmarkAblationGreedyVsReactive quantifies Section III-A: under the
// RFM interface, greedy selection keeps the worst row's unrefreshed count
// bounded while a reactive threshold scheme lets it run far higher.
func BenchmarkAblationGreedyVsReactive(b *testing.B) {
	const nEntry, rfmTH, streamLen = 64, 64, 200_000
	for i := 0; i < b.N; i++ {
		// Greedy (Mithril).
		m := core.New(core.Config{NEntry: nEntry, RFMTH: rfmTH})
		acts := map[uint32]uint64{}
		var worstGreedy uint64
		for j := 0; j < streamLen; j++ {
			row := uint32(j % (nEntry + 1))
			m.OnActivate(row)
			acts[row]++
			if acts[row] > worstGreedy {
				worstGreedy = acts[row]
			}
			if j%rfmTH == rfmTH-1 {
				if aggressor, _, ok := m.OnRFM(); ok {
					acts[aggressor] = 0
				}
			}
		}
		// Reactive: refresh only rows whose estimate crosses a threshold,
		// executed at the next RFM slot (one per interval).
		table := streaming.NewSpaceSaving(nEntry)
		reactive := map[uint32]uint64{}
		pendingQ := []uint32{}
		var worstReactive uint64
		const threshold = 2000
		for j := 0; j < streamLen; j++ {
			row := uint32(j % (nEntry + 1))
			table.Observe(row)
			reactive[row]++
			if reactive[row] > worstReactive {
				worstReactive = reactive[row]
			}
			if table.Estimate(row) >= threshold && len(pendingQ) < nEntry {
				pendingQ = append(pendingQ, row)
			}
			if j%rfmTH == rfmTH-1 && len(pendingQ) > 0 {
				r := pendingQ[0]
				pendingQ = pendingQ[1:]
				reactive[r] = 0
			}
		}
		if i == b.N-1 {
			b.ReportMetric(float64(worstGreedy), "greedy_max_unrefreshed")
			b.ReportMetric(float64(worstReactive), "reactive_max_unrefreshed")
		}
	}
}

// BenchmarkAblationWrapVsReset quantifies Section IV-E: the wrapping
// counter removes Graphene's two-fold threshold degradation, halving the
// required table for the same FlipTH.
func BenchmarkAblationWrapVsReset(b *testing.B) {
	p := timing.DDR5()
	for i := 0; i < b.N; i++ {
		// Mithril sizing (no reset): M < FlipTH/2.
		nWrap, ok1 := analysis.MinNEntry(p, 6250, 128, 0, analysis.DoubleSidedBlast)
		// Reset-based sizing: the reset halves the usable threshold,
		// equivalent to targeting FlipTH/2 with the same machinery.
		nReset, ok2 := analysis.MinNEntry(p, 6250/2, 128, 0, analysis.DoubleSidedBlast)
		if !ok1 || !ok2 {
			b.Fatal("infeasible")
		}
		if i == b.N-1 {
			b.ReportMetric(float64(nWrap), "Nentry_wrapping")
			b.ReportMetric(float64(nReset), "Nentry_with_reset")
			b.ReportMetric(float64(nReset)/float64(nWrap), "reset_penalty_x")
		}
	}
}

// BenchmarkAblationBlastRadius compares double-sided sizing against the
// non-adjacent (range-3) model of Section V-C.
func BenchmarkAblationBlastRadius(b *testing.B) {
	p := timing.DDR5()
	for i := 0; i < b.N; i++ {
		n2, ok1 := analysis.MinNEntry(p, 6250, 128, 0, analysis.DoubleSidedBlast)
		n35, ok2 := analysis.MinNEntry(p, 6250, 128, 0, analysis.NonAdjacentBlast)
		if !ok1 || !ok2 {
			b.Fatal("infeasible")
		}
		if i == b.N-1 {
			b.ReportMetric(float64(n2), "Nentry_double_sided")
			b.ReportMetric(float64(n35), "Nentry_nonadjacent")
		}
	}
}

// ------------------------------------------------- Hot-path microbenches

// BenchmarkSchemeOnActivate measures the per-ACT tracker update of every
// scheme — the inner loop of every simulated activation, kept map- and
// allocation-free by the dense per-bank state layout. Run with -benchmem:
// the steady-state expectation is 0 allocs/op for every scheme.
func BenchmarkSchemeOnActivate(b *testing.B) {
	p := timing.DDR5()
	for _, name := range mitigation.Names() {
		if name == "none" {
			continue
		}
		b.Run(name, func(b *testing.B) {
			s, err := mitigation.Build(name, mitigation.Options{Timing: p, FlipTH: 6250, Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			banks := p.TotalBanks()
			r := streaming.NewRand(11)
			rows := make([]uint32, 4096)
			for i := range rows {
				rows[i] = uint32(r.Intn(p.Rows))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := timing.PicoSeconds(i) * p.TRC
				s.OnActivate(i%banks, rows[i%len(rows)], i%8, now)
			}
		})
	}
}

// BenchmarkControllerACTPath measures the controller's full per-request
// serve path (queue pick, bank timing, RAA/RFM bookkeeping, page policy)
// under the Table III configuration with Mithril+ deployed.
func BenchmarkControllerACTPath(b *testing.B) {
	p := timing.DDR5()
	s, err := mitigation.Build("mithril+", mitigation.Options{Timing: p, FlipTH: 6250, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	dev := dram.NewDevice(p, 6250, nil)
	ctl := mc.NewController(dev, mc.Config{Scheduler: mc.BLISS, Policy: mc.MinimalistOpen, Scheme: s}, nil)
	m := ctl.Mapper()
	space := m.AddressSpace()
	r := streaming.NewRand(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := timing.PicoSeconds(i) * p.TCK
		ctl.Enqueue(&mc.Request{ID: uint64(i), CoreID: i % 8, Addr: r.Uint64() % space})
		ctl.TickDue(now)
	}
}

// ------------------------------------------------------- Sweep engine

// benchmarkSweep runs the Figure 10 comparison grid — the heaviest sweep
// shape: shared baselines, attack workloads, adversarial cells — at a
// fixed worker count.
func benchmarkSweep(b *testing.B, jobs int) {
	sp, err := LoadShippedSpec("figure10.quick")
	if err != nil {
		b.Fatal(err)
	}
	sc := expspec.GoldenScale()
	sc.FlipTHs = []int{1500}
	sc.Jobs = jobs
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sp.RunAtContext(ctx, sc, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(res.Perf)), "points")
		}
	}
}

// BenchmarkSweepSerial is the -jobs 1 reference for the parallel engine.
func BenchmarkSweepSerial(b *testing.B) { benchmarkSweep(b, 1) }

// BenchmarkSweepParallel fans the same grid out over all cores; compare
// ns/op against BenchmarkSweepSerial for the engine's speedup.
func BenchmarkSweepParallel(b *testing.B) { benchmarkSweep(b, 0) }

// BenchmarkSweepWarmStore runs the figure10 quick grid against a fully
// warmed result store: every row is a cache hit, so the measured cost is
// pure store overhead — key hashing, lookup, payload decode, and row
// re-rendering — with zero simulation. Compare against BenchmarkSweepSerial
// for the resume speedup ceiling.
func BenchmarkSweepWarmStore(b *testing.B) {
	sp, err := LoadShippedSpec("figure10.quick")
	if err != nil {
		b.Fatal(err)
	}
	sc := expspec.GoldenScale()
	st := resultstore.NewMem()
	eng := NewEngine(DDR5(), WithResultStore(st))
	ctx := context.Background()
	if _, err := eng.RunSpecAt(ctx, sp, sc); err != nil {
		b.Fatal(err) // warm-up sweep populates the store outside the timer
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.RunSpecAt(ctx, sp, sc)
		if err != nil {
			b.Fatal(err)
		}
		if res.RowsSimulated != 0 {
			b.Fatalf("warm store simulated %d rows", res.RowsSimulated)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.RowsCached), "rows_cached")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (ticks are
// dominated by controller work), the practical limit on experiment scale.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sc := expspec.GoldenScale()
	for i := 0; i < b.N; i++ {
		cfg := expspec.BaseSimConfig(6250, sc)
		cfg.Workload = MixHigh(4, 1).Fresh()
		res, err := sim.RunContext(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.AggregateIPC, "aggregate_IPC")
			b.ReportMetric(float64(res.Device.ACTs), "ACTs")
		}
	}
}

// BenchmarkSimRun measures one simulation, the ladder rung between the
// controller microbenches and the sweeps, and reports host time per
// simulated ACT and the requests full channel queues turned away:
//
//   - benign16: the paper's 16-core system on mix-high at full scale,
//     unprotected, 25k instructions per core — the benign rows, whose
//     channel queues fill;
//   - attack: the golden-scale multi-sided-rh cell under Mithril at
//     FlipTH 1500 — three mix-high cores and an 8-victim attacker at 64x
//     the budget, ending when the benign cores finish.
func BenchmarkSimRun(b *testing.B) {
	cases := []struct {
		name string
		cfg  func() (sim.Config, error)
	}{
		{"benign16", func() (sim.Config, error) {
			sc := expspec.FullScale()
			sc.InstrPerCore = 25_000
			cfg := expspec.BaseSimConfig(6250, sc)
			cfg.Workload = MixHigh(sc.Cores, sc.Seed).Fresh()
			return cfg, nil
		}},
		{"attack", func() (sim.Config, error) {
			sc := expspec.GoldenScale()
			cfg := expspec.BaseSimConfig(1500, sc)
			gens := MixHigh(4, sc.Seed).Fresh()
			gens[3] = attack.NewMultiSided(mc.NewAddressMapper(cfg.Params), 1, 7, 4000, 8)
			cfg.Workload = gens
			cfg.InstrPerCore *= 64
			cfg.RequireCores = 3
			var err error
			cfg.Scheme, err = mitigation.Build("mithril", mitigation.Options{Timing: cfg.Params, FlipTH: 1500, Seed: sc.Seed})
			return cfg, err
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var acts, rejected uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg, err := c.cfg()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := sim.RunContext(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				acts += res.Device.ACTs
				rejected += res.MC.Rejected
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(acts), "ns/ACT")
			b.ReportMetric(float64(acts)/float64(b.N), "ACTs/op")
			b.ReportMetric(float64(rejected)/float64(b.N), "rejections/op")
		})
	}
}
