package sim

import (
	"context"
	"testing"

	"mithril/internal/attack"
	"mithril/internal/mc"
	"mithril/internal/mitigation"
	"mithril/internal/timing"
	"mithril/internal/trace"
)

// smallConfig keeps unit-test runs fast: few rows, short instruction
// budget, 4 cores.
func smallConfig() Config {
	p := timing.DDR5()
	p.Rows = 8192
	p.RefreshGroups = 1024
	return Config{
		Params:       p,
		FlipTH:       100000, // high enough that benign runs never flip
		Scheduler:    mc.FRFCFS,
		Policy:       mc.OpenPage,
		InstrPerCore: 4000,
	}
}

func smallWorkload(cores int) trace.Workload {
	return trace.Workload{
		Name: "test",
		Fresh: func() []trace.Generator {
			gens := make([]trace.Generator, cores)
			for i := range gens {
				gens[i] = trace.NewStream("s", uint64(i)<<22, 8<<20, 10, 4)
			}
			return gens
		},
	}
}

func TestRunCompletesAndProducesIPC(t *testing.T) {
	cfg := smallConfig()
	cfg.Workload = smallWorkload(4).Fresh()
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatalf("run did not finish: %+v", res)
	}
	if len(res.IPCs) != 4 || res.AggregateIPC <= 0 {
		t.Fatalf("IPCs = %v", res.IPCs)
	}
	for i, ipc := range res.IPCs {
		if ipc <= 0 || ipc > 4 {
			t.Fatalf("core %d IPC = %v out of (0, 4]", i, ipc)
		}
	}
	if res.Device.ACTs == 0 || res.Device.Reads == 0 {
		t.Fatalf("device saw no traffic: %+v", res.Device)
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("energy should be positive")
	}
	if !res.Safety.Safe() {
		t.Fatalf("benign run flipped: %v", res.Safety)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	if _, err := RunContext(context.Background(), cfg); err == nil {
		t.Fatal("empty workload should error")
	}
	cfg.Workload = smallWorkload(1).Fresh()
	cfg.FlipTH = 0
	if _, err := RunContext(context.Background(), cfg); err == nil {
		t.Fatal("FlipTH=0 should error")
	}
}

func TestComparisonBaselineVsMithril(t *testing.T) {
	cfg := smallConfig()
	scheme, err := mitigation.Build("mithril", mitigation.Options{Timing: cfg.Params, FlipTH: 6250, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := RunComparisonContext(context.Background(), cfg, smallWorkload(4), scheme)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.RelativePerformance <= 50 || cmp.RelativePerformance > 110 {
		t.Fatalf("relative performance = %v%%, want (50, 110]", cmp.RelativePerformance)
	}
	// Small negatives are possible on short runs: RFM stalls deepen the
	// queues, which lets FR-FCFS coalesce more row hits (fewer ACTs).
	if cmp.EnergyOverheadPercent < -5 || cmp.EnergyOverheadPercent > 20 {
		t.Fatalf("energy overhead = %v%%", cmp.EnergyOverheadPercent)
	}
	if cmp.Protected.MC.RFMIssued+cmp.Protected.MC.RFMSkipped == 0 {
		t.Fatal("Mithril run should pace RFMs")
	}
}

func TestAttackFlipsWithoutProtectionAndNotWithMithril(t *testing.T) {
	cfg := smallConfig()
	cfg.FlipTH = 2000
	cfg.InstrPerCore = 40000
	mapper := mc.NewAddressMapper(cfg.Params)

	attackWorkload := trace.Workload{
		Name: "attack",
		Fresh: func() []trace.Generator {
			return []trace.Generator{
				attack.NewDoubleSided(mapper, 0, 0, 1000),
				trace.NewStream("victim", 1<<26, 8<<20, 10, 4),
			}
		},
	}

	// Unprotected: must flip.
	base := cfg
	base.Workload = attackWorkload.Fresh()
	res, err := RunContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Safety.Safe() {
		t.Fatalf("unprotected attack run should flip (max disturbance %v)", res.Safety.MaxDisturbance)
	}

	// Mithril: must not flip.
	prot := cfg
	prot.Scheme, err = mitigation.Build("mithril", mitigation.Options{Timing: cfg.Params, FlipTH: cfg.FlipTH, RFMTH: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prot.Workload = attackWorkload.Fresh()
	pres, err := RunContext(context.Background(), prot)
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Safety.Safe() {
		t.Fatalf("Mithril failed under attack: %v", pres.Safety)
	}
	if pres.Device.RFMs == 0 || pres.Device.PreventiveRows == 0 {
		t.Fatalf("Mithril should have issued RFMs and preventive refreshes: %+v", pres.Device)
	}
}

func TestMithrilPlusSkipsRFMsOnBenignWorkload(t *testing.T) {
	cfg := smallConfig()
	plus, err := mitigation.Build("mithril+", mitigation.Options{Timing: cfg.Params, FlipTH: 6250, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = plus
	cfg.Workload = smallWorkload(4).Fresh()
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.MC
	if st.RFMSkipped == 0 {
		t.Fatalf("Mithril+ should skip RFMs on benign traffic: %+v", st)
	}
	if st.RFMSkipped < st.RFMIssued {
		t.Fatalf("benign traffic should mostly skip (skipped %d, issued %d)", st.RFMSkipped, st.RFMIssued)
	}
}

func TestDeterministicRunsAreReproducible(t *testing.T) {
	cfg := smallConfig()
	cfg.Workload = smallWorkload(2).Fresh()
	a, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := smallConfig()
	cfg2.Workload = smallWorkload(2).Fresh()
	b, err := RunContext(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a.AggregateIPC != b.AggregateIPC || a.SimulatedTime != b.SimulatedTime {
		t.Fatalf("runs diverge: %v vs %v", a.AggregateIPC, b.AggregateIPC)
	}
}
