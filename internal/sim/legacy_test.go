package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mithril/internal/attack"
	"mithril/internal/cpu"
	"mithril/internal/mc"
	"mithril/internal/mitigation"
	"mithril/internal/timing"
	"mithril/internal/trace"
)

// runLoopTicked is the reference loop runLoopCalendar is held to: deliver
// due completions, advance every core, tick the controller, then jump to
// the earliest of the controller's deadline, the next completion, and
// every core's deadline. It caches nothing per core and never parks one,
// so a divergence between the two loops indicts a calendar skip, park or
// cached-deadline decision. The controller's own skip and cache decisions
// have their reference one layer down, in internal/mc.
func runLoopTicked(cfg *Config, cores []*cpu.Core, ctl *mc.Controller, pending *completionQueue) (now timing.PicoSeconds, allDone bool) {
	clk := tickClock{tick: cfg.Params.TCK}
	required := cfg.RequireCores
	if required <= 0 || required > len(cores) {
		required = len(cores)
	}
	for {
		now := clk.now
		for pending.minAt() <= now {
			c := pending.pop()
			cores[completionCore(c.reqID)].Complete(c.reqID, c.at)
		}
		allDone := true
		for i, core := range cores {
			core.Advance(now)
			if i < required && !core.Finished() {
				allDone = false
			}
		}
		if allDone || now > cfg.MaxTime {
			return now, allDone
		}
		ctl.TickDue(now)
		next := ctl.NextDeadline(now)
		if t := pending.minAt(); t < next {
			next = t
		}
		for _, core := range cores {
			if t := core.NextDeadline(now); t < next {
				next = t
			}
		}
		clk.Step(next)
	}
}

// runTicked is RunContext with the reference loop in place of the
// calendar.
func runTicked(cfg Config) (Result, error) {
	if err := cfg.normalize(); err != nil {
		return Result{}, err
	}
	s := assemble(&cfg)
	defer s.release()
	now, allDone := runLoopTicked(&cfg, s.cores, s.ctl, s.pending)
	return s.collect(now, allDone), nil
}

// compareLoops runs a fresh configuration from build through the reference
// loop and through RunContext, and fails unless the whole Results match
// (controller stats and the safety report included). It returns the
// calendar loop's Result.
func compareLoops(t *testing.T, build func() Config) Result {
	t.Helper()
	ref, err := runTicked(build())
	if err != nil {
		t.Fatalf("reference loop: %v", err)
	}
	got, err := RunContext(context.Background(), build())
	if err != nil {
		t.Fatalf("calendar loop: %v", err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Errorf("calendar loop diverges from the reference loop\nreference: %+v\ncalendar:  %+v", ref, got)
	}
	return got
}

// TestLoopEquivalenceSchemes holds the calendar loop to the reference loop
// under every scheme the shipped quick specs deploy, at quick-scale time
// compression (tREFW / 8) and FlipTH 1500: a streaming background core and
// an 8-sided attacker, the run ending when the background core finishes
// (RequireCores), so RFM pacing, Mithril+ skips, preventive refreshes and
// throttling all fire. BlockHammer also faces blockhammer-adversarial,
// aimed through its own collision oracle.
func TestLoopEquivalenceSchemes(t *testing.T) {
	p := timing.DDR5()
	p.TREFW /= 8
	p.RefreshGroups /= 8
	mapper := mc.NewAddressMapper(p)
	cases := []struct{ scheme, attack string }{
		{"none", "multi:8"}, {"para", "multi:8"}, {"cbt", "multi:8"}, {"twice", "multi:8"},
		{"graphene", "multi:8"}, {"parfm", "multi:8"}, {"mithril", "multi:8"}, {"mithril+", "multi:8"},
		{"blockhammer", "multi:8"}, {"blockhammer", "blockhammer-adversarial"},
	}
	for _, tc := range cases {
		t.Run(tc.scheme+"/"+tc.attack, func(t *testing.T) {
			build := func() Config {
				scheme, err := mitigation.Build(tc.scheme, mitigation.Options{Timing: p, FlipTH: 1500, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				oracle, _ := scheme.(attack.Throttler)
				gen, err := attack.Build(tc.attack, attack.Params{Mapper: mapper, Oracle: oracle})
				if err != nil {
					t.Fatal(err)
				}
				return Config{
					Params:       p,
					FlipTH:       1500,
					Scheduler:    mc.BLISS,
					Policy:       mc.MinimalistOpen,
					Scheme:       scheme,
					Workload:     []trace.Generator{trace.NewStream("bg", 1<<28, 64<<20, 10, 4), gen},
					InstrPerCore: 1_000_000,
					RequireCores: 1,
				}
			}
			res := compareLoops(t, build)
			st := res.MC
			if tc.scheme != "none" && st.RFMIssued+st.RFMSkipped+st.ARRWindows+st.ThrottleHit == 0 {
				t.Fatalf("%s never acted on the attack: %+v", tc.scheme, st)
			}
		})
	}
}

// TestLoopEquivalenceBackpressure holds the calendar loop to the reference
// loop on runs whose channel queues fill, where the calendar parks blocked
// cores instead of retrying their requests every iteration: 16 mix-high
// cores on full-scale DDR5 timing under Mithril, with the default queue
// and a shallow one, for both row-hit-first schedulers. The runs finish
// in about 110 µs of simulated time; MaxTime at 1 ms makes a core that
// stays parked end the run unfinished within seconds of host time, rather
// than stepping one tick at a time to the 400 ms default.
func TestLoopEquivalenceBackpressure(t *testing.T) {
	p := timing.DDR5()
	for _, sched := range []mc.SchedulerKind{mc.FRFCFS, mc.BLISS} {
		for _, depth := range []int{0, 8} {
			t.Run(fmt.Sprintf("%v/depth=%d", sched, depth), func(t *testing.T) {
				res := compareLoops(t, func() Config {
					scheme, err := mitigation.Build("mithril", mitigation.Options{Timing: p, FlipTH: 1500, Seed: 1})
					if err != nil {
						t.Fatal(err)
					}
					return Config{
						Params:       p,
						FlipTH:       1500,
						Scheduler:    sched,
						Policy:       mc.MinimalistOpen,
						Scheme:       scheme,
						queueDepth:   depth,
						Workload:     trace.MixHigh(16, 1).Fresh(),
						InstrPerCore: 10_000,
						MaxTime:      timing.Millisecond,
					}
				})
				if res.MC.Rejected == 0 {
					t.Fatal("no request was rejected: the run never back-pressured its cores")
				}
			})
		}
	}
}
