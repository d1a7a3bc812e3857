package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mithril/internal/mc"
	"mithril/internal/mitigation"
	"mithril/internal/timing"
	"mithril/internal/trace"
)

// TestLoopEquivalenceBackpressure holds the calendar loop to the tick loop
// on runs whose channel queues fill, where the calendar parks blocked
// cores instead of retrying their requests every tick: 16 mix-high cores
// on full-scale DDR5 timing under Mithril, with the default queue and a
// shallow one, for both row-hit-first schedulers. The whole Result must
// match, controller stats and the safety report included.
func TestLoopEquivalenceBackpressure(t *testing.T) {
	p := timing.DDR5()
	for _, sched := range []mc.SchedulerKind{mc.FRFCFS, mc.BLISS} {
		for _, depth := range []int{0, 8} {
			t.Run(fmt.Sprintf("%v/depth=%d", sched, depth), func(t *testing.T) {
				run := func(legacy bool) Result {
					t.Helper()
					defer SetLegacyTickLoop(SetLegacyTickLoop(legacy))
					scheme, err := mitigation.Build("mithril", mitigation.Options{Timing: p, FlipTH: 1500, Seed: 1})
					if err != nil {
						t.Fatal(err)
					}
					res, err := RunContext(context.Background(), Config{
						Params:       p,
						FlipTH:       1500,
						Scheduler:    sched,
						Policy:       mc.MinimalistOpen,
						Scheme:       scheme,
						queueDepth:   depth,
						Workload:     trace.MixHigh(16, 1).Fresh(),
						InstrPerCore: 10_000,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				tick, cal := run(true), run(false)
				if tick.MC.Rejected == 0 {
					t.Fatal("no request was rejected: the run never back-pressured its cores")
				}
				if !reflect.DeepEqual(tick, cal) {
					t.Errorf("calendar loop diverges from tick loop\ntick:     %+v\ncalendar: %+v", tick, cal)
				}
			})
		}
	}
}

func TestServedWakesOnlyCoresParkedOnItsChannel(t *testing.T) {
	const chA, chB = 1, 0
	cal := newCalendar(5)
	// Cores 0 and 3 wait on channel A, core 1 on channel B; cores 2 and 4
	// are not parked.
	cal.park(0, chA, 10)
	cal.park(1, chB, 20)
	cal.park(3, chA, 25)
	cal.park(3, chA, 30) // a completion woke core 3, and it parked again
	cal.cores[2].wake, cal.cores[4].wake = 500, 600
	if cal.parked != 3 {
		t.Fatalf("parked = %d, want 3", cal.parked)
	}

	cal.served(chA)
	want := []coreCal{
		{wake: 0, ready: 10, parkedOn: -1},
		{wake: timing.Never, ready: 20, parkedOn: chB},
		{wake: 500, parkedOn: -1},
		{wake: 0, ready: 30, parkedOn: -1},
		{wake: 600, parkedOn: -1},
	}
	if !reflect.DeepEqual(cal.cores, want) || cal.parked != 1 {
		t.Fatalf("after a serve on channel %d: parked %d, cores %+v; want parked 1, cores %+v", chA, cal.parked, cal.cores, want)
	}
}
