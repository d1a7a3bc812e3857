package sim

import (
	"context"

	"mithril/internal/cpu"
	"mithril/internal/mc"
	"mithril/internal/timing"
)

// calendar is the next-event state the event-driven loop keeps per core. It
// generalizes the completion heap: completions, controller deadlines
// (refresh, matured work, scheme), and core wake-ups all feed one jump
// computation, and cores whose wake time lies in the future are not
// advanced at all. Two deadlines per core, not one, because they answer
// different questions:
//
//   - wake: earliest instant Advance would change any state — the advance
//     gate. Skipping a core with wake > now is exact, not heuristic: every
//     early-return path in Advance mutates nothing.
//   - ready: the core's contribution to the clock jump (Core.NextDeadline).
//     A core that only needs one Advance to latch Finished has a wake time
//     but no ready deadline; folding its wake into the jump would add
//     iterations that a loop advancing every core never runs, and change
//     observable interleavings.
//
// Both caches stay valid while a core is skipped because its state is
// mutated only by Advance and Complete, and every Complete delivery resets
// wake to now.
//
// A core whose request a full channel queue turned away is parked on that
// channel: wake is Never, because its retry fails until the channel serves
// (queues shrink nowhere else), and ready is pinned to the instant it
// parked, because a blocked core's deadline is "retry now" and so steps
// the clock one tick at a time. The controller's complete callback reports
// every serve through served, which wakes every core parked on that
// channel. Woken cores retry in core order, so one that loses the freed
// slot to a lower-indexed core parks again, exactly as a retry on every
// iteration would have failed.
//
// The per-core state is allocated once per run in RunContext, in one
// slice (the loop itself is allocation-free).
type calendar struct {
	cores  []coreCal
	parked int // cores with parkedOn >= 0
}

// coreCal is one core's calendar entry.
type coreCal struct {
	wake, ready timing.PicoSeconds
	parkedOn    int // channel the core waits on, or -1
}

func newCalendar(cores int) *calendar {
	cal := &calendar{cores: make([]coreCal, cores)}
	for i := range cal.cores {
		// Zero wake: every core advances at t=0.
		cal.cores[i].parkedOn = -1
	}
	return cal
}

// park takes core i out of the advance pass until channel ch serves. Its
// jump contribution stays pinned to now: a blocked core keeps the clock
// stepping one tick at a time. A parked core that a completion woke
// retries against the same full queue and parks again.
//
//mithril:hotpath
func (cal *calendar) park(i, ch int, now timing.PicoSeconds) {
	e := &cal.cores[i]
	if e.parkedOn < 0 {
		cal.parked++
	}
	e.parkedOn = ch
	e.wake = timing.Never
	e.ready = now
}

// served wakes every core parked on channel ch, whose queue has just freed
// a slot. The controller serves after the loop's advance pass, so a wake
// time of zero means "advance on the next iteration", the first one on
// which its retry can succeed.
//
//mithril:hotpath
func (cal *calendar) served(ch int) {
	if cal.parked == 0 {
		return
	}
	for i := range cal.cores {
		if e := &cal.cores[i]; e.parkedOn == ch {
			e.parkedOn = -1
			e.wake = 0
			cal.parked--
		}
	}
}

// runLoopCalendar is the event-driven simulator core: deliver due
// completions, advance exactly the cores whose wake time has arrived, tick
// exactly the channels with actionable work, then jump the clock to the
// earliest of request completion, per-bank timing expiry, RFM/REF
// deadline, and core wake-up. It is iteration-for-iteration equivalent to
// a loop that advances every core on every iteration — same time series,
// same per-iteration side effects — because the work it skips is
// exclusively Advance calls that would mutate nothing. The package tests
// hold it to that loop (legacy_test.go) on whole Results, for every scheme
// the shipped quick specs use and on runs whose channel queues fill; the
// repository's testdata/golden_*.quick.txt pin its output on every
// shipped quick spec.
//
//mithril:hotpath
func runLoopCalendar(ctx context.Context, cfg *Config, cores []*cpu.Core, ctl *mc.Controller, pending *completionQueue, cal *calendar, cancellable bool) (now timing.PicoSeconds, allDone bool, err error) {
	clk := tickClock{tick: cfg.Params.TCK}
	required := cfg.RequireCores
	if required <= 0 || required > len(cores) {
		required = len(cores)
	}
	// Cores start unfinished (NewCore rejects non-positive targets), and
	// only Advance can flip Finished, so counting transitions in the
	// advance pass keeps the done check O(1) per iteration.
	unfinished := required
	sinceCheck := 0
	for {
		if cancellable {
			sinceCheck++
			if sinceCheck >= cancelCheckInterval {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					return clk.now, false, err
				}
			}
		}
		now := clk.now
		// Deliver due completions; a delivery unblocks its core (MSHR slot,
		// ROB head, or serialization drain), so its wake time collapses to
		// now regardless of what was cached.
		for pending.minAt() <= now {
			c := pending.pop()
			core := completionCore(c.reqID)
			cores[core].Complete(c.reqID, c.at)
			cal.cores[core].wake = now
		}
		for i, core := range cores {
			e := &cal.cores[i]
			if e.wake > now {
				continue
			}
			wasUnfinished := i < required && !core.Finished()
			core.Advance(now)
			if wasUnfinished && core.Finished() {
				unfinished--
			}
			// A parked core advances only once a serve on its channel
			// unparked it, or when a completion woke it; then no slot has
			// freed and it parks again. So a core that is not blocked
			// after Advance is not parked.
			if ch := core.BlockedChannel(); ch >= 0 {
				cal.park(i, ch, now)
			} else {
				e.wake = core.NextWake(now)
				e.ready = core.NextDeadline(now)
			}
		}
		if unfinished == 0 || now > cfg.MaxTime {
			return now, unfinished == 0, nil
		}
		ctl.TickDue(now)
		// Jump target: the controller's own deadline (refresh, matured
		// work, scheme), the next completion, and the cores' deadlines.
		// Cached ready values were clamped to an earlier now — harmless,
		// since Step takes the max against now+tick anyway.
		next := ctl.NextDeadline(now)
		if t := pending.minAt(); t < next {
			next = t
		}
		for i := range cal.cores {
			if t := cal.cores[i].ready; t < next {
				next = t
			}
		}
		clk.Step(next)
	}
}
