package mc

import (
	"fmt"
	"testing"

	"mithril/internal/dram"
	"mithril/internal/timing"
)

// tickAll is the reference for TickDue: it ticks every channel, due or
// not. tickChannel is exact on any instant, so TickDue may skip only the
// calls that would change nothing.
func (c *Controller) tickAll(now timing.PicoSeconds) {
	for _, cc := range c.channels {
		c.tickChannel(cc, now)
	}
}

// nextDeadlineRescan is the reference for NextDeadline: the earliest of
// the scheme's deadline, every rank's refresh deadline, and every work
// candidate (pending-ARR banks' busy horizons, queued requests' max(throttle
// release, bank busy), RFM-due banks' busy horizons), rebuilt from scratch
// on every call and clamped to now. It reads no cache and no due count.
func (c *Controller) nextDeadlineRescan(now timing.PicoSeconds) timing.PicoSeconds {
	next := c.cfg.Scheme.NextDeadline(now)
	fold := func(t timing.PicoSeconds) {
		if t < next {
			next = t
		}
	}
	perChannel := c.p.Ranks * c.p.Banks
	for ch, cc := range c.channels {
		for _, t := range cc.nextREF {
			fold(t)
		}
		for _, job := range cc.pendingARR {
			fold(c.dev.Bank(job.bank).BusyUntil())
		}
		for _, r := range cc.queue {
			fold(max(r.blocked, c.dev.Bank(r.Loc.GlobalBank).BusyUntil()))
		}
		for g := ch * perChannel; g < (ch+1)*perChannel; g++ {
			if c.rfmDue[g] {
				fold(c.dev.Bank(g).BusyUntil())
			}
		}
	}
	return max(next, now)
}

// TestNextDeadlineMatchesReference dual-drives two identically configured
// controllers — one through the calendar surface (TickDue / NextDeadline),
// one through the from-scratch reference (tickAll / nextDeadlineRescan) —
// with the same pseudo-random request stream, and asserts at every
// iteration that (a) both agree on the next interesting instant under the
// loop's max(now+tick, next) jump rule and (b) the controllers' observable
// state stays identical. One subtest per scheme shape — no scheme, RFM-due
// banks (issued, or skipped through the MRR flag), pending ARR jobs, and
// throttle-release deadlines — and rank count: with two ranks per channel,
// a REF leaves the other rank's banks serviceable, so work enqueued on a
// channel whose cache the REF made stale can be due at once. A quarter of
// the requests target the rows the ARR and throttle probes react to.
func TestNextDeadlineMatchesReference(t *testing.T) {
	type schemeShape struct {
		name   string
		scheme func() Scheme
		// exercised reports whether the run reached the scheme's path.
		exercised func(Stats) bool
	}
	shapes := []schemeShape{
		{"none", func() Scheme { return nil }, func(Stats) bool { return true }},
		{"rfm", func() Scheme { return &rfmProbe{rfmTH: 4} },
			func(s Stats) bool { return s.RFMIssued > 0 }},
		{"rfm-skip", func() Scheme { return &rfmProbe{rfmTH: 4, skip: true} },
			func(s Stats) bool { return s.RFMSkipped > 0 }},
		{"arr", func() Scheme { return &arrProbe{} },
			func(s Stats) bool { return s.ARRWindows > 0 }},
		{"throttle", func() Scheme { return &throttleProbe{delay: timing.Millisecond} },
			func(s Stats) bool { return s.ThrottleHit > 0 }},
	}
	for _, ranks := range []int{1, 2} {
		for _, tc := range shapes {
			t.Run(fmt.Sprintf("%s/ranks=%d", tc.name, ranks), func(t *testing.T) {
				p := testParams()
				p.Ranks = ranks
				dualDrive(t, p, tc.scheme, tc.exercised)
			})
		}
	}
}

// dualDrive runs one TestNextDeadlineMatchesReference case at timing p.
func dualDrive(t *testing.T, p timing.Params, scheme func() Scheme, exercised func(Stats) bool) {
	build := func() (*Controller, *int) {
		completions := 0
		dev := dram.NewDevice(p, 1<<30, nil)
		c := NewController(dev, Config{Scheduler: BLISS, Policy: MinimalistOpen, Scheme: scheme()},
			func(*Request, timing.PicoSeconds) { completions++ })
		return c, &completions
	}
	cal, calDone := build()
	ref, refDone := build()

	m := cal.Mapper()
	space := m.AddressSpace()
	now := timing.PicoSeconds(0)
	state := uint64(99)
	enqueued := 0
	for i := 0; i < 4000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		if state%3 == 0 {
			id := uint64(i + 1)
			core := int(state>>32) % 4
			addr := (state >> 8) % space
			if state>>60 < 4 {
				loc := m.Map(addr)
				loc.Row = []int{7, 100}[state>>59&1]
				addr = m.Compose(loc)
			}
			okA := cal.Enqueue(&Request{ID: id, CoreID: core, Addr: addr})
			okB := ref.Enqueue(&Request{ID: id, CoreID: core, Addr: addr})
			if okA != okB {
				t.Fatalf("iter %d: enqueue acceptance diverged (%v vs %v)", i, okA, okB)
			}
			if okA {
				enqueued++
			}
		}

		cal.TickDue(now)
		ref.tickAll(now)
		if a, b := cal.Stats(), ref.Stats(); a != b {
			t.Fatalf("iter %d at %v: stats diverged:\ncalendar:  %+v\nreference: %+v", i, now, a, b)
		}
		for ch := 0; ch < p.Channels; ch++ {
			if a, b := cal.QueueLen(ch), ref.QueueLen(ch); a != b {
				t.Fatalf("iter %d at %v: channel %d queue length %d vs %d", i, now, ch, a, b)
			}
		}

		// The loop's jump rule: max(now+tick, next). Any clamping
		// difference below now+tick must be absorbed by the max.
		nextA, nextB := cal.NextDeadline(now), ref.nextDeadlineRescan(now)
		stepA, stepB := max(now+p.TCK, nextA), max(now+p.TCK, nextB)
		if stepA != stepB {
			t.Fatalf("iter %d at %v: calendar would jump to %v, reference to %v (NextDeadline=%v rescan=%v)",
				i, now, stepA, stepB, nextA, nextB)
		}
		now = stepA
	}
	if enqueued == 0 || *calDone == 0 {
		t.Fatalf("test exercised nothing: %d enqueued, %d completed", enqueued, *calDone)
	}
	if *calDone != *refDone {
		t.Fatalf("completions diverged: calendar %d, reference %d", *calDone, *refDone)
	}
	if st := cal.Stats(); !exercised(st) {
		t.Fatalf("the run never reached the scheme's path: %+v", st)
	}
}
