package sim

import "mithril/internal/timing"

// tickClock is the simulation time source: a monotone cursor that advances
// in whole command slots (the DRAM clock period) and jumps over idle
// stretches. Step always charges one tick — matching the one command slot
// each loop iteration represents — and then fast-forwards to the next
// known event if that lies further out.
type tickClock struct {
	now  timing.PicoSeconds
	tick timing.PicoSeconds
}

// AdvanceTo moves the clock forward to t; instants at or before now are
// ignored (the clock never moves backward).
//
//mithril:hotpath
func (c *tickClock) AdvanceTo(t timing.PicoSeconds) {
	if t > c.now {
		c.now = t
	}
}

// Step performs one loop iteration's time update: advance one command
// slot, then jump to next when it is later. Because the jump target is a
// max over per-subsystem deadlines, clamping any deadline anywhere in
// [0, now+tick] cannot change where the clock lands; the calendar loop and
// the tests' tick-all reference loop rely on that to fold deadlines cached
// at different instants.
//
//mithril:hotpath
func (c *tickClock) Step(next timing.PicoSeconds) {
	c.now += c.tick
	c.AdvanceTo(next)
}

// Walk performs, in one move, the run of one-tick Steps that a deadline
// pinned at or before now forces: it lands on the first instant of the
// grid now+tick, now+2·tick, ... that is at or after next, and always
// moves at least one tick.
//
//mithril:hotpath
func (c *tickClock) Walk(next timing.PicoSeconds) {
	ticks := timing.PicoSeconds(1)
	if next > c.now+c.tick {
		ticks = (next - c.now + c.tick - 1) / c.tick
	}
	c.now += ticks * c.tick
}
