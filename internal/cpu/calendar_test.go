package cpu

import (
	"testing"

	"mithril/internal/mc"
	"mithril/internal/timing"
)

// TestNextDeadlineClampsNextReady pins the calendar contract: NextDeadline
// is nextReady clamped to now, with timing.Never preserved as the
// completion-driven sentinel.
func TestNextDeadlineClampsNextReady(t *testing.T) {
	llc := NewLLC(1<<20, 16)
	c := NewCore(0, DefaultCoreConfig(), seqSource(0, 64), llc, 1000,
		func(*mc.Request) bool { return true })

	// Fresh core: ready immediately, so a later now clamps up to now.
	if got := c.NextDeadline(0); got != 0 {
		t.Fatalf("fresh core NextDeadline(0) = %v, want 0", got)
	}
	if got := c.NextDeadline(5000); got != 5000 {
		t.Fatalf("fresh core NextDeadline(5000) = %v, want 5000 (clamp)", got)
	}

	// Run until the MSHR limit stalls the core: now completion-driven.
	c.Advance(timing.PicoSeconds(1_000_000))
	if got := c.nextReady(); got != timing.Never {
		t.Fatalf("MSHR-stalled core nextReady = %v, want Never", got)
	}
	if got := c.NextDeadline(0); got != timing.Never {
		t.Fatalf("MSHR-stalled core NextDeadline = %v, want Never", got)
	}
	if got := c.NextWake(0); got != timing.Never {
		t.Fatalf("MSHR-stalled core NextWake = %v, want Never", got)
	}
}

// TestNextWakeLatchesFinishedTransition pins the one case where NextWake
// and NextDeadline differ: a core that issued its full target with no
// outstanding misses contributes no deadline (the tick loop never added an
// iteration for it), but still needs one Advance at its fetch time to
// latch Finished.
func TestNextWakeLatchesFinishedTransition(t *testing.T) {
	llc := NewLLC(1<<20, 16)
	// A single repeated op: the first access misses, the rest hit the same
	// line, so the core reaches its target with exactly one miss in flight.
	src := &scriptSource{entries: []Op{{Gap: 3, Addr: 0}}}
	c := NewCore(0, DefaultCoreConfig(), src, llc, 8, func(*mc.Request) bool { return true })

	c.Advance(timing.PicoSeconds(1_000_000))
	if c.instrIssued < c.target || len(c.outstanding) != 1 {
		t.Fatalf("setup: issued %d/%d with %d outstanding", c.instrIssued, c.target, len(c.outstanding))
	}
	// Drain the miss: the core is now one Advance away from Finished.
	c.Complete(c.outstanding[0].reqID, 100)

	wake := c.NextWake(0)
	if wake != c.fetchTime {
		t.Fatalf("latch-pending core NextWake = %v, want fetch time %v", wake, c.fetchTime)
	}
	if got := c.NextDeadline(0); got != timing.Never {
		t.Fatalf("target-reached core must not contribute a jump deadline, got %v", got)
	}
	c.Advance(wake)
	if !c.Finished() {
		t.Fatal("Advance at NextWake did not latch Finished")
	}
	if got := c.NextWake(0); got != timing.Never {
		t.Fatalf("finished core NextWake = %v, want Never", got)
	}
}
