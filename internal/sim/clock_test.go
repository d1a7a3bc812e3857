package sim

import (
	"testing"

	"mithril/internal/timing"
)

func TestTickClockStepClampsToOneTick(t *testing.T) {
	clk := tickClock{tick: 625}
	if clk.now != 0 {
		t.Fatalf("fresh clock at %v, want 0", clk.now)
	}
	// A far-future target jumps the clock directly there.
	clk.Step(10_000)
	if clk.now != 10_000 {
		t.Fatalf("Step(10000) left clock at %v", clk.now)
	}
	// A target at or before now+tick still advances by exactly one tick:
	// the loop must always make progress.
	for _, target := range []timing.PicoSeconds{0, 5_000, 10_000, 10_625} {
		before := clk.now
		clk.Step(target)
		if want := before + 625; clk.now != want {
			t.Fatalf("Step(%v) from %v moved clock to %v, want %v", target, before, clk.now, want)
		}
	}
}

func TestTickClockWalkLandsOnTheTickGrid(t *testing.T) {
	for _, tc := range []struct{ from, next, want timing.PicoSeconds }{
		{1_000, 0, 1_625},       // a deadline in the past: one tick
		{1_000, 1_000, 1_625},   // pinned to now: one tick
		{1_000, 1_625, 1_625},   // exactly one tick out
		{1_000, 1_626, 2_250},   // just past a tick: the next one
		{1_000, 10_000, 10_375}, // off the grid: the first tick after it
		{1_000, 10_375, 10_375}, // on the grid: that tick
	} {
		clk := tickClock{now: tc.from, tick: 625}
		clk.Walk(tc.next)
		if clk.now != tc.want {
			t.Errorf("Walk(%v) from %v moved clock to %v, want %v", tc.next, tc.from, clk.now, tc.want)
		}
		// The one-tick walk it stands for reaches the same instant first.
		walk := tickClock{now: tc.from, tick: 625}
		walk.Step(0)
		for walk.now < tc.next {
			walk.Step(0)
		}
		if walk.now != tc.want {
			t.Errorf("one-tick walk from %v to %v reached %v, Walk %v", tc.from, tc.next, walk.now, clk.now)
		}
	}
}

func TestTickClockAdvanceToNeverRewinds(t *testing.T) {
	clk := tickClock{tick: 625}
	clk.AdvanceTo(900)
	if clk.now != 900 {
		t.Fatalf("AdvanceTo(900) left clock at %v", clk.now)
	}
	clk.AdvanceTo(100)
	if clk.now != 900 {
		t.Fatalf("AdvanceTo(100) rewound clock to %v", clk.now)
	}
}

func TestCompletionQueueOrdersArbitraryPushes(t *testing.T) {
	var q completionQueue
	if q.minAt() != timing.Never {
		t.Fatalf("empty queue minAt = %v, want Never", q.minAt())
	}
	// Deterministic pseudo-random times (LCG) pushed out of order.
	times := make([]timing.PicoSeconds, 200)
	state := uint64(12345)
	for i := range times {
		state = state*6364136223846793005 + 1442695040888963407
		times[i] = timing.PicoSeconds(state >> 40)
		q.push(completion{at: times[i], reqID: uint64(i)})
	}
	var prev timing.PicoSeconds = -1
	for i := 0; i < len(times); i++ {
		if q.minAt() < prev {
			t.Fatalf("minAt %v went backwards past %v", q.minAt(), prev)
		}
		c := q.pop()
		if c.at < prev {
			t.Fatalf("pop %d returned %v after %v", i, c.at, prev)
		}
		prev = c.at
	}
	if q.minAt() != timing.Never {
		t.Fatalf("drained queue minAt = %v, want Never", q.minAt())
	}
}

func TestCompletionQueueEqualTimesDeliverInPushOrder(t *testing.T) {
	var q completionQueue
	q.push(completion{at: 100, reqID: 1})
	q.push(completion{at: 50, reqID: 2})
	q.push(completion{at: 100, reqID: 3})
	q.push(completion{at: 100, reqID: 4})
	want := []uint64{2, 1, 3, 4}
	for i, id := range want {
		if c := q.pop(); c.reqID != id {
			t.Fatalf("pop %d = reqID %d, want %d", i, c.reqID, id)
		}
	}
}

func TestCompletionQueueCompactsConsumedPrefix(t *testing.T) {
	var q completionQueue
	// Interleave pushes and pops so the head index grows well past the
	// compaction threshold while the live window stays small.
	next := timing.PicoSeconds(0)
	for i := 0; i < 500; i++ {
		next += 10
		q.push(completion{at: next, reqID: uint64(i)})
		if i%2 == 1 {
			lo := q.pop()
			hi := q.pop()
			if lo.at > hi.at {
				t.Fatalf("pops out of order: %v then %v", lo.at, hi.at)
			}
		}
	}
	if len(q.items) > 100 {
		t.Fatalf("queue never compacted: %d items buffered for a tiny live window", len(q.items))
	}
}
