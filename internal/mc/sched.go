package mc

import "mithril/internal/timing"

// Request is one memory transaction queued at the controller.
type Request struct {
	ID     uint64
	CoreID int
	Addr   uint64
	Write  bool
	// rejected marks a request a full queue has already turned away, so
	// Stats.Rejected counts it once however often its core retries. It
	// sits in Write's padding, so it takes no space of its own.
	rejected bool
	Loc      Location
	blocked  timing.PicoSeconds // earliest serve time (throttling)
}

// SchedulerKind selects the request scheduling policy.
type SchedulerKind int

// Scheduling policies.
const (
	// FCFS serves strictly in arrival order.
	FCFS SchedulerKind = iota
	// FRFCFS prefers row hits, then the oldest request.
	FRFCFS
	// BLISS (Subramanian et al.): like FR-FCFS, but an application served
	// four requests in a row is blacklisted for a clearing interval,
	// bounding interference (Table III's scheduler).
	BLISS
)

// String names the policy.
func (k SchedulerKind) String() string {
	switch k {
	case FCFS:
		return "FCFS"
	case FRFCFS:
		return "FR-FCFS"
	case BLISS:
		return "BLISS"
	default:
		return "unknown"
	}
}

// blissState tracks BLISS's serve streak and blacklist per channel. The
// blacklist is a dense slice indexed by core ID, grown in one step to the
// highest core it has blacklisted (core counts are small and stable), so
// the scheduler's inner loop stays free of map lookups.
type blissState struct {
	lastCore  int
	streak    int
	blackTill []timing.PicoSeconds // per core: blacklist release time
}

// blissStreakLimit and blissClearInterval follow the BLISS paper's default
// configuration (4 consecutive requests; 10000 core cycles ≈ 2.8 µs at
// 3.6 GHz).
const (
	blissStreakLimit   = 4
	blissClearInterval = 2800 * timing.Nanosecond
)

func newBlissState() *blissState {
	return &blissState{lastCore: -1}
}

//mithril:hotpath
func (b *blissState) blacklisted(core int, now timing.PicoSeconds) bool {
	return core < len(b.blackTill) && b.blackTill[core] > now
}

//mithril:hotpath
func (b *blissState) recordServe(core int, now timing.PicoSeconds) {
	if core == b.lastCore {
		b.streak++
		if b.streak >= blissStreakLimit {
			if core >= len(b.blackTill) {
				grown := make([]timing.PicoSeconds, core+1) //mithril:allow hotpathalloc grows only past the highest core blacklisted so far, so at most once per core per run
				copy(grown, b.blackTill)
				b.blackTill = grown
			}
			b.blackTill[core] = now + blissClearInterval
			b.streak = 0
		}
		return
	}
	b.lastCore = core
	b.streak = 1
}

// pick selects the next serveable request index from cc's queue, or -1.
// A Controller method (rather than a free function taking ready/rowHit
// closures) so the per-entry readiness and open-row probes are direct
// calls: the scan runs once per serve attempt over every queued request,
// and two indirect calls per entry were measurable on the simulator loop.
// ready has side effects (throttle accounting, blocked-until updates), so
// each policy calls it exactly once per queued entry, in queue order.
//
//mithril:hotpath
func (c *Controller) pick(cc *channelCtl, now timing.PicoSeconds) int {
	queue := cc.queue
	switch c.cfg.Scheduler {
	case FCFS:
		for i, r := range queue {
			if c.ready(r, now) {
				return i // queue is in arrival order
			}
		}
		return -1
	case FRFCFS:
		best := -1
		bestHit := false
		for i, r := range queue {
			if !c.ready(r, now) {
				continue
			}
			hit := c.dev.Bank(r.Loc.GlobalBank).OpenRow() == r.Loc.Row
			if best == -1 || (hit && !bestHit) {
				best, bestHit = i, hit
			}
		}
		return best
	case BLISS:
		bliss := cc.bliss
		best := -1
		bestHit := false
		bestWhite := false
		for i, r := range queue {
			if !c.ready(r, now) {
				continue
			}
			white := !bliss.blacklisted(r.CoreID, now)
			hit := c.dev.Bank(r.Loc.GlobalBank).OpenRow() == r.Loc.Row
			better := false
			switch {
			case best == -1:
				better = true
			case white != bestWhite:
				better = white
			case hit != bestHit:
				better = hit
			}
			if better {
				best, bestHit, bestWhite = i, hit, white
			}
		}
		return best
	}
	return -1
}
