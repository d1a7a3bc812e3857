package mc

import (
	"fmt"

	"mithril/internal/dram"
	"mithril/internal/timing"
)

// PagePolicy selects the row-buffer management policy.
type PagePolicy int

// Page policies.
const (
	// OpenPage leaves rows open until a conflict.
	OpenPage PagePolicy = iota
	// ClosedPage precharges after every access.
	ClosedPage
	// MinimalistOpen (Kaseridis et al., Table III) caps the number of
	// consecutive row hits per activation (4) before precharging,
	// balancing locality against fairness.
	MinimalistOpen
)

// String names the policy.
func (p PagePolicy) String() string {
	switch p {
	case OpenPage:
		return "open"
	case ClosedPage:
		return "closed"
	case MinimalistOpen:
		return "minimalist-open"
	default:
		return "unknown"
	}
}

// minimalistHitCap is the per-activation row-hit budget of minimalist-open.
const minimalistHitCap = 4

// Config configures the controller.
type Config struct {
	Scheduler  SchedulerKind
	Policy     PagePolicy
	Scheme     Scheme
	QueueDepth int // per-channel request queue capacity
}

// Stats counts controller-level events.
type Stats struct {
	Served      uint64
	RFMIssued   uint64
	RFMSkipped  uint64 // Mithril+ MRR skips
	MRRReads    uint64 // mode-register polls (Mithril+)
	ARRWindows  uint64
	ARRVictims  uint64
	REFIssued   uint64
	Rejected    uint64 // requests a full queue turned away, each counted once at its first rejection
	ThrottleHit uint64 // requests delayed by PreACTDelay
}

type arrJob struct {
	bank    int
	victims []uint32
}

type channelCtl struct {
	id         int
	queue      []*Request
	bliss      *blissState
	nextREF    []timing.PicoSeconds // per rank in this channel
	pendingARR []arrJob

	// Calendar caches (TickDue/NextDeadline). refNext is the exact minimum
	// over nextREF, updated where REFs are issued. workNext caches the raw
	// (unclamped) minimum over every work candidate — pending-ARR bank
	// availability, queued requests' max(blocked, bank busy), and RFM-due
	// bank availability — and is exact whenever workDirty is false. Every
	// mutation that can raise a candidate or remove the minimum sets
	// workDirty instead of rescanning, so idle iterations (e.g. waiting out
	// an RFM window, which only polls MRR) read cached values in O(channels).
	refNext   timing.PicoSeconds
	workNext  timing.PicoSeconds
	workDirty bool
}

// Controller drives a dram.Device: request queues per channel, scheduling,
// page policy, auto-refresh, and the RFM/ARR/throttle mitigation hooks.
//
// All per-bank bookkeeping is held in dense slices indexed by global bank
// (the bank count is fixed at construction), keeping the per-ACT hot path
// free of map lookups and allocations.
type Controller struct {
	p        timing.Params
	dev      *dram.Device
	mapper   *AddressMapper
	cfg      Config
	channels []*channelCtl

	raa       []int  // per global bank: rolling accumulated ACT counter
	rfmDue    []bool // per global bank: RAA reached RFMTH, ACTs blocked
	hitStreak []int  // per global bank: consecutive row hits

	// Hoisted scheme properties (constant per run) and per-channel counts
	// of RFM-due banks, so each tick tests one integer instead of making
	// interface calls and scanning every bank.
	rfmCompatible bool
	rfmTH         int
	rfmDueCount   []int // per channel: banks with rfmDue set

	// victimPool recycles the buffers pendingARR jobs hold: schemes may
	// reuse their returned victim slices on the next call, so the
	// controller copies them into pooled storage until the ARR fires.
	victimPool [][]uint32

	complete func(req *Request, at timing.PicoSeconds)
	stats    Stats
}

// NewController builds a controller over the device. complete is invoked
// once per request with its data completion time.
func NewController(dev *dram.Device, cfg Config, complete func(*Request, timing.PicoSeconds)) *Controller {
	p := dev.Params()
	if cfg.Scheme == nil {
		cfg.Scheme = NoProtection{}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if complete == nil {
		complete = func(*Request, timing.PicoSeconds) {}
	}
	c := &Controller{
		p:             p,
		dev:           dev,
		mapper:        NewAddressMapper(p),
		cfg:           cfg,
		raa:           make([]int, dev.NumBanks()),
		rfmDue:        make([]bool, dev.NumBanks()),
		hitStreak:     make([]int, dev.NumBanks()),
		rfmCompatible: cfg.Scheme.RFMCompatible(),
		rfmTH:         cfg.Scheme.RFMTH(),
		rfmDueCount:   make([]int, p.Channels),
		complete:      complete,
	}
	for ch := 0; ch < p.Channels; ch++ {
		cc := &channelCtl{
			id:      ch,
			bliss:   newBlissState(),
			nextREF: make([]timing.PicoSeconds, p.Ranks),
			// The queue is bounded by QueueDepth; reserving it up front
			// keeps Enqueue free of growth reallocations.
			queue: make([]*Request, 0, cfg.QueueDepth),
		}
		for r := range cc.nextREF {
			// Stagger refreshes across ranks and channels.
			cc.nextREF[r] = p.TREFI * timing.PicoSeconds(1+ch*p.Ranks+r) / timing.PicoSeconds(p.Channels*p.Ranks)
		}
		cc.refNext = minREF(cc.nextREF)
		cc.workNext = timing.Never // empty queue, no maintenance pending
		c.channels = append(c.channels, cc)
	}
	return c
}

// Mapper exposes the address mapper (shared with workload generators).
func (c *Controller) Mapper() *AddressMapper { return c.mapper }

// Device exposes the controlled DRAM device.
func (c *Controller) Device() *dram.Device { return c.dev }

// Stats returns a copy of the controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// QueueLen reports the current queue occupancy of a channel.
func (c *Controller) QueueLen(channel int) int { return len(c.channels[channel].queue) }

// Enqueue accepts a request into its channel queue; it reports false when
// the queue is full (the core must retry). A channel's queue shrinks only
// when it serves, so a retry before the next serve on req's channel (the
// complete callback reports every serve) is certain to fail.
//
//mithril:hotpath
func (c *Controller) Enqueue(req *Request) bool {
	c.mapper.MapInto(req.Addr, &req.Loc)
	cc := c.channels[req.Loc.Channel]
	if len(cc.queue) >= c.cfg.QueueDepth {
		if !req.rejected {
			req.rejected = true
			c.stats.Rejected++
		}
		return false
	}
	cc.queue = append(cc.queue, req)
	if !cc.workDirty {
		// Fold the new candidate into the cached work minimum: the request
		// can start no earlier than its throttle release and its bank's busy
		// horizon. Adding a candidate can only lower the minimum, so the
		// cache stays exact without a rescan.
		t := req.blocked
		if bu := c.dev.Bank(req.Loc.GlobalBank).BusyUntil(); bu > t {
			t = bu
		}
		if t < cc.workNext {
			cc.workNext = t
		}
	}
	return true
}

// retainVictims copies a scheme's victim list into pooled storage that
// stays valid until the ARR job consumes it (schemes own their returned
// slices and may overwrite them on the next call).
//
//mithril:hotpath
func (c *Controller) retainVictims(v []uint32) []uint32 {
	var buf []uint32
	if n := len(c.victimPool); n > 0 {
		buf = c.victimPool[n-1][:0]
		c.victimPool = c.victimPool[:n-1]
	}
	return append(buf, v...)
}

// releaseVictims returns a consumed ARR job's buffer to the pool.
//
//mithril:hotpath
func (c *Controller) releaseVictims(v []uint32) {
	c.victimPool = append(c.victimPool, v)
}

// markRFMDue records a bank reaching its RAA threshold (idempotent: raw
// activations may keep counting past it).
//
//mithril:hotpath
func (c *Controller) markRFMDue(g int) {
	if !c.rfmDue[g] {
		c.rfmDue[g] = true
		c.rfmDueCount[g/(c.p.Ranks*c.p.Banks)]++
	}
}

// clearRFMDue releases a bank after its RFM was issued or skipped.
//
//mithril:hotpath
func (c *Controller) clearRFMDue(channel, g int) {
	c.rfmDue[g] = false
	c.rfmDueCount[channel]--
}

// TickDue advances only the channels that can make progress at now: a bank
// awaiting its RFM (whose MRR skip flag is polled every iteration), an
// auto-refresh deadline that has arrived, or a matured work candidate.
// Skipping a non-due channel is exact, not approximate: with no refresh
// due, no RFM-due bank, and every work candidate in the future, every
// branch of tickChannel exits before its first side effect (banks report
// unavailable or requests are blocked before the throttle hook runs), so
// the skipped call could only have burned cycles. The package tests hold
// it to a reference that ticks every channel on every call.
//
//mithril:hotpath
func (c *Controller) TickDue(now timing.PicoSeconds) {
	for _, cc := range c.channels {
		// A dirty channel ticks without a rescan: ticking is exact on any
		// instant, so conservatively including a channel costs at most a
		// no-op call. Only a SKIP requires knowing nothing is actionable.
		if cc.workDirty || c.rfmDueCount[cc.id] > 0 || cc.refNext <= now || cc.workNext <= now {
			c.tickChannel(cc, now)
		}
	}
}

//mithril:hotpath
func (c *Controller) tickChannel(cc *channelCtl, now timing.PicoSeconds) {
	// 1. Auto-refresh has absolute priority.
	for r := range cc.nextREF {
		if now >= cc.nextREF[r] {
			rankIdx := cc.id*c.p.Ranks + r
			c.dev.IssueREF(rankIdx, now)
			cc.nextREF[r] += c.p.TREFI
			cc.refNext = minREF(cc.nextREF)
			cc.workDirty = true // REF raised the rank's bank busy horizons
			c.stats.REFIssued++
			return
		}
	}
	// 2. Pending ARR maintenance (MC-side schemes).
	for i, job := range cc.pendingARR {
		if c.dev.Bank(job.bank).Available(now) {
			c.dev.IssueARR(job.bank, len(job.victims), now)
			c.dev.PreventiveRefresh(job.bank, job.victims)
			c.stats.ARRWindows++
			c.stats.ARRVictims += uint64(len(job.victims))
			c.releaseVictims(job.victims)
			cc.pendingARR = append(cc.pendingARR[:i], cc.pendingARR[i+1:]...)
			cc.workDirty = true // job consumed, bank busy through the ARR window
			return
		}
	}
	// 3. RFM issue (Figure 1 flow). The per-channel due count makes the
	// common case (no bank at its RAA threshold) a single integer test.
	if c.rfmDueCount[cc.id] > 0 {
		base := cc.id * c.p.Ranks * c.p.Banks
		for g := base; g < base+c.p.Ranks*c.p.Banks; g++ {
			if !c.rfmDue[g] {
				continue
			}
			// Mithril+: poll the skip flag via MRR before issuing.
			c.stats.MRRReads++
			if c.cfg.Scheme.SkipRFM(g) {
				c.raa[g] = 0
				c.clearRFMDue(cc.id, g)
				cc.workDirty = true // due-bank candidate removed
				c.stats.RFMSkipped++
				continue // skip costs no command slot beyond the MRR
			}
			if !c.dev.Bank(g).Available(now) {
				continue
			}
			c.dev.IssueRFM(g, now)
			victims := c.cfg.Scheme.OnRFM(g, now)
			if len(victims) > 0 {
				c.dev.PreventiveRefresh(g, victims)
			}
			c.raa[g] = 0
			c.clearRFMDue(cc.id, g)
			cc.workDirty = true // RFM occupies the bank; due candidate removed
			c.stats.RFMIssued++
			return
		}
	}
	// 4. Serve one request.
	idx := c.pick(cc, now)
	if idx < 0 {
		return
	}
	req := cc.queue[idx]
	cc.queue = append(cc.queue[:idx], cc.queue[idx+1:]...)
	c.serve(cc, req, now)
}

// ready reports whether a request can start its next command at now.
//
//mithril:hotpath
func (c *Controller) ready(req *Request, now timing.PicoSeconds) bool {
	g := req.Loc.GlobalBank
	bank := c.dev.Bank(g)
	if !bank.Available(now) || c.rfmDue[g] {
		return false
	}
	if req.blocked > now {
		return false
	}
	if bank.OpenRow() != req.Loc.Row {
		// Needs an ACT: consult the throttle hook.
		if until := c.cfg.Scheme.PreACTDelay(g, uint32(req.Loc.Row), req.CoreID, now); until > now {
			req.blocked = until
			c.channels[req.Loc.Channel].workDirty = true // candidate raised
			c.stats.ThrottleHit++
			return false
		}
	}
	return true
}

//mithril:hotpath
func (c *Controller) serve(cc *channelCtl, req *Request, now timing.PicoSeconds) {
	// The served request leaves the queue and its bank goes busy (possibly
	// with RFM-due and pending-ARR fallout); rescan lazily.
	cc.workDirty = true
	g := req.Loc.GlobalBank
	activated, dataAt := c.dev.Access(g, req.Loc.Row, req.Write, now)
	if activated {
		if c.rfmCompatible {
			c.raa[g]++
			if c.raa[g] >= c.rfmTH {
				c.markRFMDue(g)
			}
		}
		if victims := c.cfg.Scheme.OnActivate(g, uint32(req.Loc.Row), req.CoreID, now); len(victims) > 0 {
			cc.pendingARR = append(cc.pendingARR, arrJob{bank: g, victims: c.retainVictims(victims)})
		}
		c.hitStreak[g] = 0
	} else {
		c.hitStreak[g]++
	}
	switch c.cfg.Policy {
	case ClosedPage:
		c.dev.Bank(g).Precharge(dataAt)
	case MinimalistOpen:
		if c.hitStreak[g] >= minimalistHitCap-1 {
			c.dev.Bank(g).Precharge(dataAt)
			c.hitStreak[g] = 0
		}
	}
	if c.cfg.Scheduler == BLISS {
		cc.bliss.recordServe(req.CoreID, now)
	}
	c.stats.Served++
	c.complete(req, dataAt)
}

// RawActivate injects a bare activation (attack replay without a data
// request); it updates RAA/mitigation state exactly like a served ACT.
//
//mithril:hotpath
func (c *Controller) RawActivate(globalBank int, row int, now timing.PicoSeconds) timing.PicoSeconds {
	if globalBank < 0 || globalBank >= c.dev.NumBanks() {
		panic(fmt.Sprintf("mc: bank %d out of range", globalBank))
	}
	done := c.dev.ActivateOnly(globalBank, row, now)
	if c.rfmCompatible {
		c.raa[globalBank]++
		if c.raa[globalBank] >= c.rfmTH {
			c.markRFMDue(globalBank)
		}
	}
	ch := c.channels[globalBank/(c.p.Ranks*c.p.Banks)]
	ch.workDirty = true // bank busy horizon moved; RFM/ARR state may have too
	if victims := c.cfg.Scheme.OnActivate(globalBank, uint32(row), -1, now); len(victims) > 0 {
		ch.pendingARR = append(ch.pendingARR, arrJob{bank: globalBank, victims: c.retainVictims(victims)})
	}
	return done
}

// RFMDue reports whether a bank is blocked awaiting its RFM command.
func (c *Controller) RFMDue(globalBank int) bool { return c.rfmDue[globalBank] }

// RAACount reports a bank's rolling accumulated ACT counter.
func (c *Controller) RAACount(globalBank int) int { return c.raa[globalBank] }

// PendingWork reports whether any channel still holds queued requests or
// pending maintenance.
//
//mithril:hotpath
func (c *Controller) PendingWork() bool {
	for _, cc := range c.channels {
		if len(cc.queue) > 0 || len(cc.pendingARR) > 0 {
			return true
		}
	}
	for _, n := range c.rfmDueCount {
		if n > 0 {
			return true
		}
	}
	return false
}

// NextDeadline reports the earliest instant at or after now at which the
// controller has time-driven work of its own: an auto-refresh deadline, a
// matured queued request or maintenance job, or a scheme-originated
// deadline; the event calendar folds it into its jump computation. Reads
// come from the per-channel caches, so iterations that mutate nothing
// (waiting out an RFM window) cost O(channels) instead of a queue rescan.
// The package tests hold it, under the loop's max(now+tick, next) jump
// rule, to a from-scratch scan of every candidate.
//
//mithril:hotpath
func (c *Controller) NextDeadline(now timing.PicoSeconds) timing.PicoSeconds {
	next := c.cfg.Scheme.NextDeadline(now)
	for _, cc := range c.channels {
		if cc.refNext <= now {
			return now // a refresh is due this instant; nothing can be earlier
		}
		if cc.workDirty {
			if c.rescanWork(cc, now) {
				// Some candidate has already matured, which pins the clamped
				// minimum to exactly now no matter what the remaining
				// channels hold; the cache stays dirty and TickDue ticks
				// this channel conservatively until a quiet iteration
				// completes the scan.
				return now
			}
		}
		if cc.workNext < next {
			next = cc.workNext
		}
		if cc.refNext < next {
			next = cc.refNext
		}
	}
	if next < now {
		next = now
	}
	return next
}

// rescanWork rebuilds a channel's cached raw work minimum after mutations
// flagged it dirty. Candidates are queued requests' max(throttle release,
// bank busy), pending-ARR banks' busy horizons, and RFM-due banks' busy
// horizons — the same set the tests' from-scratch reference scans on every
// call. The scan aborts — reporting
// true and leaving the cache dirty — as soon as it sees a candidate at or
// before now: the caller's clamped minimum is then exactly now, and busy
// phases (where almost every iteration serves and dirties) touch a short
// queue prefix instead of every entry.
//
//mithril:hotpath
func (c *Controller) rescanWork(cc *channelCtl, now timing.PicoSeconds) (dueNow bool) {
	next := timing.Never
	for _, r := range cc.queue {
		t := r.blocked
		if bu := c.dev.Bank(r.Loc.GlobalBank).BusyUntil(); bu > t {
			t = bu
		}
		if t <= now {
			return true
		}
		if t < next {
			next = t
		}
	}
	for _, job := range cc.pendingARR {
		if t := c.dev.Bank(job.bank).BusyUntil(); t <= now {
			return true
		} else if t < next {
			next = t
		}
	}
	if c.rfmDueCount[cc.id] > 0 {
		base := cc.id * c.p.Ranks * c.p.Banks
		for g := base; g < base+c.p.Ranks*c.p.Banks; g++ {
			if c.rfmDue[g] {
				if t := c.dev.Bank(g).BusyUntil(); t <= now {
					return true
				} else if t < next {
					next = t
				}
			}
		}
	}
	cc.workNext = next
	cc.workDirty = false
	return false
}

// minREF folds a channel's per-rank refresh deadlines into their minimum.
//
//mithril:hotpath
func minREF(nextREF []timing.PicoSeconds) timing.PicoSeconds {
	next := timing.Never
	for _, t := range nextREF {
		if t < next {
			next = t
		}
	}
	return next
}
