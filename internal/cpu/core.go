package cpu

import (
	"fmt"
	"math/bits"

	"mithril/internal/mc"
	"mithril/internal/timing"
)

// CoreConfig parameterizes the simplified OOO core model.
type CoreConfig struct {
	// Width is the issue/retire width in instructions per cycle (4).
	Width int
	// ROB bounds how far fetch may run past the oldest outstanding miss.
	ROB int
	// MSHRs bounds concurrent outstanding misses (memory-level parallelism).
	MSHRs int
	// CyclePs is the core clock period in picoseconds (278 ≈ 3.6 GHz).
	CyclePs timing.PicoSeconds
	// LLCHitCycles is the extra latency a hit adds to the front-end; the
	// OOO window hides most of it, so this is a small residual penalty.
	LLCHitCycles int
}

// DefaultCoreConfig matches Table III (3.6 GHz 4-way OOO).
func DefaultCoreConfig() CoreConfig {
	return CoreConfig{Width: 4, ROB: 256, MSHRs: 16, CyclePs: 278, LLCHitCycles: 2}
}

// Validate reports a descriptive error for unusable configurations.
func (c CoreConfig) Validate() error {
	if c.Width <= 0 || c.ROB <= 0 || c.MSHRs <= 0 || c.CyclePs <= 0 {
		return fmt.Errorf("cpu: config fields must be positive: %+v", c)
	}
	return nil
}

// Op is one decoded operation of the instruction stream.
type Op struct {
	Gap       int    // non-memory instructions preceding the access
	Addr      uint64 // byte address
	Write     bool
	Serialize bool // drain outstanding misses first (dependent load)
	Uncached  bool // bypass the LLC (flushed RowHammer access)
}

// Source yields the core's access stream (implemented by trace generators;
// declared locally to keep the dependency direction cpu → trace optional).
type Source interface {
	Next() Op
}

type outstandingMiss struct {
	reqID    uint64
	instrIdx int64
	req      *mc.Request // recycled into freeReqs on completion
}

// Core is one trace-driven out-of-order core.
type Core struct {
	id      int
	cfg     CoreConfig
	src     Source
	llc     *LLC
	enqueue func(*mc.Request) bool

	fetchTime   timing.PicoSeconds // front-end virtual time
	instrIssued int64
	target      int64
	outstanding []outstandingMiss
	pending     *mc.Request // produced but not yet accepted by the MC
	pendingIdx  int64
	serialized  bool // next access requires an empty miss window
	widthShift  uint // log2(Width) when it is a power of two (widthPow2)
	widthPow2   bool
	hitPenalty  timing.PicoSeconds // LLCHitCycles × CyclePs, precomputed
	nextReqID   uint64
	lastDone    timing.PicoSeconds
	finished    bool
	freeReqs    []*mc.Request // completed requests, reused for new misses (≤ MSHRs+1 live)
}

// MaxCores bounds a system's core count: request IDs carry the core index
// in their top 16 bits (consumers recover the owning core as reqID>>48),
// so every id must fit.
const MaxCores = 1 << 16

// NewCore builds a core that executes target instructions from src,
// submitting misses through enqueue (which reports acceptance).
func NewCore(id int, cfg CoreConfig, src Source, llc *LLC, target int64, enqueue func(*mc.Request) bool) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if target <= 0 {
		panic(fmt.Sprintf("cpu: target instructions must be positive, got %d", target))
	}
	if id < 0 || id >= MaxCores {
		panic(fmt.Sprintf("cpu: core id %d outside [0, %d)", id, MaxCores))
	}
	c := &Core{id: id, cfg: cfg, src: src, llc: llc, enqueue: enqueue, target: target,
		nextReqID:  uint64(id) << 48,
		hitPenalty: timing.PicoSeconds(cfg.LLCHitCycles) * cfg.CyclePs,
		freeReqs:   make([]*mc.Request, 0, cfg.MSHRs+1),
	}
	// The per-access cycle count divides by Width; for the usual
	// power-of-two widths a precomputed shift replaces the hardware divide
	// (which costs more than the rest of the fetch bookkeeping combined).
	if w := uint(cfg.Width); w&(w-1) == 0 {
		c.widthPow2 = true
		c.widthShift = uint(bits.TrailingZeros(w))
	}
	return c
}

// Finished reports whether the core retired its instruction target and
// drained all outstanding misses.
//
//mithril:hotpath
func (c *Core) Finished() bool { return c.finished }

// FinishTime reports when the core finished (meaningful once Finished).
func (c *Core) FinishTime() timing.PicoSeconds {
	t := c.fetchTime
	if c.lastDone > t {
		t = c.lastDone
	}
	return t
}

// InstructionsRetired reports progress toward the target.
func (c *Core) InstructionsRetired() int64 {
	n := c.instrIssued
	if n > c.target {
		n = c.target
	}
	return n
}

// IPC reports instructions per core cycle using the later of front-end time
// and last miss completion — call after Finished for final numbers.
func (c *Core) IPC() float64 {
	t := c.FinishTime()
	if t == 0 {
		return 0
	}
	cycles := float64(t) / float64(c.cfg.CyclePs)
	return float64(c.InstructionsRetired()) / cycles
}

// Complete delivers a finished memory request back to the core. The
// request object is recycled for a future miss: once the controller has
// called back with the completion, nothing else references it.
//
//mithril:hotpath
func (c *Core) Complete(reqID uint64, at timing.PicoSeconds) {
	for i := range c.outstanding {
		if c.outstanding[i].reqID == reqID {
			if req := c.outstanding[i].req; req != nil {
				c.freeReqs = append(c.freeReqs, req)
			}
			c.outstanding = append(c.outstanding[:i], c.outstanding[i+1:]...)
			if at > c.lastDone {
				c.lastDone = at
			}
			return
		}
	}
	panic(fmt.Sprintf("cpu: completion for unknown request %d on core %d", reqID, c.id))
}

// nextReady is the raw (unclamped) deadline behind NextDeadline and
// NextWake: the earliest time this core could take another action on its
// own, or timing.Never when it is purely completion-driven.
//
//mithril:hotpath
func (c *Core) nextReady() timing.PicoSeconds {
	if c.finished {
		return timing.Never
	}
	if c.pending != nil {
		// Retried on every iteration until the controller accepts it, so
		// the clock steps one tick at a time. The retry cannot succeed
		// before the next serve on the request's channel, so the event
		// calendar parks the core until then (see BlockedChannel) and
		// makes those one-tick steps in one move, up to the first on
		// which anything acts.
		return 0
	}
	if c.instrIssued >= c.target {
		return timing.Never // draining outstanding misses
	}
	if len(c.outstanding) >= c.cfg.MSHRs {
		return timing.Never
	}
	if c.serialized && len(c.outstanding) > 0 {
		return timing.Never
	}
	if len(c.outstanding) > 0 && c.instrIssued-c.outstanding[0].instrIdx > int64(c.cfg.ROB) {
		return timing.Never
	}
	return c.fetchTime
}

// BlockedChannel reports the channel whose full queue turned away the
// core's pending request, or -1 when no request is waiting. Until that
// channel serves, Advance only retries the request and fails again.
//
//mithril:hotpath
func (c *Core) BlockedChannel() int {
	if c.pending == nil {
		return -1
	}
	return c.pending.Loc.Channel
}

// NextDeadline reports the earliest instant at or after now at which this
// core can act on its own, or timing.Never while it is purely
// completion-driven (MSHRs full, ROB blocked, serialized behind a miss, or
// draining toward its target). The event calendar folds this into its jump
// computation; a core whose deadline is Never is woken by the completion
// delivery that unblocks it.
//
//mithril:hotpath
func (c *Core) NextDeadline(now timing.PicoSeconds) timing.PicoSeconds {
	if t := c.nextReady(); t > now {
		return t
	}
	return now
}

// NextWake reports the earliest instant at or after now at which Advance
// would change core state — the calendar's advance gate. It differs from
// NextDeadline in exactly one case: a core that has issued its full
// instruction target with no outstanding misses still needs one Advance at
// its front-end fetch time to latch Finished, but contributes no deadline
// of its own. A loop that advances every core on every iteration latches
// that transition on whatever iteration comes next, so a jump deadline
// here would add iterations that loop never runs; the simulator's tests
// compare the calendar against such a loop on whole Results.
//
//mithril:hotpath
func (c *Core) NextWake(now timing.PicoSeconds) timing.PicoSeconds {
	if !c.finished && c.pending == nil && c.instrIssued >= c.target && len(c.outstanding) == 0 {
		if c.fetchTime > now {
			return c.fetchTime
		}
		return now
	}
	return c.NextDeadline(now)
}

// Advance lets the core make progress up to time now: it consumes trace
// entries, performs LLC lookups, and issues at most a bounded batch of
// memory requests per call.
//
//mithril:hotpath
func (c *Core) Advance(now timing.PicoSeconds) {
	if c.finished {
		return
	}
	// Retry a request the MC previously rejected.
	if c.pending != nil {
		if !c.enqueue(c.pending) {
			return
		}
		c.outstanding = append(c.outstanding, outstandingMiss{reqID: c.pending.ID, instrIdx: c.pendingIdx, req: c.pending})
		c.pending = nil
	}
	for c.fetchTime <= now {
		if c.instrIssued >= c.target {
			if len(c.outstanding) == 0 {
				c.finished = true
			}
			return
		}
		if len(c.outstanding) >= c.cfg.MSHRs {
			return // MLP limit
		}
		if c.serialized && len(c.outstanding) > 0 {
			return // dependent load: drain first
		}
		if len(c.outstanding) > 0 && c.instrIssued-c.outstanding[0].instrIdx > int64(c.cfg.ROB) {
			return // ROB full behind the oldest miss
		}
		op := c.src.Next()
		if op.Gap < 0 {
			op.Gap = 0
		}
		c.serialized = op.Serialize
		c.instrIssued += int64(op.Gap) + 1
		var cycles int
		if c.widthPow2 {
			cycles = (op.Gap + c.cfg.Width) >> c.widthShift
		} else {
			cycles = (op.Gap + c.cfg.Width) / c.cfg.Width
		}
		c.fetchTime += timing.PicoSeconds(cycles) * c.cfg.CyclePs
		if !op.Uncached && c.llc.Access(op.Addr) {
			c.fetchTime += c.hitPenalty
			continue
		}
		c.nextReqID++
		var req *mc.Request
		if n := len(c.freeReqs); n > 0 {
			req = c.freeReqs[n-1]
			c.freeReqs = c.freeReqs[:n-1]
		} else {
			req = &mc.Request{} //mithril:allow hotpathalloc pool miss; at most MSHRs+1 requests are ever live per core
		}
		*req = mc.Request{ID: c.nextReqID, CoreID: c.id, Addr: op.Addr, Write: op.Write}
		if !c.enqueue(req) {
			c.pending = req
			c.pendingIdx = c.instrIssued
			return
		}
		c.outstanding = append(c.outstanding, outstandingMiss{reqID: req.ID, instrIdx: c.instrIssued, req: req})
	}
}
