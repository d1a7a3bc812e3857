package mc

import (
	"testing"

	"mithril/internal/dram"
	"mithril/internal/timing"
)

func testParams() timing.Params {
	p := timing.DDR5()
	p.Rows = 4096
	p.RefreshGroups = 512
	return p
}

// runTicks drives the controller for n ticks of one tCK.
func runTicks(c *Controller, from timing.PicoSeconds, n int) timing.PicoSeconds {
	p := c.p
	now := from
	for i := 0; i < n; i++ {
		c.tickAll(now)
		now += p.TCK
	}
	return now
}

func TestControllerServesRequest(t *testing.T) {
	p := testParams()
	dev := dram.NewDevice(p, 1<<30, nil)
	var completions int
	var doneAt timing.PicoSeconds
	c := NewController(dev, Config{Scheduler: FRFCFS}, func(r *Request, at timing.PicoSeconds) {
		completions++
		doneAt = at
	})
	req := &Request{ID: 1, CoreID: 0, Addr: 0x10040}
	if !c.Enqueue(req) {
		t.Fatal("enqueue failed")
	}
	runTicks(c, 0, 200)
	if completions != 1 {
		t.Fatalf("completions = %d, want 1", completions)
	}
	if doneAt <= 0 {
		t.Fatal("completion time should be positive")
	}
	if c.Stats().Served != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestQueueBackpressure(t *testing.T) {
	p := testParams()
	dev := dram.NewDevice(p, 1<<30, nil)
	c := NewController(dev, Config{QueueDepth: 2}, nil)
	a := c.Enqueue(&Request{Addr: 0})
	b := c.Enqueue(&Request{Addr: 64 * 2}) // same channel (stride 2 lines)
	blocked := &Request{Addr: 64 * 4}
	full := c.Enqueue(blocked)
	if !a || !b || full {
		t.Fatalf("expected 2 accepts then reject, got %v %v %v", a, b, full)
	}
	if c.Stats().Rejected != 1 {
		t.Fatal("rejection not counted")
	}
	// Retries of a rejected request count once; another request counts.
	if c.Enqueue(blocked) || c.Enqueue(blocked) || c.Enqueue(&Request{Addr: 64 * 6}) {
		t.Fatal("full queue accepted a request")
	}
	if got := c.Stats().Rejected; got != 2 {
		t.Fatalf("Rejected = %d after two retries and one new request, want 2", got)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	p := testParams()
	dev := dram.NewDevice(p, 1<<30, nil)
	var order []uint64
	c := NewController(dev, Config{Scheduler: FRFCFS, Policy: OpenPage}, func(r *Request, at timing.PicoSeconds) {
		order = append(order, r.ID)
	})
	m := c.Mapper()
	rowA := m.Compose(Location{Row: 10})
	rowB := m.Compose(Location{Row: 20})
	// Open row 10 first, then queue a conflicting request before a hit.
	c.Enqueue(&Request{ID: 1, Addr: rowA})
	runTicks(c, 0, 200)
	c.Enqueue(&Request{ID: 2, Addr: rowB})                               // conflict (older)
	c.Enqueue(&Request{ID: 3, Addr: rowA + uint64(LineSize*p.Channels)}) // hit on open row 10
	runTicks(c, 200*p.TCK, 400)
	if len(order) != 3 || order[1] != 3 || order[2] != 2 {
		t.Fatalf("serve order = %v, want hit (3) before conflict (2)", order)
	}
}

func TestFCFSServesInArrivalOrder(t *testing.T) {
	p := testParams()
	dev := dram.NewDevice(p, 1<<30, nil)
	var order []uint64
	c := NewController(dev, Config{Scheduler: FCFS}, func(r *Request, at timing.PicoSeconds) {
		order = append(order, r.ID)
	})
	m := c.Mapper()
	c.Enqueue(&Request{ID: 1, Addr: m.Compose(Location{Row: 10})})
	c.Enqueue(&Request{ID: 2, Addr: m.Compose(Location{Row: 20})})
	c.Enqueue(&Request{ID: 3, Addr: m.Compose(Location{Row: 10, Column: 1})})
	runTicks(c, 0, 600)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("FCFS order = %v", order)
	}
}

func TestBLISSBlacklistsStreakyCore(t *testing.T) {
	p := testParams()
	dev := dram.NewDevice(p, 1<<30, nil)
	var order []uint64
	c := NewController(dev, Config{Scheduler: BLISS, Policy: OpenPage}, func(r *Request, at timing.PicoSeconds) {
		order = append(order, r.ID)
	})
	m := c.Mapper()
	// Core 0 floods row hits; core 1 queues one conflicting request.
	// After four core-0 serves BLISS must let core 1 through even though
	// core 0 still offers row hits.
	for i := 0; i < 6; i++ {
		c.Enqueue(&Request{ID: uint64(10 + i), CoreID: 0, Addr: m.Compose(Location{Row: 10, Column: i})})
	}
	c.Enqueue(&Request{ID: 99, CoreID: 1, Addr: m.Compose(Location{Row: 20})})
	runTicks(c, 0, 1500)
	if len(order) != 7 {
		t.Fatalf("served %d, want 7", len(order))
	}
	pos := -1
	for i, id := range order {
		if id == 99 {
			pos = i
		}
	}
	if pos < 0 || pos > 4 {
		t.Fatalf("core 1's request served at position %d (order %v), BLISS should unblock it after the streak", pos, order)
	}
}

// TestBlissStateSparseCoreIDs covers the dense blacklist directly: it must
// grow on demand for arbitrary core IDs, ignore unowned serves (core -1),
// and release cores after the clearing interval.
func TestBlissStateSparseCoreIDs(t *testing.T) {
	b := newBlissState()
	now := timing.PicoSeconds(0)
	if b.blacklisted(7, now) {
		t.Fatal("fresh state must not blacklist")
	}
	for i := 0; i < blissStreakLimit; i++ {
		b.recordServe(7, now)
	}
	if !b.blacklisted(7, now) {
		t.Fatal("core 7 should be blacklisted after a full streak")
	}
	if b.blacklisted(3, now) || b.blacklisted(100, now) {
		t.Fatal("other cores must stay whitelisted")
	}
	if b.blacklisted(7, now+blissClearInterval) {
		t.Fatal("blacklist must clear after the interval")
	}
	// Unowned serves (core -1) must neither panic nor blacklist.
	for i := 0; i < 2*blissStreakLimit; i++ {
		b.recordServe(-1, now)
	}
	if b.blacklisted(-1, now) {
		t.Fatal("core -1 must never be blacklisted")
	}
}

func TestAutoRefreshIssuedPeriodically(t *testing.T) {
	p := testParams()
	dev := dram.NewDevice(p, 1<<30, nil)
	c := NewController(dev, Config{}, nil)
	// Run for 4 tREFI: expect ≈4 REFs per rank (2 channels × 1 rank).
	ticks := int(4 * p.TREFI / p.TCK)
	runTicks(c, 0, ticks)
	got := c.Stats().REFIssued
	if got < 6 || got > 10 {
		t.Fatalf("REFIssued = %d over 4 tREFI × 2 ranks, want ≈ 8", got)
	}
}

// rfmProbe is a minimal RFM-compatible scheme recording OnRFM calls.
type rfmProbe struct {
	NoProtection
	rfmTH   int
	rfmSeen int
	skip    bool
	skips   int
}

func (r *rfmProbe) Name() string        { return "probe" }
func (r *rfmProbe) RFMCompatible() bool { return true }
func (r *rfmProbe) RFMTH() int          { return r.rfmTH }
func (r *rfmProbe) OnRFM(bank int, now timing.PicoSeconds) []uint32 {
	r.rfmSeen++
	return []uint32{1, 3}
}
func (r *rfmProbe) SkipRFM(int) bool {
	if r.skip {
		r.skips++
		return true
	}
	return false
}

func TestRFMIssuedEveryRFMTHActivations(t *testing.T) {
	p := testParams()
	dev := dram.NewDevice(p, 1<<30, nil)
	probe := &rfmProbe{rfmTH: 4}
	c := NewController(dev, Config{Scheduler: FRFCFS, Policy: ClosedPage, Scheme: probe}, nil)
	m := c.Mapper()
	// 12 activations to one bank (closed page → every access activates).
	now := timing.PicoSeconds(0)
	for i := 0; i < 12; i++ {
		c.Enqueue(&Request{ID: uint64(i), Addr: m.Compose(Location{Row: i * 2})})
		now = runTicks(c, now, 400)
	}
	if probe.rfmSeen != 3 {
		t.Fatalf("OnRFM called %d times for 12 ACTs at RFMTH=4, want 3", probe.rfmSeen)
	}
	st := c.Stats()
	if st.RFMIssued != 3 {
		t.Fatalf("stats RFMIssued = %d, want 3", st.RFMIssued)
	}
	if dev.Bank(0).Stats().PreventiveRows != 6 {
		t.Fatalf("victim rows = %d, want 6", dev.Bank(0).Stats().PreventiveRows)
	}
}

func TestMithrilPlusSkipAvoidsRFM(t *testing.T) {
	p := testParams()
	dev := dram.NewDevice(p, 1<<30, nil)
	probe := &rfmProbe{rfmTH: 4, skip: true}
	c := NewController(dev, Config{Scheduler: FRFCFS, Policy: ClosedPage, Scheme: probe}, nil)
	m := c.Mapper()
	now := timing.PicoSeconds(0)
	for i := 0; i < 8; i++ {
		c.Enqueue(&Request{ID: uint64(i), Addr: m.Compose(Location{Row: i * 2})})
		now = runTicks(c, now, 400)
	}
	st := c.Stats()
	if probe.rfmSeen != 0 || st.RFMIssued != 0 {
		t.Fatalf("skip flag should suppress RFM: seen=%d issued=%d", probe.rfmSeen, st.RFMIssued)
	}
	if st.RFMSkipped != 2 || st.MRRReads < 2 {
		t.Fatalf("skips=%d MRR=%d, want 2 skips", st.RFMSkipped, st.MRRReads)
	}
	if c.raa[0] >= 4 {
		t.Fatal("RAA should reset on skip")
	}
}

// arrProbe triggers an ARR for every activation of row 100.
type arrProbe struct {
	NoProtection
	arrs int
}

func (a *arrProbe) Name() string { return "arr-probe" }
func (a *arrProbe) OnActivate(bank int, row uint32, core int, now timing.PicoSeconds) []uint32 {
	if row == 100 {
		a.arrs++
		return []uint32{99, 101}
	}
	return nil
}

func TestARRInjection(t *testing.T) {
	p := testParams()
	dev := dram.NewDevice(p, 1<<30, nil)
	probe := &arrProbe{}
	c := NewController(dev, Config{Scheduler: FRFCFS, Policy: ClosedPage, Scheme: probe}, nil)
	m := c.Mapper()
	c.Enqueue(&Request{ID: 1, Addr: m.Compose(Location{Row: 100})})
	runTicks(c, 0, 800)
	st := c.Stats()
	if probe.arrs != 1 || st.ARRWindows != 1 || st.ARRVictims != 2 {
		t.Fatalf("ARR accounting: probe=%d windows=%d victims=%d", probe.arrs, st.ARRWindows, st.ARRVictims)
	}
	if dev.Checker(0).Disturbance(99) != 0 {
		t.Fatal("ARR should refresh victims")
	}
}

// throttleProbe releases ACTs on row 7 only after a fixed absolute time
// (real throttlers like BlockHammer return absolute release times).
type throttleProbe struct {
	NoProtection
	delay timing.PicoSeconds
}

func (tp *throttleProbe) Name() string { return "throttle-probe" }
func (tp *throttleProbe) PreACTDelay(bank int, row uint32, core int, now timing.PicoSeconds) timing.PicoSeconds {
	if row == 7 {
		return tp.delay
	}
	return 0
}

func TestThrottlingDelaysACT(t *testing.T) {
	p := testParams()
	dev := dram.NewDevice(p, 1<<30, nil)
	probe := &throttleProbe{delay: 100 * timing.Microsecond}
	var fastAt, slowAt timing.PicoSeconds
	c := NewController(dev, Config{Scheduler: FRFCFS, Policy: ClosedPage, Scheme: probe},
		func(r *Request, at timing.PicoSeconds) {
			if r.Loc.Row == 7 {
				slowAt = at
			} else {
				fastAt = at
			}
		})
	m := c.Mapper()
	c.Enqueue(&Request{ID: 1, Addr: m.Compose(Location{Row: 7})})          // throttled
	c.Enqueue(&Request{ID: 2, Addr: m.Compose(Location{Row: 9, Bank: 1})}) // free
	ticks := int(200 * timing.Microsecond / p.TCK)
	runTicks(c, 0, ticks)
	if fastAt == 0 || slowAt == 0 {
		t.Fatalf("both requests should complete (fast=%v slow=%v)", fastAt, slowAt)
	}
	if slowAt < 100*timing.Microsecond {
		t.Fatalf("throttled request finished at %v, want ≥ 100us", slowAt)
	}
	if c.Stats().ThrottleHit == 0 {
		t.Fatal("throttle hits not counted")
	}
}

func TestMinimalistOpenCapsHitStreak(t *testing.T) {
	p := testParams()
	dev := dram.NewDevice(p, 1<<30, nil)
	c := NewController(dev, Config{Scheduler: FRFCFS, Policy: MinimalistOpen}, nil)
	m := c.Mapper()
	now := timing.PicoSeconds(0)
	// 12 accesses to the same row: open-page would activate once;
	// minimalist-open must re-activate every 4 accesses → 3 ACTs.
	for i := 0; i < 12; i++ {
		c.Enqueue(&Request{ID: uint64(i), Addr: m.Compose(Location{Row: 10, Column: i % 64})})
		now = runTicks(c, now, 300)
	}
	acts := dev.Bank(0).Stats().ACTs
	if acts != 3 {
		t.Fatalf("ACTs = %d, want 3 under minimalist-open", acts)
	}
}
