package cpu

import (
	"testing"

	"mithril/internal/mc"
	"mithril/internal/timing"
)

// scriptSource replays a fixed list of ops, then repeats the last one.
type scriptSource struct {
	entries []Op
	pos     int
}

func (s *scriptSource) Next() Op {
	e := s.entries[s.pos]
	if s.pos < len(s.entries)-1 {
		s.pos++
	}
	return e
}

func seqSource(gap int, stride uint64) *scriptSource {
	s := &scriptSource{}
	for i := 0; i < 4096; i++ {
		s.entries = append(s.entries, Op{Gap: gap, Addr: uint64(i) * stride})
	}
	return s
}

func TestLLCHitMissLRU(t *testing.T) {
	l := NewLLC(64*64*2, 2) // 2 sets... small: 64 lines per way region
	if l.Access(0) {
		t.Fatal("cold access should miss")
	}
	if !l.Access(0) {
		t.Fatal("second access should hit")
	}
	if hits, misses := l.hits, l.misses; hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
}

func TestLLCEviction(t *testing.T) {
	// Capacity 2 ways × 1 set of lines: build smallest legal cache: 64B
	// lines, 1 set needs power-of-two sets.
	l := NewLLC(64*2, 2) // 1 set, 2 ways
	l.Access(0)          // miss, insert
	l.Access(64)         // miss, insert (same set)
	l.Access(128)        // miss, evicts LRU (line 0)
	if l.Access(0) {
		t.Fatal("line 0 should have been evicted")
	}
	if !l.Access(128) {
		t.Fatal("line 128 should be resident")
	}
}

func TestLLCHitRate(t *testing.T) {
	l := NewLLC(1<<20, 16)
	for i := 0; i < 100; i++ {
		l.Access(uint64(i) * 64)
	}
	for i := 0; i < 100; i++ {
		l.Access(uint64(i) * 64)
	}
	if hr := l.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", hr)
	}
}

func TestLLCGeometryPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLLC(0, 4) },
		func() { NewLLC(64*3, 1) }, // 3 sets: not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCoreAllHitsRetiresAtFullWidth(t *testing.T) {
	cfg := DefaultCoreConfig()
	llc := NewLLC(1<<20, 16)
	llc.Access(0) // preload the single line the core will touch
	src := &scriptSource{}
	src.entries = append(src.entries, Op{Gap: 39, Addr: 0})
	core := NewCore(0, cfg, src, llc, 4000, func(r *mc.Request) bool {
		t.Fatal("all-hit workload must not reach memory")
		return false
	})
	now := timing.PicoSeconds(0)
	for !core.Finished() && now < timing.Millisecond {
		core.Advance(now)
		now += 10 * cfg.CyclePs
	}
	if !core.Finished() {
		t.Fatal("core did not finish")
	}
	// 40 instructions per access at width 4 → 10 cycles + 2 hit penalty:
	// IPC ≈ 40/12 ≈ 3.3.
	if ipc := core.IPC(); ipc < 2.5 || ipc > 4 {
		t.Fatalf("IPC = %v, want ≈ 3.3", ipc)
	}
}

func TestCoreMSHRLimitBoundsOutstanding(t *testing.T) {
	cfg := DefaultCoreConfig()
	cfg.MSHRs = 4
	llc := NewLLC(1<<20, 16)
	var inflight []*mc.Request
	src := seqSource(0, 1<<20) // every access misses (distinct far lines)
	core := NewCore(0, cfg, src, llc, 1<<40, func(r *mc.Request) bool {
		inflight = append(inflight, r)
		return true
	})
	core.Advance(timing.Second) // unlimited time: MSHRs must be the limit
	if len(inflight) != 4 {
		t.Fatalf("outstanding = %d, want MSHR limit 4", len(inflight))
	}
	// Completing one lets exactly one more issue.
	core.Complete(inflight[0].ID, 100*timing.Nanosecond)
	core.Advance(timing.Second)
	if len(inflight) != 5 {
		t.Fatalf("after one completion, issued = %d, want 5", len(inflight))
	}
}

func TestCoreSerializedAccessDrainsFirst(t *testing.T) {
	cfg := DefaultCoreConfig()
	llc := NewLLC(1<<20, 16)
	var issued []*mc.Request
	src := &scriptSource{}
	for i := 0; i < 64; i++ {
		src.entries = append(src.entries, Op{Gap: 0, Addr: uint64(i) << 20, Serialize: true})
	}
	core := NewCore(0, cfg, src, llc, 1<<40, func(r *mc.Request) bool {
		issued = append(issued, r)
		return true
	})
	core.Advance(timing.Second)
	if len(issued) != 1 {
		t.Fatalf("serialized chain issued %d concurrently, want 1", len(issued))
	}
	core.Complete(issued[0].ID, timing.Microsecond)
	core.Advance(timing.Second)
	if len(issued) != 2 {
		t.Fatalf("next link should issue after completion, got %d", len(issued))
	}
}

func TestCoreROBStall(t *testing.T) {
	cfg := DefaultCoreConfig()
	cfg.MSHRs = 64
	cfg.ROB = 100
	llc := NewLLC(1<<20, 16)
	var issued []*mc.Request
	// First access misses; followers are hits with gap 9 (10 instr each):
	// fetch may run at most ROB instructions past the stuck miss.
	src := &scriptSource{}
	src.entries = append(src.entries, Op{Gap: 0, Addr: 1 << 30})
	for i := 0; i < 1000; i++ {
		src.entries = append(src.entries, Op{Gap: 9, Addr: 0})
	}
	llc.Access(0)
	core := NewCore(0, cfg, src, llc, 1<<40, func(r *mc.Request) bool {
		issued = append(issued, r)
		return true
	})
	core.Advance(timing.Second)
	retiredBefore := core.InstructionsRetired()
	// The window check precedes each 10-instruction entry, so fetch can
	// overshoot by at most one entry: ≤ ROB + 1 + 10.
	if retiredBefore > 111 {
		t.Fatalf("fetch ran %d instructions past a stuck miss (ROB=100)", retiredBefore)
	}
	core.Complete(issued[0].ID, timing.Microsecond)
	core.Advance(2 * timing.Microsecond)
	if core.InstructionsRetired() <= retiredBefore {
		t.Fatal("completion should unblock the ROB")
	}
}

func TestCoreBackpressureRetry(t *testing.T) {
	cfg := DefaultCoreConfig()
	llc := NewLLC(1<<20, 16)
	accept := false
	var got []*mc.Request
	src := seqSource(0, 1<<20)
	core := NewCore(0, cfg, src, llc, 1<<40, func(r *mc.Request) bool {
		r.Loc.Channel = 1
		if accept {
			got = append(got, r)
		}
		return accept
	})
	if ch := core.BlockedChannel(); ch != -1 {
		t.Fatalf("BlockedChannel = %d before any request, want -1", ch)
	}
	core.Advance(10 * timing.Nanosecond)
	if len(got) != 0 {
		t.Fatal("rejected request should not be recorded")
	}
	if ch := core.BlockedChannel(); ch != 1 {
		t.Fatalf("BlockedChannel = %d while the request waits, want 1", ch)
	}
	accept = true
	core.Advance(20 * timing.Nanosecond)
	if len(got) == 0 {
		t.Fatal("pending request should be retried and accepted")
	}
	if ch := core.BlockedChannel(); ch != -1 {
		t.Fatalf("BlockedChannel = %d after acceptance, want -1", ch)
	}
}

func TestCoreFinishAndIPCPositive(t *testing.T) {
	cfg := DefaultCoreConfig()
	llc := NewLLC(1<<20, 16)
	src := seqSource(19, 64) // hits after first touch of each line
	done := map[uint64]bool{}
	var pendingIDs []uint64
	core := NewCore(3, cfg, src, llc, 2000, func(r *mc.Request) bool {
		pendingIDs = append(pendingIDs, r.ID)
		return true
	})
	now := timing.PicoSeconds(0)
	for !core.Finished() && now < 10*timing.Millisecond {
		core.Advance(now)
		for _, id := range pendingIDs {
			if !done[id] {
				core.Complete(id, now+50*timing.Nanosecond)
				done[id] = true
			}
		}
		now += 100 * cfg.CyclePs
	}
	if !core.Finished() {
		t.Fatal("core did not finish")
	}
	if core.IPC() <= 0 {
		t.Fatalf("IPC = %v", core.IPC())
	}
	if len(done) == 0 {
		t.Fatal("core finished without a memory request reaching the controller")
	}
}

func TestCoreConstructorPanics(t *testing.T) {
	llc := NewLLC(1<<20, 16)
	for _, fn := range []func(){
		func() { NewCore(0, CoreConfig{}, seqSource(0, 64), llc, 100, nil) },
		func() { NewCore(0, DefaultCoreConfig(), seqSource(0, 64), llc, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCompleteUnknownRequestPanics(t *testing.T) {
	llc := NewLLC(1<<20, 16)
	core := NewCore(0, DefaultCoreConfig(), seqSource(0, 64), llc, 100, func(*mc.Request) bool { return true })
	defer func() {
		if recover() == nil {
			t.Fatal("unknown completion should panic")
		}
	}()
	core.Complete(999, 0)
}
