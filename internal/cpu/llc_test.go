package cpu

import (
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// An LLC must fill exactly one cache line (see the LLC doc): any other
// size lets two caches simulated in parallel share a line.
func TestLLCFillsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(LLC{}); got != 64 {
		t.Fatalf("sizeof(LLC) = %d bytes, want 64", got)
	}
}

func TestCheckLLC(t *testing.T) {
	const ddr5Space = 1 << 35 // 2 ch × 32 banks × 64K rows × 8 KB
	for _, tc := range []struct {
		name        string
		bytes, ways int
		space       uint64
		wantErr     bool
	}{
		{name: "table III", bytes: 16 << 20, ways: 16, space: ddr5Space},
		{name: "3 MB: 3072 sets", bytes: 3 << 20, ways: 16, space: ddr5Space, wantErr: true},
		{name: "zero capacity", bytes: 0, ways: 16, space: ddr5Space, wantErr: true},
		{name: "zero ways", bytes: 1 << 20, ways: 0, space: ddr5Space, wantErr: true},
		{name: "one set, space at the tag limit", bytes: 128, ways: 2, space: math.MaxUint32 << 6},
		{name: "one set, space past the tag limit", bytes: 128, ways: 2, space: 1 << 40, wantErr: true},
		{name: "1 GB direct-mapped: tags above 2^32 − 2", bytes: 1 << 30, ways: 1, space: 1 << 63, wantErr: true},
		{name: "34 index bits: every address fits", bytes: 1 << 40, ways: 1, space: 1 << 63},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := CheckLLC(tc.bytes, tc.ways, tc.space); (err != nil) != tc.wantErr {
				t.Fatalf("CheckLLC(%d, %d, %#x) = %v, want error %v", tc.bytes, tc.ways, tc.space, err, tc.wantErr)
			}
		})
	}
}

// TestLLCPackedTagsAtTheLimit pins the packed encoding at its edges: the
// largest tag CheckLLC admits is distinct from tag 0 and from an
// invalid way.
func TestLLCPackedTagsAtTheLimit(t *testing.T) {
	l := NewLLC(128, 2) // 1 set: tag = addr >> 6
	top := addressLimit(l.sets) - 64
	if top>>6 != math.MaxUint32-1 {
		t.Fatalf("top line tag = %#x, want 2^32 − 2", top>>6)
	}
	if l.Access(top) || l.Access(0) {
		t.Fatal("cold lines must miss")
	}
	if !l.Access(top) || !l.Access(0) {
		t.Fatal("resident lines must hit")
	}
	if hits, misses := l.hits, l.misses; hits != 2 || misses != 2 {
		t.Fatalf("stats = %d hits, %d misses, want 2, 2", hits, misses)
	}
}

// TestReleasedLLCSurvivesGC pins the free-list pool: a released cache is
// not reclaimed by the garbage collector and comes back empty.
func TestReleasedLLCSurvivesGC(t *testing.T) {
	l := AcquireLLC(64*16*8, 8) // a geometry no other test acquires
	for i := uint64(0); i < 64; i++ {
		l.Access(i * 64)
	}
	ReleaseLLC(l)
	runtime.GC()
	runtime.GC()
	got := AcquireLLC(64*16*8, 8)
	defer ReleaseLLC(got)
	if got != l {
		t.Fatal("released LLC did not survive two collections")
	}
	if hits, misses := got.hits, got.misses; hits != 0 || misses != 0 {
		t.Fatalf("recycled LLC keeps counters: %d hits, %d misses", hits, misses)
	}
	if got.Access(0) {
		t.Fatal("recycled LLC keeps lines")
	}
}
