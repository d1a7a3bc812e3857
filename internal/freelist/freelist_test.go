package freelist

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestListKeepsValuesPerKey(t *testing.T) {
	var l List[string, int]
	if _, ok := l.Get("a"); ok {
		t.Fatal("empty list returned a value")
	}
	l.Put("a", 1)
	l.Put("a", 2)
	l.Put("b", 3)
	for _, want := range []int{2, 1} {
		if v, ok := l.Get("a"); !ok || v != want {
			t.Fatalf("Get(a) = %d, %v; want %d, true", v, ok, want)
		}
	}
	if _, ok := l.Get("a"); ok {
		t.Fatal("key a should be drained")
	}
	if v, ok := l.Get("b"); !ok || v != 3 {
		t.Fatalf("Get(b) = %d, %v; want 3, true", v, ok)
	}
}

// TestListHandsEachValueToOneHolder pins the pool contract under
// concurrency: a value is never held by two goroutines at once, and the
// list never grows past the peak number of values in use.
func TestListHandsEachValueToOneHolder(t *testing.T) {
	const workers = 8
	var l List[int, *atomic.Bool]
	var built atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v, ok := l.Get(0)
				if !ok {
					v = new(atomic.Bool)
					built.Add(1)
				}
				if v.Swap(true) {
					t.Error("value handed to two holders at once")
					return
				}
				v.Store(false)
				l.Put(0, v)
			}
		}()
	}
	wg.Wait()
	if n := built.Load(); n > workers {
		t.Fatalf("built %d values for %d concurrent holders", n, workers)
	}
}
