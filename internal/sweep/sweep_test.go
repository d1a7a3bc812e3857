package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// run is RunContext over a ctx-free cell function.
func run[T any](jobs, n int, fn func(i int) (T, error)) ([]T, error) {
	return RunContext(context.Background(), jobs, n, func(_ context.Context, i int) (T, error) { return fn(i) })
}

func TestRunOrderingMatchesSerial(t *testing.T) {
	const n = 100
	fn := func(i int) (int, error) { return i * i, nil }
	serial, err := run(1, n, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{0, 2, 7, n + 5} {
		parallel, err := run(jobs, n, fn)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(parallel) != n {
			t.Fatalf("jobs=%d: len = %d", jobs, len(parallel))
		}
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, parallel[i], serial[i])
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	out, err := run(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: out=%v err=%v", out, err)
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("cell 3")
	errB := errors.New("cell 7")
	fn := func(i int) (int, error) {
		if i == 3 {
			return 0, errA
		}
		if i == 7 {
			return 0, errB
		}
		return i, nil
	}
	// Serial: the first failing cell's error, later cells never run.
	if _, err := run(1, 10, fn); !errors.Is(err, errA) {
		t.Fatalf("serial error = %v, want cell 3", err)
	}
	// Parallel: the lowest-index error among the cells that ran wins.
	// Cancellation may skip cell 3 entirely (a worker can observe the
	// cell-7 failure between claiming 3 and running it), so either
	// failing cell's error is valid — but never a fabricated one.
	if _, err := run(2, 10, fn); !errors.Is(err, errA) && !errors.Is(err, errB) {
		t.Fatalf("parallel error = %v, want cell 3 or cell 7", err)
	}
}

func TestRunErrorCancelsRemainingCells(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := run(2, 1000, func(i int) (int, error) {
		started.Add(1)
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Both workers may have a cell in flight when the first error lands,
	// but the queue must not drain after that.
	if got := started.Load(); got > 10 {
		t.Fatalf("%d cells ran after first error", got)
	}
}

func TestRunPanicReachesCaller(t *testing.T) {
	// A panic in fn must be recoverable at the RunContext call site on the
	// parallel path exactly as on the serial one.
	for _, jobs := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "cell 5 exploded" {
					t.Errorf("jobs=%d: recovered %v, want cell 5 panic", jobs, r)
				}
			}()
			_, _ = run(jobs, 10, func(i int) (int, error) {
				if i == 5 {
					panic("cell 5 exploded")
				}
				return i, nil
			})
			t.Errorf("jobs=%d: RunContext returned instead of panicking", jobs)
		}()
	}
}

func TestCacheSingleFlight(t *testing.T) {
	var c Cache[string, int]
	var fills atomic.Int64
	const goroutines = 32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Get("k", func() (int, error) {
				fills.Add(1)
				return 42, nil
			}, nil)
			if err != nil || v != 42 {
				t.Errorf("Get = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if fills.Load() != 1 {
		t.Fatalf("fill ran %d times, want 1", fills.Load())
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCacheDistinctKeysAndErrors(t *testing.T) {
	var c Cache[int, string]
	bad := errors.New("fill failed")
	if _, err := c.Get(1, func() (string, error) { return "", bad }, nil); !errors.Is(err, bad) {
		t.Fatalf("err = %v", err)
	}
	// The error is cached: the fill does not rerun.
	if _, err := c.Get(1, func() (string, error) { return "ok", nil }, nil); !errors.Is(err, bad) {
		t.Fatalf("cached err = %v", err)
	}
	v, err := c.Get(2, func() (string, error) { return "two", nil }, nil)
	if err != nil || v != "two" {
		t.Fatalf("Get(2) = %q, %v", v, err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// TestCacheMeanwhileRunsWhileFillInFlight holds a fill open: a second
// caller for the key runs its own work before the fill is released, then
// receives the filled value.
func TestCacheMeanwhileRunsWhileFillInFlight(t *testing.T) {
	var c Cache[string, int]
	filling, release := make(chan struct{}), make(chan struct{})
	releasedEarly := make(chan bool, 1)
	filled := make(chan int)
	go func() {
		v, _ := c.Get("k", func() (int, error) {
			close(filling)
			select {
			case <-release:
				releasedEarly <- false
			case <-time.After(5 * time.Second): // meanwhile never released it
				releasedEarly <- true
			}
			return 42, nil
		}, func() { t.Error("the filler ran meanwhile") })
		filled <- v
	}()
	<-filling
	v, err := c.Get("k", func() (int, error) {
		t.Error("a second fill ran")
		return 0, nil
	}, func() { close(release) })
	if <-releasedEarly {
		t.Fatal("meanwhile did not run while the fill was held")
	}
	if err != nil || v != 42 {
		t.Fatalf("waiter Get = %d, %v; want the filled 42", v, err)
	}
	if v := <-filled; v != 42 {
		t.Fatalf("filler Get = %d", v)
	}
}

// TestCacheMeanwhileSkippedWhenNotWaiting: an unclaimed key runs the fill
// (and not meanwhile), and a filled key returns at once.
func TestCacheMeanwhileSkippedWhenNotWaiting(t *testing.T) {
	var c Cache[string, int]
	var order []string
	for _, want := range []int{7, 7} {
		v, err := c.Get("k", func() (int, error) {
			order = append(order, "fill")
			return 7, nil
		}, func() { order = append(order, "meanwhile") })
		if err != nil || v != want {
			t.Fatalf("Get = %d, %v", v, err)
		}
	}
	if len(order) != 1 || order[0] != "fill" {
		t.Fatalf("calls = %v, want just one fill", order)
	}
}

// TestCachePanickedFillNotCached: the filler's panic propagates, a waiter
// on that fill gets an error rather than a zero value, and the next Get
// refills the key.
func TestCachePanickedFillNotCached(t *testing.T) {
	var c Cache[string, int]
	filling, release := make(chan struct{}), make(chan struct{})
	waited := make(chan error)
	go func() {
		<-filling
		v, err := c.Get("k", func() (int, error) {
			t.Error("a waiter ran the fill")
			return 0, nil
		}, func() { close(release) })
		if err == nil {
			t.Errorf("waiter Get = %d, nil; want an error", v)
		}
		waited <- err
	}()
	func() {
		defer func() {
			if r := recover(); r != "fill exploded" {
				t.Errorf("recovered %v, want the fill's panic", r)
			}
		}()
		c.Get("k", func() (int, error) {
			close(filling)
			select {
			case <-release:
			case <-time.After(5 * time.Second):
				t.Error("the waiter did not run meanwhile")
			}
			panic("fill exploded")
		}, nil)
		t.Error("Get returned instead of panicking")
	}()
	if err := <-waited; !errors.Is(err, errFillPanicked) {
		t.Fatalf("waiter err = %v, want errFillPanicked", err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after a panicked fill, want 0", c.Len())
	}
	v, err := c.Get("k", func() (int, error) { return 9, nil }, nil)
	if err != nil || v != 9 {
		t.Fatalf("Get after panic = %d, %v; want a refill to 9", v, err)
	}
}
