// Package sweep is the concurrent experiment engine: it fans independent
// sweep cells out over a fixed worker pool with deterministic result
// ordering (parallel output is identical to a serial loop), streams results
// in completion order for long-running consumers, honours context
// cancellation cooperatively, and provides a single-flight cache so shared
// work — unprotected baseline simulations — runs exactly once no matter how
// many cells need it.
package sweep

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultJobs is the worker count used when a sweep is configured with
// jobs <= 0: one worker per available core.
func DefaultJobs() int { return runtime.GOMAXPROCS(0) }

// RunContext executes fn(ctx, i) for every i in [0, n) on up to jobs
// workers and returns the results in index order, so a parallel sweep
// emits byte-identical output to the serial path. It is StreamContext
// collected: jobs <= 0 means DefaultJobs(), jobs == 1 runs the plain serial
// loop, and fn sees the same derived context.
//
// On failure it returns one error and no results. A serial run returns the
// first failing cell's error and runs no later cell. A parallel run returns
// the error of some failing cell that ran — not necessarily the lowest
// index, never a fabricated error, and never the cancellation that one
// cell's failure induced in the others. A parent cancellation returns ctx's
// error. A panic in fn is re-raised on the calling goroutine.
func RunContext[T any](ctx context.Context, jobs, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	for iv, err := range StreamContext(ctx, jobs, n, fn) {
		if err != nil {
			return nil, err
		}
		out[iv.I] = iv.V
	}
	return out, nil
}

// sweepErr reports the parent cancellation when it is what aborted the
// sweep: a cell that fails because its derived context was cancelled should
// not masquerade as a real cell error.
func sweepErr(ctx context.Context, cellErr error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return cellErr
}

// Indexed tags a streamed cell result with the cell index it belongs to,
// since streaming delivers results in completion order, not index order.
type Indexed[T any] struct {
	I int
	V T
}

// StreamContext executes fn(i) for every i in [0, n) on up to jobs workers
// and yields each result as it completes — completion order, NOT index
// order (consumers that need index order reassemble via Indexed.I). The
// sequence terminates early, yielding the error once with a zero Indexed
// value, when a cell fails or ctx is cancelled; breaking out of the range
// cancels the remaining cells. However the sequence ends, all worker
// goroutines have exited by the time it returns — streams do not leak.
// fn receives a context derived from ctx, cancelled on first error or
// consumer abandonment, so a long-running cell can abandon work the sweep
// will discard anyway. A cell error is delivered before the cancellation it
// induces in other cells; a parent cancellation wins over errors that cells
// report because of it. A panic in fn is re-raised on the consumer's
// goroutine.
func StreamContext[T any](ctx context.Context, jobs, n int, fn func(ctx context.Context, i int) (T, error)) func(yield func(Indexed[T], error) bool) {
	return func(yield func(Indexed[T], error) bool) {
		if jobs <= 0 {
			jobs = DefaultJobs()
		}
		if jobs > n {
			jobs = n
		}
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		if jobs <= 1 {
			for i := 0; i < n; i++ {
				if err := ctx.Err(); err != nil {
					yield(Indexed[T]{}, err)
					return
				}
				v, err := fn(cctx, i)
				if err != nil {
					yield(Indexed[T]{}, sweepErr(ctx, err))
					return
				}
				if !yield(Indexed[T]{I: i, V: v}, nil) {
					return
				}
			}
			return
		}

		type item struct {
			idx int
			val T
			err error
		}
		var (
			ch       = make(chan item)
			next     atomic.Int64
			mu       sync.Mutex
			panicked any
			wg       sync.WaitGroup
		)
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						if panicked == nil {
							panicked = r
						}
						mu.Unlock()
						cancel()
					}
				}()
				for {
					i := int(next.Add(1)) - 1
					if i >= n || cctx.Err() != nil {
						return
					}
					v, err := fn(cctx, i)
					select {
					case ch <- item{idx: i, val: v, err: err}:
						if err != nil {
							cancel()
							return
						}
						// The send readied the consumer on this P. Yield
						// the P to it: with every P running a CPU-bound
						// cell it would otherwise see the result only at
						// the next preemption, about 10 ms later.
						runtime.Gosched()
					case <-cctx.Done():
						return
					}
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		// However the consumer leaves (break, error, exhaustion), cancel
		// the workers, drain the channel so none block on send, and wait
		// for them all to exit before returning.
		defer func() {
			cancel()
			for {
				select {
				case <-ch:
				case <-done:
					if panicked != nil {
						panic(panicked)
					}
					return
				}
			}
		}()
		delivered := 0
		for delivered < n {
			select {
			case it := <-ch:
				if it.err != nil {
					yield(Indexed[T]{}, sweepErr(ctx, it.err))
					return
				}
				delivered++
				if !yield(Indexed[T]{I: it.idx, V: it.val}, nil) {
					return
				}
			case <-done:
				// Workers exited without delivering everything: parent
				// cancellation or a worker panic (re-raised by the defer).
				if err := ctx.Err(); err != nil {
					yield(Indexed[T]{}, err)
				}
				return
			}
		}
	}
}

// Cache is a concurrency-safe single-flight memo: concurrent Get calls
// with the same key share one fill, so a baseline keyed by the machine it
// simulates is run exactly once per sweep. The zero value is ready
// to use.
//
// The first caller to ask for a key fills it on its own goroutine; a
// caller that finds the fill in flight waits for it, and can hand Get
// work of its own to run first. A fill that panics is not cached: the
// filler's panic propagates, callers waiting on that fill receive an
// error, and a later Get fills the key afresh.
type Cache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*cacheEntry[V]
}

type cacheEntry[V any] struct {
	done chan struct{} // closed once the fill has returned or panicked
	val  V
	err  error
}

// errFillPanicked is what callers waiting on a fill that panicked receive.
var errFillPanicked = errors.New("sweep: cache fill panicked")

// Get returns the cached value for k, filling it with fill on first use.
// A fill error is cached too: every waiter for that key observes it.
//
// When another caller holds k's fill, meanwhile (if non-nil) runs on this
// goroutine before Get blocks on that fill, so the caller does independent
// work instead of sitting idle. It does not run when this caller fills k
// or when k is already filled.
func (c *Cache[K, V]) Get(k K, fill func() (V, error), meanwhile func()) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*cacheEntry[V])
	}
	e := c.m[k]
	if e == nil {
		e = &cacheEntry[V]{done: make(chan struct{})}
		c.m[k] = e
		c.mu.Unlock()
		c.runFill(k, e, fill)
		return e.val, e.err
	}
	c.mu.Unlock()
	if meanwhile != nil {
		select {
		case <-e.done:
		default:
			meanwhile()
		}
	}
	<-e.done
	return e.val, e.err
}

// runFill runs the fill for e and releases its waiters. It does not recover
// a panic, so the filler sees it with its original stack; the deferred
// release evicts the entry first, so a waiter that retries refills it.
func (c *Cache[K, V]) runFill(k K, e *cacheEntry[V], fill func() (V, error)) {
	returned := false
	defer func() {
		if !returned {
			e.err = errFillPanicked
			c.mu.Lock()
			if c.m[k] == e {
				delete(c.m, k)
			}
			c.mu.Unlock()
		}
		close(e.done)
	}()
	e.val, e.err = fill()
	returned = true
}

// Forget drops the entry for k so a later Get refills it. Callers use it
// to evict cancellation errors from long-lived caches: a fill aborted by
// context cancellation is not a fact about the key, and must not poison
// every future Get the way a genuine fill error should.
func (c *Cache[K, V]) Forget(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, k)
}

// Len reports the number of distinct keys filled or in flight.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
