package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mithril/internal/testutil"
)

func TestRunContextCancelStopsWithinOneCell(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		check := testutil.CheckGoroutines(t)
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		release := make(chan struct{})
		_, err := RunContext(ctx, jobs, 100, func(ctx context.Context, i int) (int, error) {
			if started.Add(1) == 1 {
				cancel() // cancel while the very first cells are in flight
				close(release)
			}
			<-release
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
		// In-flight cells (at most one per worker) finish; nothing new
		// starts after the cancel.
		if got := started.Load(); got > int64(jobs) {
			t.Errorf("jobs=%d: %d cells started after cancel", jobs, got)
		}
		check()
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := RunContext(ctx, 1, 10, func(ctx context.Context, i int) (int, error) {
		ran = true
		return i, nil
	})
	if !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("err=%v ran=%v, want immediate context.Canceled", err, ran)
	}
}

func TestRunContextCellSeesDerivedCancel(t *testing.T) {
	// A failing cell must cancel the ctx handed to still-running cells,
	// replacing the old "cells that have not started are skipped" contract
	// with genuine mid-cell cancellation.
	boom := errors.New("boom")
	sawCancel := make(chan struct{})
	otherStarted := make(chan struct{})
	_, err := RunContext(context.Background(), 2, 2, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			<-otherStarted // fail only once cell 1 is genuinely in flight
			return 0, boom
		}
		close(otherStarted)
		select {
		case <-ctx.Done():
			close(sawCancel)
		case <-time.After(5 * time.Second):
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	select {
	case <-sawCancel:
	default:
		t.Fatal("surviving cell never observed the first-error cancellation")
	}
}

// TestRunContextRealErrorNotMaskedByInducedCancel pins the error-priority
// contract: a lower-index cell aborted by the sweep's own first-error
// cancellation must not overwrite the genuine failure with
// context.Canceled.
func TestRunContextRealErrorNotMaskedByInducedCancel(t *testing.T) {
	boom := errors.New("boom")
	cell1Failed := make(chan struct{})
	_, err := RunContext(context.Background(), 2, 2, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			close(cell1Failed)
			return 0, boom
		}
		// Cell 0 outlives cell 1's failure and aborts via the derived
		// cancellation — the exact interleaving that used to win the
		// lowest-index race and report context.Canceled.
		<-cell1Failed
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the genuine cell error", err)
	}
}

func TestStreamContextDeliversAll(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	for _, jobs := range []int{1, 4} {
		got := map[int]int{}
		for iv, err := range StreamContext(context.Background(), jobs, 50, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		}) {
			if err != nil {
				t.Fatalf("jobs=%d: %v", jobs, err)
			}
			got[iv.I] = iv.V
		}
		if len(got) != 50 {
			t.Fatalf("jobs=%d: %d results, want 50", jobs, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: result[%d] = %d", jobs, i, v)
			}
		}
	}
}

func TestStreamContextConsumerBreakStopsWorkers(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		check := testutil.CheckGoroutines(t)
		var started atomic.Int64
		seen := 0
		for _, err := range StreamContext(context.Background(), jobs, 1000, func(_ context.Context, i int) (int, error) {
			started.Add(1)
			return i, nil
		}) {
			if err != nil {
				t.Fatalf("jobs=%d: %v", jobs, err)
			}
			seen++
			if seen == 3 {
				break
			}
		}
		check()
		// The claim counter may run slightly ahead of deliveries (one
		// in-flight cell per worker), but breaking must stop the sweep
		// long before the 1000-cell grid drains.
		if got := started.Load(); got > int64(3+2*jobs) {
			t.Errorf("jobs=%d: %d cells ran after break", jobs, got)
		}
	}
}

func TestStreamContextErrorTerminates(t *testing.T) {
	boom := errors.New("boom")
	for _, jobs := range []int{1, 4} {
		check := testutil.CheckGoroutines(t)
		var sawErr error
		rows := 0
		for _, err := range StreamContext(context.Background(), jobs, 100, func(_ context.Context, i int) (int, error) {
			if i == 5 {
				return 0, boom
			}
			return i, nil
		}) {
			if err != nil {
				sawErr = err
				continue // the sequence must end itself after an error
			}
			rows++
		}
		if !errors.Is(sawErr, boom) {
			t.Fatalf("jobs=%d: err = %v, want boom", jobs, sawErr)
		}
		if rows >= 100 {
			t.Fatalf("jobs=%d: full grid delivered despite error", jobs)
		}
		check()
	}
}

func TestStreamContextParentCancel(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		check := testutil.CheckGoroutines(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var sawErr error
		rows := 0
		for _, err := range StreamContext(ctx, jobs, 1000, func(_ context.Context, i int) (int, error) {
			return i, nil
		}) {
			if err != nil {
				sawErr = err
				continue
			}
			rows++
			if rows == 2 {
				cancel()
			}
		}
		if !errors.Is(sawErr, context.Canceled) {
			t.Fatalf("jobs=%d: err = %v, want context.Canceled (after %d rows)", jobs, sawErr, rows)
		}
		check()
	}
}

func TestStreamContextPanicReachesConsumer(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	for _, jobs := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "cell 5 exploded" {
					t.Errorf("jobs=%d: recovered %v, want cell 5 panic", jobs, r)
				}
			}()
			for range StreamContext(context.Background(), jobs, 10, func(_ context.Context, i int) (int, error) {
				if i == 5 {
					panic("cell 5 exploded")
				}
				return i, nil
			}) {
			}
			t.Errorf("jobs=%d: stream completed instead of panicking", jobs)
		}()
	}
}
