package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRunContextPreCancelled(t *testing.T) {
	cfg := smallConfig()
	cfg.Workload = smallWorkload(2).Fresh()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextCancelAbortsMidRun(t *testing.T) {
	cfg := smallConfig()
	cfg.InstrPerCore = 50_000_000 // far beyond what finishes in the deadline
	cfg.Workload = smallWorkload(2).Fresh()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := RunContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cooperative check fires every few thousand iterations; the run
	// must abort well before the instruction budget would have completed.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// A cancellable context switches the main loop onto its polling path; a
// run that is never cancelled must produce exactly the Background result.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := smallConfig()
	cfg.Workload = smallWorkload(2).Fresh()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, err := RunContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := smallConfig()
	cfg2.Workload = smallWorkload(2).Fresh()
	b, err := RunContext(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a.AggregateIPC != b.AggregateIPC || a.SimulatedTime != b.SimulatedTime {
		t.Fatalf("cancellable path diverges: %v/%v vs %v/%v",
			a.AggregateIPC, a.SimulatedTime, b.AggregateIPC, b.SimulatedTime)
	}
}
