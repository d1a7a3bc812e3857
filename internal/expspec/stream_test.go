package expspec

import (
	"context"
	"errors"
	"iter"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// streamScale resolves tiny()'s scale with a worker pool.
func streamScale(t *testing.T, jobs int) Scale {
	t.Helper()
	sc, err := tiny().Scale.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sc.Jobs = jobs
	return sc
}

// stream starts s over its full grid at sc, failing the test on a
// construction error.
func stream(ctx context.Context, t *testing.T, s *Spec, sc Scale) iter.Seq2[Row, error] {
	t.Helper()
	seq, err := s.StreamRowsAt(ctx, sc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestStreamMatchesBatch pins the core streaming guarantee: reassembling a
// stream's rows by Index reproduces the batch result exactly.
func TestStreamMatchesBatch(t *testing.T) {
	s := tiny()
	sc := streamScale(t, 4)
	batch, err := s.RunAtContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]PerfPoint, len(batch.Perf))
	seen := 0
	for row, err := range stream(context.Background(), t, s, sc) {
		if err != nil {
			t.Fatal(err)
		}
		if row.Perf == nil {
			t.Fatalf("row %d has no perf point", row.Index)
		}
		got[row.Index] = *row.Perf
		seen++
	}
	if seen != len(batch.Perf) {
		t.Fatalf("streamed %d rows, batch has %d", seen, len(batch.Perf))
	}
	if !reflect.DeepEqual(got, batch.Perf) {
		t.Errorf("stream != batch:\nstream: %v\nbatch:  %v", got, batch.Perf)
	}
}

// An invalid spec fails at construction, before any row could be yielded.
func TestStreamInvalidSpecYieldsError(t *testing.T) {
	s := tiny()
	s.Axes.Schemes = []string{"bogus"}
	seq, err := s.StreamRowsAt(context.Background(), streamScale(t, 1), nil, nil)
	if err == nil || seq != nil {
		t.Fatalf("err=%v seq=%v, want a validation error and no sequence", err, seq != nil)
	}
}

func TestStreamCancelMidSweep(t *testing.T) {
	s := tiny()
	s.Axes.Seeds = []uint64{1, 2, 3, 4, 5, 6} // 12 rows
	sc := streamScale(t, 2)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	var sawErr error
	for _, err := range stream(ctx, t, s, sc) {
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
		t.Fatalf("err = %v, want context.Canceled", sawErr)
	}
	if rows >= 12 {
		t.Fatal("full grid delivered despite cancellation")
	}
	// All sweep workers must have exited by the time the range ends.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("leaked goroutines: %d > %d", g, baseline)
	}
}

// TestCancelCutsInFlightSimulations cancels two executions while every
// kind of simulation they run is in flight: the shared baseline fill, a
// comparison row's protected run (the other row's baseline is in flight,
// so it runs first) and an adth row's laned run (its baseline is the
// comparison's, in flight). Each would run for tens of seconds — a
// 16-core machine with no instruction limit runs to its 400 ms simulated
// MaxTime — so both executions end promptly only if every one of those
// simulations honours the caller's ctx.
func TestCancelCutsInFlightSimulations(t *testing.T) {
	sc := QuickScale()
	sc.Cores, sc.InstrPerCore, sc.Jobs = 16, 1<<40, 2
	comparison := &Spec{
		Name: "cancel-comparison", Title: "cancel", Kind: Comparison, Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{Schemes: []string{"mithril", "graphene"}, FlipTHs: []int{6250}, Workloads: []string{"mix-high"}},
	}
	adth := &Spec{
		Name: "cancel-adth", Title: "cancel", Kind: AdTHSweep, Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{Configs: []ConfigPoint{{FlipTH: 6250, RFMTH: 64}}, AdTHs: []int{0, 200}, Workloads: []string{"multi-programmed"}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := &ExecOptions{Baselines: NewBaselineCache()}
	errs := make(chan error, 2)
	start := func(s *Spec) {
		go func() {
			_, err := s.RunAtContext(ctx, sc, opts)
			errs <- err
		}()
	}
	start(comparison)
	for claimed := time.Now().Add(10 * time.Second); opts.Baselines.Len() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(claimed) {
			t.Fatal("the comparison execution never claimed its baseline")
		}
	}
	start(adth)
	// No hook reports a simulation's start, so give them time to start: a
	// sleep too short cannot fail the test, only leave a run unexercised.
	time.Sleep(500 * time.Millisecond)
	cancel()
	deadline := time.After(5 * time.Second)
	for range 2 {
		select {
		case err := <-errs:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		case <-deadline:
			t.Fatal("an execution ran on for 5 s after cancellation: an in-flight simulation ignores the caller's ctx")
		}
	}
}

func TestRunAtContextCancelled(t *testing.T) {
	s := tiny()
	sc := streamScale(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunAtContext(ctx, sc, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProgressHook(t *testing.T) {
	s := tiny()
	sc := streamScale(t, 4)
	var calls []int
	var lastTotal int
	res, err := s.RunAtContext(context.Background(), sc, &ExecOptions{
		Progress: func(done, total int) { calls = append(calls, done); lastTotal = total },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(res.Perf) || lastTotal != len(res.Perf) {
		t.Fatalf("progress calls %v (total %d), want %d monotonic calls", calls, lastTotal, len(res.Perf))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not monotonic", calls)
		}
	}
}

// TestSharedBaselineCache pins the WithBaselineCache contract: a second
// execution of the same spec against a shared cache adds no new baseline
// entries, and results are identical to a cold run.
func TestSharedBaselineCache(t *testing.T) {
	s := tiny()
	sc := streamScale(t, 2)
	cache := NewBaselineCache()
	opts := &ExecOptions{Baselines: cache}
	a, err := s.RunAtContext(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm := cache.Len()
	if warm == 0 {
		t.Fatal("no baselines cached")
	}
	b, err := s.RunAtContext(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != warm {
		t.Fatalf("second run grew the cache: %d -> %d", warm, cache.Len())
	}
	if !reflect.DeepEqual(a.Perf, b.Perf) {
		t.Errorf("warm-cache run diverges: %v vs %v", a.Perf, b.Perf)
	}
}

func TestRowValues(t *testing.T) {
	s := tiny()
	sc := streamScale(t, 1)
	for row, err := range stream(context.Background(), t, s, sc) {
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.RowValues(sc, row)
		if err != nil {
			t.Fatal(err)
		}
		// Default comparison columns, with the row's own values bound.
		for _, col := range []string{"scheme", "flipth", "workload", "perf", "energy", "tablekb", "safe"} {
			if _, ok := m[col]; !ok {
				t.Fatalf("RowValues missing %q: %v", col, m)
			}
		}
		if m["scheme"] != row.Perf.Scheme {
			t.Fatalf("scheme = %v, want %v", m["scheme"], row.Perf.Scheme)
		}
	}
	// A row whose point is missing must error, not panic.
	if _, err := s.RowValues(sc, Row{}); err == nil {
		t.Fatal("empty row should error")
	}
}
