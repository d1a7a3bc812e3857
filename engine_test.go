package mithril

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"

	"mithril/internal/expspec"
	"mithril/internal/resultstore"
	"mithril/internal/serveapi"
	"mithril/internal/testutil"
)

// tinySpec is a comparison grid small enough for unit tests.
const tinySpec = `{
  "name": "engine-tiny",
  "kind": "comparison",
  "scale": {"preset": "quick", "cores": 2, "instr_per_core": 400},
  "axes": {
    "schemes": ["none", "mithril"],
    "flipths": [6250],
    "workloads": ["mix-high"]
  }
}`

func parseTinySpec(t *testing.T) *ExperimentSpec {
	t.Helper()
	sp, err := ParseSpec([]byte(tinySpec))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestEngineRunSpecMatchesSpecRun pins that the Engine path is a pure
// re-plumbing: the same spec produces identical rows through the Engine
// and through the spec's own executor.
func TestEngineRunSpecMatchesSpecRun(t *testing.T) {
	sp := parseTinySpec(t)
	sc, err := sp.Scale.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sp.RunAtContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(DDR5(), WithJobs(2))
	viaEngine, err := eng.RunSpec(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Perf, viaEngine.Perf) {
		t.Errorf("engine path diverges:\ndirect: %v\nengine: %v", direct.Perf, viaEngine.Perf)
	}
}

// TestEngineStreamMatchesRunSpec pins the streaming guarantee at the
// public surface: reassembling Stream's rows by Index reproduces RunSpec.
func TestEngineStreamMatchesRunSpec(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	sp := parseTinySpec(t)
	eng := NewEngine(DDR5(), WithJobs(2))
	batch, err := eng.RunSpec(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]expspec.PerfPoint, len(batch.Perf))
	rows := 0
	for row, err := range eng.Stream(context.Background(), sp) {
		if err != nil {
			t.Fatal(err)
		}
		got[row.Index] = *row.Perf
		rows++
	}
	if rows != len(batch.Perf) {
		t.Fatalf("streamed %d rows, want %d", rows, len(batch.Perf))
	}
	if !reflect.DeepEqual(got, batch.Perf) {
		t.Errorf("stream != batch:\nstream: %v\nbatch:  %v", got, batch.Perf)
	}
}

// noneScheme is the unprotected scheme, for Compare calls that only
// exercise the Engine's config handling.
func noneScheme(t *testing.T) Scheme {
	t.Helper()
	s, err := NewScheme("none", SchemeOptions{Timing: DDR5(), FlipTH: 6250})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEngineRunDefaultsParams(t *testing.T) {
	eng := NewEngine(DDR5())
	sc := tinyScale()
	cfg := expspec.BaseSimConfig(6250, sc)
	cfg.Params = TimingParams{} // Engine must fill in its own
	cfg.InstrPerCore = 400
	cmp, err := eng.Compare(context.Background(), cfg, MixHigh(2, 1), noneScheme(t))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Protected.AggregateIPC <= 0 {
		t.Fatalf("aggregate IPC = %v", cmp.Protected.AggregateIPC)
	}
}

func TestEngineStreamCancelStopsWorkers(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	sp := parseTinySpec(t)
	sp.Axes.Seeds = []uint64{1, 2, 3, 4, 5, 6}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := NewEngine(DDR5(), WithJobs(2))
	rows := 0
	var sawErr error
	for _, err := range eng.Stream(ctx, sp) {
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
}

// Each execution fills its own baseline cache: a second run through the
// same Engine simulates its baselines again and must agree.
func TestEngineProgressAndBaselineCache(t *testing.T) {
	sp := parseTinySpec(t)
	var calls int
	eng := NewEngine(DDR5(), WithJobs(1),
		WithProgress(func(done, total int) { calls++ }))
	a, err := eng.RunSpec(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(a.Perf) {
		t.Fatalf("progress calls = %d, want %d", calls, len(a.Perf))
	}
	b, err := eng.RunSpec(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Perf, b.Perf) {
		t.Errorf("warm engine run diverges: %v vs %v", a.Perf, b.Perf)
	}
}

// TestEngineWithWorkers drives the fleet entry points end to end: an
// Engine fanning out to two workers, with a result store and a progress
// hook, matches the local Engine byte for byte through both RunSpecAt and
// StreamAt, reports progress once per row, and serves every row from the
// store the second time.
func TestEngineWithWorkers(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ctx := context.Background()
	sp := parseTinySpec(t)
	sp.Axes.Seeds = []uint64{1, 2}
	sc, err := sp.Scale.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewEngine(DDR5(), WithJobs(2)).RunSpecAt(ctx, sp, sc)
	if err != nil {
		t.Fatal(err)
	}
	want, n := local.Golden(), len(local.Perf)
	if n != 4 {
		t.Fatalf("local run has %d rows, want 4", n)
	}

	var workers []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(serveapi.NewHandler(serveapi.Config{Jobs: 1}))
		defer ts.Close()
		workers = append(workers, ts.URL)
	}
	var calls, total int
	fleet := NewEngine(DDR5(), WithJobs(2), WithWorkers(workers), WithResultStore(resultstore.NewMem()),
		WithProgress(func(done, n int) { calls, total = calls+1, n }))

	cold, err := fleet.RunSpecAt(ctx, sp, sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Golden(); got != want {
		t.Errorf("fleet RunSpecAt diverges from local:\nlocal:\n%s\nfleet:\n%s", want, got)
	}
	if calls != n || total != n || cold.RowsCached != 0 || cold.RowsSimulated != n {
		t.Errorf("cold run: %d progress calls of total %d, cached=%d simulated=%d; want %d calls, all simulated",
			calls, total, cold.RowsCached, cold.RowsSimulated, n)
	}

	calls = 0
	var rows []ExperimentResultRow
	for row, err := range fleet.StreamAt(ctx, sp, sc) {
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	warm, err := sp.NewResult(sc, rows)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Golden(); got != want {
		t.Errorf("fleet StreamAt diverges from local:\nlocal:\n%s\nfleet:\n%s", want, got)
	}
	if calls != n || warm.RowsCached != n || warm.RowsSimulated != 0 {
		t.Errorf("warm run: %d progress calls, cached=%d simulated=%d; want %d calls, all cached",
			calls, warm.RowsCached, warm.RowsSimulated, n)
	}
}

func TestErrUnknownSchemeSurface(t *testing.T) {
	_, err := NewScheme("not-a-scheme", SchemeOptions{Timing: DDR5(), FlipTH: 6250})
	if !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("err = %v, want ErrUnknownScheme", err)
	}
}

// TestSchemeNamesSorted pins the public ordering guarantee.
func TestSchemeNamesSorted(t *testing.T) {
	want := []string{"blockhammer", "cbt", "graphene", "mithril", "mithril+", "none", "para", "parfm", "twice"}
	if got := SchemeNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SchemeNames() = %v, want sorted %v", got, want)
	}
}

// TestEngineRunRejectsBadLLC pins that an unbuildable LLC is a config
// error returned by Compare, not a panic inside the simulator.
func TestEngineRunRejectsBadLLC(t *testing.T) {
	eng := NewEngine(DDR5())
	for _, tc := range []struct {
		name        string
		bytes, ways int
	}{
		{"3 MB: 3072 sets", 3 << 20, 16},
		{"3 ways: 87381 sets", 16 << 20, 3},
		{"smaller than one set", 64, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := expspec.BaseSimConfig(6250, tinyScale())
			cfg.InstrPerCore = 400
			cfg.LLCBytes, cfg.LLCWays = tc.bytes, tc.ways
			if _, err := eng.Compare(context.Background(), cfg, MixHigh(2, 1), noneScheme(t)); err == nil {
				t.Fatalf("LLC %d bytes / %d ways: Compare returned no error", tc.bytes, tc.ways)
			}
		})
	}
}
