package distrib_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mithril"
	"mithril/internal/distrib"
	"mithril/internal/expspec"
	"mithril/internal/resultstore"
	"mithril/internal/serveapi"
	"mithril/internal/testutil"
)

// retrySpec is an 8-row comparison grid, small enough for unit tests but
// wide enough that a mid-stream kill leaves a meaningful remainder.
const retrySpec = `{
  "name": "retry-test",
  "kind": "comparison",
  "scale": {"preset": "quick", "cores": 2, "instr_per_core": 400},
  "axes": {
    "schemes": ["none", "mithril"],
    "flipths": [6250],
    "workloads": ["mix-high"],
    "seeds": [1, 2, 3, 4]
  }
}`

// mixedSpec adds a trace-replay workload, which workers refuse: its rows
// must execute locally on the coordinator and merge into the same stream.
const mixedSpec = `{
  "name": "mixed-test",
  "kind": "comparison",
  "scale": {"preset": "quick", "cores": 2, "instr_per_core": 400},
  "axes": {
    "schemes": ["none", "mithril"],
    "flipths": [6250],
    "workloads": ["mix-high", "trace:../../testdata/sample_workload.trace"]
  }
}`

func parseSpec(t *testing.T, doc string) (*expspec.Spec, expspec.Scale) {
	t.Helper()
	sp, err := expspec.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sp.Scale.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sc.Jobs = 2
	return sp, sc
}

// localGolden runs the spec in-process, the reference for byte-equality.
func localGolden(t *testing.T, sp *expspec.Spec, sc expspec.Scale) string {
	t.Helper()
	res, err := sp.RunAtContext(context.Background(), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Golden()
}

// runFleet collects a coordinator stream into a Result, as Engine.RunSpecAt
// does with WithWorkers.
func runFleet(c *distrib.Coordinator, sp *expspec.Spec, sc expspec.Scale, opts *expspec.ExecOptions) (*expspec.Result, error) {
	seq, err := c.Stream(context.Background(), sp, sc, opts)
	if err != nil {
		return nil, err
	}
	var rows []expspec.Row
	for row, err := range seq {
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return sp.NewResult(sc, rows)
}

func newCoordinator(t *testing.T, workers []string) *distrib.Coordinator {
	t.Helper()
	c, err := distrib.New(workers, distrib.Options{MaxFailures: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := distrib.New(nil, distrib.Options{}); err == nil {
		t.Error("New(nil) must fail: a coordinator needs at least one worker")
	}
	if _, err := distrib.New([]string{"http://a:1", "  "}, distrib.Options{}); err == nil {
		t.Error("New with a blank URL must fail")
	}
	c, err := distrib.New([]string{"host:1234/", "http://other:80"}, distrib.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := c.Workers()
	if got[0] != "http://host:1234" || got[1] != "http://other:80" {
		t.Errorf("normalized workers = %v", got)
	}
}

// TestFleetEquivalenceShippedQuickSpecs is the acceptance bar: every
// shipped quick spec produces byte-identical golden output run locally
// vs. fanned out across two workers. GoldenScale (the pinned-regression
// scale) keeps the grids real but the test fast.
func TestFleetEquivalenceShippedQuickSpecs(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	// Shipped specs name trace files relative to the repo root (the CLI's
	// working directory); those rows run locally on the coordinator.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	w1 := httptest.NewServer(serveapi.NewHandler(serveapi.Config{Jobs: 2}))
	defer w1.Close()
	w2 := httptest.NewServer(serveapi.NewHandler(serveapi.Config{Jobs: 2}))
	defer w2.Close()
	coord := newCoordinator(t, []string{w1.URL, w2.URL})

	specs, loadErr := expspec.LoadAll(mithril.SpecsFS(), "specs")
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	sc := expspec.GoldenScale()
	sc.Jobs = 2
	quick := 0
	for _, sp := range specs {
		if !strings.HasSuffix(sp.Name, ".quick") {
			continue
		}
		quick++
		t.Run(sp.Name, func(t *testing.T) {
			want := localGolden(t, sp, sc)
			res, err := runFleet(coord, sp, sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Golden(); got != want {
				t.Errorf("distributed golden output diverges from local:\nlocal:\n%s\ndistributed:\n%s", want, got)
			}
		})
	}
	if quick == 0 {
		t.Fatal("no shipped .quick specs found — the equivalence bar tested nothing")
	}
}

// countingStore wraps a store and counts Put calls per key: a key Put
// twice means a row was simulated twice, the exact waste the distributed
// store dedup exists to prevent.
type countingStore struct {
	resultstore.Store
	mu   sync.Mutex
	puts map[resultstore.Key]int
}

func newCountingStore() *countingStore {
	return &countingStore{Store: resultstore.NewMem(), puts: map[resultstore.Key]int{}}
}

func (c *countingStore) Put(rec resultstore.Record) error {
	c.mu.Lock()
	c.puts[rec.Key]++
	c.mu.Unlock()
	return c.Store.Put(rec)
}

func (c *countingStore) maxPuts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	max := 0
	for _, n := range c.puts {
		if n > max {
			max = n
		}
	}
	return max
}

// cutOnce aborts the first /v1/run response after n record writes
// (simulating a worker crash mid-stream), then serves normally — the
// single-worker recovery scenario.
func cutOnce(h http.Handler, n int) (http.Handler, *atomic.Bool) {
	var tripped atomic.Bool
	armed := atomic.Bool{}
	armed.Store(true)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == distrib.RunPath && armed.CompareAndSwap(true, false) {
			tripped.Store(true)
			h.ServeHTTP(&cutWriter{ResponseWriter: w, remaining: n}, r)
			return
		}
		h.ServeHTTP(w, r)
	}), &tripped
}

// dieAfter aborts the first /v1/run response after n record writes and
// answers every later request 503 — a worker that crashed for good.
func dieAfter(h http.Handler, n int) http.Handler {
	var dead atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, `{"error":{"code":"unavailable","message":"worker terminated"}}`)
			return
		}
		if r.URL.Path == distrib.RunPath {
			dead.Store(true)
			h.ServeHTTP(&cutWriter{ResponseWriter: w, remaining: n}, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// cutWriter passes n body writes through (each NDJSON record is one
// write), then aborts the connection.
type cutWriter struct {
	http.ResponseWriter
	remaining int
}

func (w *cutWriter) Write(b []byte) (int, error) {
	if w.remaining <= 0 {
		panic(http.ErrAbortHandler)
	}
	w.remaining--
	return w.ResponseWriter.Write(b)
}

func (w *cutWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestShardRetryRedispatch pins the tentpole's failure semantics: a
// worker that streams two rows and drops the connection gets its shard's
// remainder re-dispatched, output stays byte-identical to a local run,
// and — because worker and coordinator share the store — no row is ever
// simulated (Put) twice.
func TestShardRetryRedispatch(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	sp, sc := parseSpec(t, retrySpec)
	want := localGolden(t, sp, sc)

	store := newCountingStore()
	h, tripped := cutOnce(serveapi.NewHandler(serveapi.Config{Jobs: 2, Store: store}), 2)
	ts := httptest.NewServer(h)
	defer ts.Close()

	coord := newCoordinator(t, []string{ts.URL})
	res, err := runFleet(coord, sp, sc, &expspec.ExecOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if !tripped.Load() {
		t.Fatal("the kill middleware never fired — the retry path was not exercised")
	}
	if got := res.Golden(); got != want {
		t.Errorf("post-retry golden output diverges from local:\nlocal:\n%s\ndistributed:\n%s", want, got)
	}
	if total := res.RowsCached + res.RowsSimulated; total != 8 {
		t.Errorf("RowsCached+RowsSimulated = %d, want 8 (each row delivered exactly once)", total)
	}
	if n := store.maxPuts(); n > 1 {
		t.Errorf("a row was Put %d times — re-dispatch re-simulated a stored row", n)
	}
}

// TestWorkerKilledMidRun pins fleet degradation: with two workers, one
// dying for good mid-stream, the sweep completes identically on the
// survivor.
func TestWorkerKilledMidRun(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	sp, sc := parseSpec(t, retrySpec)
	want := localGolden(t, sp, sc)

	dying := httptest.NewServer(dieAfter(serveapi.NewHandler(serveapi.Config{Jobs: 2}), 1))
	defer dying.Close()
	healthy := httptest.NewServer(serveapi.NewHandler(serveapi.Config{Jobs: 2}))
	defer healthy.Close()

	coord := newCoordinator(t, []string{dying.URL, healthy.URL})
	res, err := runFleet(coord, sp, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Golden(); got != want {
		t.Errorf("golden output diverges after losing a worker:\nlocal:\n%s\ndistributed:\n%s", want, got)
	}
}

// TestAllWorkersDropped pins the terminal failure: when every worker
// exhausts its failure budget the stream ends with one loud error, not a
// hang or a truncated result.
func TestAllWorkersDropped(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	sp, sc := parseSpec(t, retrySpec)
	broken := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	w1 := httptest.NewServer(broken)
	defer w1.Close()
	w2 := httptest.NewServer(broken)
	defer w2.Close()

	c, err := distrib.New([]string{w1.URL, w2.URL}, distrib.Options{MaxFailures: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = runFleet(c, sp, sc, nil)
	if err == nil || !strings.Contains(err.Error(), "workers dropped") {
		t.Fatalf("error = %v, want the all-workers-dropped failure", err)
	}
}

// TestPermanentErrorStopsImmediately pins retry classification: a worker
// rejecting the shard with a permanent code (bad_request) fails the
// stream on the first response — retrying a deterministic rejection
// against other workers would just burn the failure budget.
func TestPermanentErrorStopsImmediately(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	sp, sc := parseSpec(t, retrySpec)
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_, _ = io.WriteString(w, `{"error":{"code":"bad_request","message":"shard rejected for the test"}}`)
	}))
	defer ts.Close()

	coord := newCoordinator(t, []string{ts.URL})
	_, err := runFleet(coord, sp, sc, nil)
	if err == nil || !strings.Contains(err.Error(), "shard rejected for the test") {
		t.Fatalf("error = %v, want the worker's permanent rejection", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("worker called %d times, want 1 (permanent errors must not retry)", n)
	}
}

// TestMixedLocalRemoteRows pins the trace-workload split: rows workers
// refuse (trace-replay) run locally on the coordinator and merge into
// the same deterministic result.
func TestMixedLocalRemoteRows(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	sp, sc := parseSpec(t, mixedSpec)
	want := localGolden(t, sp, sc)

	ts := httptest.NewServer(serveapi.NewHandler(serveapi.Config{Jobs: 2}))
	defer ts.Close()
	coord := newCoordinator(t, []string{ts.URL})
	res, err := runFleet(coord, sp, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Golden(); got != want {
		t.Errorf("mixed local/remote golden output diverges:\nlocal:\n%s\ndistributed:\n%s", want, got)
	}
}

// TestStreamConsumerBreak pins the leak contract: a consumer that stops
// ranging mid-stream leaves no goroutine behind.
func TestStreamConsumerBreak(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	sp, sc := parseSpec(t, retrySpec)
	ts := httptest.NewServer(serveapi.NewHandler(serveapi.Config{Jobs: 2}))
	defer ts.Close()
	coord := newCoordinator(t, []string{ts.URL})
	seq, err := coord.Stream(context.Background(), sp, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
}
