package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mithril/internal/resultstore"
	"mithril/internal/serveapi"
	"mithril/internal/testutil"
)

// testSpec is a tiny comparison grid: 2 rows, fast enough for unit tests.
const testSpec = `{
  "name": "serve-test",
  "kind": "comparison",
  "scale": {"preset": "quick", "cores": 2, "instr_per_core": 400},
  "axes": {
    "schemes": ["none", "mithril"],
    "flipths": [6250],
    "workloads": ["mix-high"]
  }
}`

// slowSpec is the same grid repeated over many seeds with a much larger
// instruction budget: long enough that a client disconnect lands mid-sweep.
const slowSpec = `{
  "name": "serve-slow",
  "kind": "comparison",
  "scale": {"preset": "quick", "cores": 2, "instr_per_core": 400000},
  "axes": {
    "schemes": ["none", "mithril"],
    "flipths": [6250],
    "workloads": ["mix-high"],
    "seeds": [1, 2, 3, 4, 5, 6, 7, 8]
  }
}`

func TestServeRunStreamsNDJSON(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ts := httptest.NewServer(serveapi.NewHandler(serveapi.Config{Jobs: 2}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	seenRows := map[float64]bool{}
	var summaries []map[string]any
	for sc.Scan() {
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if msg, isErr := row["error"]; isErr {
			t.Fatalf("stream reported error: %v", msg)
		}
		if s, isSummary := row["summary"]; isSummary {
			summaries = append(summaries, s.(map[string]any))
			continue
		}
		if len(summaries) > 0 {
			t.Fatalf("data row after the summary record: %v", row)
		}
		for _, key := range []string{"scheme", "flipth", "workload", "perf", "row"} {
			if _, ok := row[key]; !ok {
				t.Fatalf("row missing %q: %v", key, row)
			}
		}
		seenRows[row["row"].(float64)] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// The 2-cell grid must stream exactly rows 0 and 1.
	if len(seenRows) != 2 || !seenRows[0] || !seenRows[1] {
		t.Fatalf("row indices = %v, want {0, 1}", seenRows)
	}
	// One terminal summary record; storeless, so every row simulated.
	if len(summaries) != 1 {
		t.Fatalf("summary records = %d, want 1", len(summaries))
	}
	if s := summaries[0]; s["rows"].(float64) != 2 || s["cached"].(float64) != 0 || s["simulated"].(float64) != 2 {
		t.Fatalf("summary = %v, want 2 rows, 0 cached, 2 simulated", summaries[0])
	}
	// The same split rides the declared HTTP trailers (readable after EOF).
	if c, s := resp.Trailer.Get("X-Mithril-Rows-Cached"), resp.Trailer.Get("X-Mithril-Rows-Simulated"); c != "0" || s != "2" {
		t.Fatalf("trailers cached=%q simulated=%q, want 0 and 2", c, s)
	}
}

// streamRun POSTs spec and returns the data rows (keyed by row index) and
// the terminal summary, failing the test on any stream error.
func streamRun(t *testing.T, url, spec string) (rows map[float64]map[string]any, summary map[string]any, trailer http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	rows = map[float64]map[string]any{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if msg, isErr := row["error"]; isErr {
			t.Fatalf("stream reported error: %v", msg)
		}
		if s, isSummary := row["summary"]; isSummary {
			summary = s.(map[string]any)
			continue
		}
		rows[row["row"].(float64)] = row
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows, summary, resp.Trailer
}

// TestServeWarmStore pins the serve-layer cache contract: with a result
// store attached, a repeated request streams every row from the store —
// summary and trailers report zero simulated — and the rows are
// identical to the cold request's.
func TestServeWarmStore(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ts := httptest.NewServer(serveapi.NewHandler(serveapi.Config{Jobs: 2, Store: resultstore.NewMem()}))
	defer ts.Close()

	cold, coldSum, _ := streamRun(t, ts.URL, testSpec)
	if coldSum["cached"].(float64) != 0 || coldSum["simulated"].(float64) != 2 {
		t.Fatalf("cold summary = %v, want 0 cached, 2 simulated", coldSum)
	}
	warm, warmSum, warmTrailer := streamRun(t, ts.URL, testSpec)
	if warmSum["cached"].(float64) != 2 || warmSum["simulated"].(float64) != 0 {
		t.Fatalf("warm summary = %v, want 2 cached, 0 simulated", warmSum)
	}
	if c := warmTrailer.Get("X-Mithril-Rows-Cached"); c != "2" {
		t.Fatalf("warm trailer cached = %q, want 2", c)
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm rows = %d, cold rows = %d", len(warm), len(cold))
	}
	for idx, coldRow := range cold {
		warmRow, ok := warm[idx]
		if !ok {
			t.Fatalf("warm stream missing row %v", idx)
		}
		for k, v := range coldRow {
			if warmRow[k] != v {
				t.Errorf("row %v column %q: cold %v, warm %v", idx, k, v, warmRow[k])
			}
		}
	}
}

// errorCode decodes a response's error envelope and returns its code and
// message.
func errorCode(t *testing.T, resp *http.Response) (code, msg string) {
	t.Helper()
	defer resp.Body.Close()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("response is not the error envelope: %v", err)
	}
	return env.Error.Code, env.Error.Message
}

func TestServeRunRejectsBadRequests(t *testing.T) {
	ts := httptest.NewServer(serveapi.NewHandler(serveapi.Config{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run status = %d, want 405", resp.StatusCode)
	}
	if code, _ := errorCode(t, resp); code != "bad_method" {
		t.Fatalf("GET /v1/run code = %q, want bad_method", code)
	}
	for name, spec := range map[string]string{
		"malformed spec": `{"name":`,
		"unknown scheme": `{"name":"x","kind":"comparison","scale":{"preset":"quick"},"axes":{"schemes":["bogus"],"workloads":["mix-high"]}}`,
		// trace:<path> names a server-local file; accepting it over HTTP
		// would hand clients a filesystem probe, so it must 400 before
		// any file is opened.
		"trace workload": `{"name":"x","kind":"comparison","scale":{"preset":"quick"},"axes":{"schemes":["mithril"],"workloads":["trace:/etc/passwd"]}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s status = %d, want 400", name, resp.StatusCode)
		}
		code, msg := errorCode(t, resp)
		if code != "bad_request" {
			t.Fatalf("%s code = %q, want bad_request", name, code)
		}
		if name == "trace workload" && !strings.Contains(msg, "not accepted over HTTP") {
			t.Fatalf("trace-workload rejection message = %q", msg)
		}
	}
}

// TestServeClientDisconnectCancelsSweep pins the service's cancellation
// contract: a client that walks away mid-sweep stops the workers (observed
// as the goroutine count settling back to its pre-request level) instead
// of leaving the grid running to completion against a dead connection.
func TestServeClientDisconnectCancelsSweep(t *testing.T) {
	// The leak check doubles as the unwind assertion: the handler's
	// workers all run module code, so any of them surviving the
	// disconnect fails the deferred diff.
	defer testutil.CheckGoroutines(t)()
	ts := httptest.NewServer(serveapi.NewHandler(serveapi.Config{Jobs: 2}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", strings.NewReader(slowSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first streamed row so the sweep is demonstrably mid-flight,
	// then sever the connection.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first row before disconnect: %v", sc.Err())
	}
	cancel()
	resp.Body.Close()
	// The deferred goroutine diff now proves the unwind: workers exit and
	// the handler returns, or the test fails with their stacks.
}
