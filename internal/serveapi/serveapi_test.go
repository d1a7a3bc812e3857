package serveapi_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mithril/internal/distrib"
	"mithril/internal/expspec"
	"mithril/internal/resultstore"
	"mithril/internal/serveapi"
	"mithril/internal/testutil"
)

const testSpec = `{
  "name": "api-test",
  "kind": "comparison",
  "scale": {"preset": "quick", "cores": 2, "instr_per_core": 400},
  "axes": {
    "schemes": ["none", "mithril"],
    "flipths": [6250],
    "workloads": ["mix-high"]
  }
}`

func newServer(t *testing.T, cfg serveapi.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serveapi.NewHandler(cfg))
	t.Cleanup(ts.Close)
	return ts
}

// decodeEnvelope asserts a response is the uniform error envelope and
// returns its code and message.
func decodeEnvelope(t *testing.T, resp *http.Response) (code, msg string) {
	t.Helper()
	defer resp.Body.Close()
	var env struct {
		Error *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("response is not the error envelope (decode err %v)", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %+v", env.Error)
	}
	return env.Error.Code, env.Error.Message
}

func TestV1Healthz(t *testing.T) {
	ts := newServer(t, serveapi.Config{Store: resultstore.NewMem()})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status string `json:"status"`
		API    string `json:"api"`
		Stamp  string `json:"stamp"`
		Store  bool   `json:"store"`
		Role   string `json:"role"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.API != "v1" || health.Role != "worker" ||
		!health.Store || health.Stamp != expspec.StoreStamp() {
		t.Errorf("healthz = %+v, want ok/v1/worker/store=true/current stamp", health)
	}
}

func TestV1HealthzCoordinatorRole(t *testing.T) {
	coord, err := distrib.New([]string{"http://w1:1", "http://w2:1"}, distrib.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := newServer(t, serveapi.Config{Coordinator: coord})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Role    string   `json:"role"`
		Workers []string `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Role != "coordinator" || len(health.Workers) != 2 {
		t.Errorf("healthz = %+v, want coordinator role with 2 workers", health)
	}
}

func TestV1Catalog(t *testing.T) {
	ts := newServer(t, serveapi.Config{})
	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cat struct {
		Schemes   []string `json:"schemes"`
		Workloads []struct {
			Name string `json:"name"`
			Desc string `json:"desc"`
		} `json:"workloads"`
		Attacks []struct {
			Name string `json:"name"`
			Desc string `json:"desc"`
		} `json:"attacks"`
		Stamp string `json:"stamp"`
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("catalog content type = %q", ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Schemes) == 0 || cat.Schemes[0] != "blockhammer" {
		t.Errorf("catalog schemes = %v, want the sorted registry", cat.Schemes)
	}
	if len(cat.Workloads) == 0 || cat.Workloads[0].Name != "fft" {
		t.Errorf("catalog workloads = %v, want the sorted registry", cat.Workloads)
	}
	if len(cat.Attacks) == 0 || cat.Attacks[0].Name != "blockhammer-adversarial" {
		t.Errorf("catalog attacks = %v, want the sorted registry", cat.Attacks)
	}
	for _, e := range append(cat.Workloads, cat.Attacks...) {
		if e.Desc == "" {
			t.Errorf("catalog entry %q has no description", e.Name)
		}
	}
	if cat.Stamp != expspec.StoreStamp() {
		t.Errorf("catalog stamp = %q, want the current registry stamp", cat.Stamp)
	}
}

// TestRemovedBarePathsNotFound pins that the pre-/v1 surface is gone:
// each bare path answers 404 with the not_found envelope, whatever the
// method.
func TestRemovedBarePathsNotFound(t *testing.T) {
	ts := newServer(t, serveapi.Config{})
	for _, path := range []string{"/run", "/healthz", "/schemes", "/workloads", "/attacks"} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(testSpec))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s status = %d, want 404", method, path, resp.StatusCode)
			}
			if code, _ := decodeEnvelope(t, resp); code != "not_found" {
				t.Errorf("%s %s code = %q, want not_found", method, path, code)
			}
		}
	}
}

// TestErrorEnvelope pins the uniform error contract on the /v1 surface:
// wrong method, unknown path, and invalid specs all answer with
// {"error":{"code","message"}} — and, the PR's header-ordering fix, a
// rejectable spec gets a real 400 before any NDJSON header, never a 200
// that turns into an error record.
func TestErrorEnvelope(t *testing.T) {
	ts := newServer(t, serveapi.Config{})

	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run status = %d, want 405", resp.StatusCode)
	}
	if code, _ := decodeEnvelope(t, resp); code != "bad_method" {
		t.Errorf("GET /v1/run code = %q, want bad_method", code)
	}

	resp, err = http.Get(ts.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", resp.StatusCode)
	}
	if code, _ := decodeEnvelope(t, resp); code != "not_found" {
		t.Errorf("unknown path code = %q, want not_found", code)
	}

	// Every rejection holds on a plain server and on a coordinator front,
	// whose fan-out plan is built before the header too. A scale the
	// simulator cannot run (cores beyond the request-ID space, a time
	// scale that breaks the timing set) is rejected like a bad spec, not
	// by a panicked handler or a mid-stream run_failed record.
	coord := newServer(t, serveapi.Config{Coordinator: mustCoordinator(t)})
	for name, body := range map[string]string{
		"malformed json":    `{"name":`,
		"unknown scheme":    `{"name":"x","kind":"comparison","scale":{"preset":"quick"},"axes":{"schemes":["bogus"],"workloads":["mix-high"]}}`,
		"trace workload":    `{"name":"x","kind":"comparison","scale":{"preset":"quick"},"axes":{"schemes":["mithril"],"workloads":["trace:/etc/passwd"]}}`,
		"cores 70000":       `{"name":"x","kind":"comparison","scale":{"preset":"quick","cores":70000},"axes":{"schemes":["none"],"workloads":["mix-high"]}}`,
		"time_scale 100000": `{"name":"x","kind":"comparison","scale":{"preset":"quick","time_scale":100000},"axes":{"schemes":["none"],"workloads":["mix-high"]}}`,
	} {
		for _, srv := range []*httptest.Server{ts, coord} {
			resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s status = %d, want 400 before the stream header", name, resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s content type = %q, want the JSON envelope (not a committed NDJSON stream)", name, ct)
			}
			if code, _ := decodeEnvelope(t, resp); code != "bad_request" {
				t.Errorf("%s code = %q, want bad_request", name, code)
			}
		}
	}
}

// TestInfeasibleMithrilBadRequest pins that a Mithril operating point no
// table size can protect is a 400 before the stream header, not a
// handler panic that drops the connection with an empty reply.
func TestInfeasibleMithrilBadRequest(t *testing.T) {
	ts := newServer(t, serveapi.Config{})
	body := `{"name":"x","kind":"comparison","scale":{"preset":"quick","cores":2,"instr_per_core":400},` +
		`"axes":{"schemes":["mithril"],"flipths":[20],"workloads":["mix-high"]}}`
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 before the stream header", resp.StatusCode)
	}
	if code, msg := decodeEnvelope(t, resp); code != "bad_request" || !strings.Contains(msg, "no feasible Mithril config") {
		t.Errorf("envelope = %s %q, want bad_request naming the infeasible config", code, msg)
	}
}

// TestV1RunStream pins the /v1 sweep stream: display rows with grid
// indices, one terminal summary, and the trailer split.
func TestV1RunStream(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ts := newServer(t, serveapi.Config{Jobs: 2})
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
	rows, summaries := 0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case rec["error"] != nil:
			t.Fatalf("stream error: %v", rec["error"])
		case rec["summary"] != nil:
			summaries++
		default:
			rows++
		}
	}
	if rows != 2 || summaries != 1 {
		t.Fatalf("stream = %d rows, %d summaries; want 2 and 1", rows, summaries)
	}
	if s := resp.Trailer.Get("X-Mithril-Rows-Simulated"); s != "2" {
		t.Errorf("simulated trailer = %q, want 2", s)
	}
}

// runNDJSON POSTs testSpec to a /v1/run endpoint and returns its data
// rows ordered by grid index, plus the terminal summary.
func runNDJSON(t *testing.T, url string) (rows []string, summary map[string]int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	byRow := map[int]string{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec struct {
			Row     *int           `json:"row"`
			Summary map[string]int `json:"summary"`
			Error   any            `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case rec.Error != nil:
			t.Fatalf("stream error: %v", rec.Error)
		case rec.Summary != nil:
			summary = rec.Summary
		default:
			byRow[*rec.Row] = sc.Text()
		}
	}
	for i := 0; i < len(byRow); i++ {
		line, ok := byRow[i]
		if !ok {
			t.Fatalf("row %d missing from the stream (got %d rows)", i, len(byRow))
		}
		rows = append(rows, line)
	}
	return rows, summary
}

// TestCoordinatorRunMatchesWorker drives a coordinator-mode server with
// a result store: a bare /v1/run streams the same data rows as a plain
// worker-mode server, simulating every row cold and none warm.
func TestCoordinatorRunMatchesWorker(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	w1 := newServer(t, serveapi.Config{Jobs: 1})
	w2 := newServer(t, serveapi.Config{Jobs: 1})
	coord, err := distrib.New([]string{w1.URL, w2.URL}, distrib.Options{})
	if err != nil {
		t.Fatal(err)
	}
	front := newServer(t, serveapi.Config{Store: resultstore.NewMem(), Coordinator: coord})

	want, _ := runNDJSON(t, w1.URL)
	n := len(want)
	for _, pass := range []struct {
		name    string
		summary map[string]int
	}{
		{"cold", map[string]int{"rows": n, "cached": 0, "simulated": n}},
		{"warm", map[string]int{"rows": n, "cached": n, "simulated": 0}},
	} {
		got, summary := runNDJSON(t, front.URL)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s coordinator rows diverge from the worker's:\nworker:\n%s\ncoordinator:\n%s",
				pass.name, strings.Join(want, "\n"), strings.Join(got, "\n"))
		}
		if !reflect.DeepEqual(summary, pass.summary) {
			t.Errorf("%s summary = %v, want %v", pass.name, summary, pass.summary)
		}
	}
}

// shardRequest builds a valid wire request for a subset of testSpec.
func shardRequest(t *testing.T, rows []int) ([]byte, *expspec.Spec, expspec.Scale) {
	t.Helper()
	sp, err := expspec.Parse([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sp.Scale.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(distrib.ShardRequest{
		Spec:  specJSON,
		Scale: distrib.ToWire(sc),
		Rows:  rows,
		Stamp: expspec.StoreStamp(),
		Grid:  len(sp.Expand(sc)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return body, sp, sc
}

// TestShardStream pins the worker side of the wire protocol: a shard
// request streams exactly the requested rows as payload records plus one
// terminal summary.
func TestShardStream(t *testing.T) {
	defer testutil.CheckGoroutines(t)()
	ts := newServer(t, serveapi.Config{Jobs: 2})
	body, sp, _ := shardRequest(t, []int{1})
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var dataRows []int
	summaries := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec distrib.ShardRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad shard record %q: %v", sc.Text(), err)
		}
		switch {
		case rec.Error != nil:
			t.Fatalf("shard error: %v", rec.Error)
		case rec.Summary != nil:
			summaries++
			if rec.Summary.Rows != 1 {
				t.Errorf("summary rows = %d, want 1", rec.Summary.Rows)
			}
		default:
			dataRows = append(dataRows, rec.Row)
			var row expspec.Row
			if !expspec.DecodeRowPayload(sp.Kind, rec.Point, &row) {
				t.Errorf("row %d payload does not decode for kind %s", rec.Row, sp.Kind)
			}
		}
	}
	if len(dataRows) != 1 || dataRows[0] != 1 || summaries != 1 {
		t.Fatalf("shard stream rows = %v, summaries = %d; want exactly row 1 and one summary", dataRows, summaries)
	}
}

// TestShardRejections pins the worker's pre-header guards: version
// drift conflicts, malformed or missing subsets, invalid scales, and
// shards aimed at a coordinator all fail with real statuses and envelope
// codes.
func TestShardRejections(t *testing.T) {
	ts := newServer(t, serveapi.Config{})

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	body, _, _ := shardRequest(t, []int{0})
	var req distrib.ShardRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}

	stale := req
	stale.Stamp = "v0:0000"
	b, _ := json.Marshal(stale)
	if resp := post(b); resp.StatusCode != http.StatusConflict {
		t.Errorf("stale stamp status = %d, want 409", resp.StatusCode)
	} else if code, _ := decodeEnvelope(t, resp); code != "conflict" {
		t.Errorf("stale stamp code = %q, want conflict", code)
	}

	drift := req
	drift.Grid = 99
	b, _ = json.Marshal(drift)
	if resp := post(b); resp.StatusCode != http.StatusConflict {
		t.Errorf("grid drift status = %d, want 409", resp.StatusCode)
	}

	oob := req
	oob.Rows = []int{0, 57}
	b, _ = json.Marshal(oob)
	if resp := post(b); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range subset status = %d, want 400", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	noCores := req
	noCores.Scale.Cores = 0
	b, _ = json.Marshal(noCores)
	if resp := post(b); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero-core shard status = %d, want 400 before the stream header", resp.StatusCode)
	} else if code, _ := decodeEnvelope(t, resp); code != "bad_request" {
		t.Errorf("zero-core shard code = %q, want bad_request", code)
	}

	// A shard without rows must not fall through to a full-grid run: for
	// a spec naming a server-local trace file that would open the file and
	// report the parse of its first line back to the client.
	secret := filepath.Join(t.TempDir(), "secret.trace")
	if err := os.WriteFile(secret, []byte("SECRET-LINE-ONE\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	traceSpec := strings.Replace(testSpec, `["mix-high"]`, `["mix-high", "trace:`+secret+`"]`, 1)
	for name, rows := range map[string]json.RawMessage{"missing": nil, "null": json.RawMessage("null")} {
		doc := map[string]json.RawMessage{}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		doc["spec"] = json.RawMessage(traceSpec)
		doc["grid"] = json.RawMessage("4")
		delete(doc, "rows")
		if rows != nil {
			doc["rows"] = rows
		}
		b, _ = json.Marshal(doc)
		resp := post(b)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s rows: status = %d, want 400", name, resp.StatusCode)
		}
		code, msg := decodeEnvelope(t, resp)
		if code != "bad_request" || strings.Contains(msg, "secret.trace") || !strings.Contains(msg, "rows") {
			t.Errorf("%s rows: envelope = %s %q, want bad_request naming the missing rows, not a parse of the file", name, code, msg)
		}
	}

	coordTS := newServer(t, serveapi.Config{Coordinator: mustCoordinator(t)})
	resp, err := http.Post(coordTS.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("shard-to-coordinator status = %d, want 400", resp.StatusCode)
	}
	if _, msg := decodeEnvelope(t, resp); !strings.Contains(msg, "coordinator") {
		t.Errorf("shard-to-coordinator message = %q, want the role explanation", msg)
	}
}

func mustCoordinator(t *testing.T) *distrib.Coordinator {
	t.Helper()
	c, err := distrib.New([]string{"http://unused:1"}, distrib.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}
