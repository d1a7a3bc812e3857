package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"mithril"
	"mithril/internal/cpu"
	"mithril/internal/distrib"
	"mithril/internal/dram"
	"mithril/internal/expspec"
	"mithril/internal/resultstore"
	"mithril/internal/serveapi"
)

// workloads lists the benchmark's workloads; README.md records why each
// was chosen.
var workloads = []*workload{
	{name: "attack-sweep", minUnits: 3, setup: setupAttackSweep},
	{name: "benign-sweep", minUnits: 3, setup: setupBenignSweep},
	{name: "warm-replay", minUnits: 20, setup: setupWarmReplay},
	{name: "serve-fleet", minUnits: 20, setup: setupServeFleet},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ------------------------------------------------------------------ inputs

// inputSeed derives the scale seed of generated spec i from the run seed.
func inputSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) + 1 }

// scale is a spec's scale: a preset with the core count, instruction
// budget and seed pinned. Smoke-test sizes cut the budget twentyfold.
func (e *env) scale(preset string, cores int, instr int64, i int) expspec.ScaleSpec {
	if e.tiny {
		instr /= 20
	}
	return expspec.ScaleSpec{Preset: preset, Cores: cores, InstrPerCore: instr, Seed: inputSeed(e.seed, i)}
}

// genSpec renders a generated spec as the JSON document a user would
// write, then parses it the way every entry point does.
func genSpec(name string, kind expspec.Kind, sc expspec.ScaleSpec, axes expspec.Axes) (*expspec.Spec, []byte, error) {
	doc, err := json.Marshal(expspec.Spec{Name: name, Kind: kind, Scale: sc, Axes: axes})
	if err != nil {
		return nil, nil, err
	}
	sp, err := mithril.ParseSpec(doc)
	return sp, doc, err
}

var (
	allSchemes  = []string{"none", "parfm", "blockhammer", "graphene", "twice", "cbt", "mithril", "mithril+"}
	gridMixHigh = []expspec.GridLevel{{FlipTH: 6250, RFMTHs: []int{256, 128, 64}}, {FlipTH: 1500, RFMTHs: []int{32}}}
	adthConfigs = []expspec.ConfigPoint{{FlipTH: 3125, RFMTH: 16}}
	adthLevels  = []int{0, 50, 100, 150, 200}
)

// ------------------------------------------------------------------ checks

func finite(v float64) bool   { return !math.IsNaN(v) && !math.IsInf(v, 0) }
func positive(v float64) bool { return finite(v) && v > 0 }

// checkResult gates one executed spec: the row count equals the grid
// size, every protected scheme is safe with no flips, the unprotected
// baseline flips under the double-sided attack (attacks at smoke-test
// sizes are too short to flip anything), and every performance value is
// finite and positive.
func (e *env) checkResult(sp *expspec.Spec, sc expspec.Scale, res *expspec.Result) error {
	cells := sp.Expand(sc)
	n := len(res.Perf) + len(res.Safety) + len(res.Grid) + len(res.AdTH)
	if n != len(cells) {
		return fmt.Errorf("%s: %d rows, grid has %d", sp.Name, n, len(cells))
	}
	for _, p := range res.Perf {
		if !positive(p.RelativePerformance) || !finite(p.EnergyOverheadPct) {
			return fmt.Errorf("%s: %s/%s perf=%v energy=%v", sp.Name, p.Scheme, p.Workload, p.RelativePerformance, p.EnergyOverheadPct)
		}
		if p.Scheme != "none" && !p.Safe {
			return fmt.Errorf("%s: %s unsafe on %s at FlipTH %d", sp.Name, p.Scheme, p.Workload, p.FlipTH)
		}
	}
	for i, s := range res.Safety {
		switch {
		case s.Scheme != "none" && (!s.Safe || s.Flips != 0):
			return fmt.Errorf("%s: %s under %s: %d flips", sp.Name, s.Scheme, s.Attack, s.Flips)
		case s.Scheme == "none" && cells[i].Attack == "double" && s.Flips == 0 && !e.tiny:
			return fmt.Errorf("%s: the unprotected baseline does not flip under %s", sp.Name, s.Attack)
		}
	}
	for _, g := range res.Grid {
		if !positive(g.Mithril) || !positive(g.MithrilPlus) || !finite(g.EnergyMithril) || !finite(g.EnergyPlus) {
			return fmt.Errorf("%s: FlipTH %d RFMTH %d: %+v", sp.Name, g.FlipTH, g.RFMTH, g)
		}
	}
	for _, a := range res.AdTH {
		for w, v := range a.EnergyOverheadPct {
			if !finite(v) {
				return fmt.Errorf("%s: AdTH %d %s energy %v", sp.Name, a.AdTH, w, v)
			}
		}
	}
	return nil
}

// ------------------------------------------------------------------ sweeps

// sweep runs its specs through one Engine per unit — two workers and a
// fresh disk store, as `mithrilsim run -jobs 2 -store DIR` does.
type sweep struct {
	e       *env
	specs   []*expspec.Spec
	scales  []expspec.Scale
	flipTHs []int  // the FlipTHs the grids simulate, for warmPools
	ref     []byte // the first repetition's output; later ones must match
}

func newSweep(e *env, specs []*expspec.Spec) (*sweep, error) {
	s := &sweep{e: e, specs: specs}
	seen := map[int]bool{}
	for _, sp := range specs {
		sc, err := sp.Scale.Resolve()
		if err != nil {
			return nil, err
		}
		s.scales = append(s.scales, sc)
		for _, c := range sp.Expand(sc) {
			if !seen[c.FlipTH] {
				seen[c.FlipTH] = true
				s.flipTHs = append(s.flipTHs, c.FlipTH)
			}
		}
	}
	warmPools(s.scales[0], s.flipTHs, 2)
	return s, nil
}

// reset starts every repetition from the same state: a collected heap
// and Device/LLC pools holding what two workers use.
func (s *sweep) reset() {
	freshHeap()
	warmPools(s.scales[0], s.flipTHs, 2)
}

// warmPools acquires n devices per FlipTH and n LLCs, then releases them,
// as the first rows of a sweep or the first requests of a server would.
func warmPools(sc expspec.Scale, flipTHs []int, n int) {
	var devs []*dram.Device
	var llcs []*cpu.LLC
	for _, th := range flipTHs {
		for k := 0; k < n; k++ {
			devs = append(devs, dram.AcquireDevice(sc.Params(), th, nil))
		}
	}
	for k := 0; k < n; k++ {
		llcs = append(llcs, cpu.AcquireLLC(16<<20, 16)) // the simulator's Table III default
	}
	for _, d := range devs {
		dram.ReleaseDevice(d)
	}
	for _, l := range llcs {
		cpu.ReleaseLLC(l)
	}
}

// progress tracks the row completions of one execution after another:
// each execution's time to its first row and the gap between its last two
// rows.
type progress struct {
	start, prev, last time.Time
	firsts            []time.Duration
}

// begin marks the start of an execution.
func (p *progress) begin() { p.start, p.prev, p.last = time.Now(), time.Time{}, time.Time{} }

func (p *progress) hook(done, total int) {
	now := time.Now()
	if p.last.IsZero() {
		p.firsts = append(p.firsts, now.Sub(p.start))
	}
	p.prev, p.last = p.last, now
}

// end records the execution's idle tail: the gap between its last two
// rows, which one worker spends alone.
func (p *progress) end(r *recorder) {
	if !p.prev.IsZero() {
		r.sample("sweep.idle_tail", ms(p.last.Sub(p.prev)))
	}
}

func (s *sweep) unit(ctx context.Context, i int) (unitOut, error) {
	rec := s.e.rec
	p := &progress{}
	st, err := openStore(ctx, rec, filepath.Join(s.e.dir, fmt.Sprintf("store-%d", i)))
	if err != nil {
		return unitOut{}, err
	}
	eng := mithril.NewEngine(mithril.DDR5(), mithril.WithJobs(2),
		mithril.WithResultStore(traceStore(rec, st)), mithril.WithProgress(p.hook))
	var out bytes.Buffer
	rows := 0
	for k, sp := range s.specs {
		_, end := rec.begin(ctx, "mithril.run")
		p.begin()
		res, err := eng.RunSpecAt(ctx, sp, s.scales[k])
		p.end(rec)
		end()
		if err == nil {
			err = s.e.checkResult(sp, s.scales[k], res)
		}
		if err != nil {
			st.Close()
			return unitOut{}, err
		}
		rows += res.RowsSimulated + res.RowsCached
		if err := emit(ctx, rec, &out, res); err != nil {
			st.Close()
			return unitOut{}, err
		}
	}
	if err := st.Close(); err != nil {
		return unitOut{}, err
	}
	if s.ref == nil {
		s.ref = out.Bytes()
	} else if !bytes.Equal(out.Bytes(), s.ref) {
		return unitOut{}, fmt.Errorf("repetition output differs from the first repetition")
	}
	return unitOut{rows: rows, firstRows: p.firsts, out: out.Bytes()}, nil
}

func (s *sweep) close() error { return nil }

// emit renders a result in the golden line format under an expspec.emit
// span.
func emit(ctx context.Context, rec *recorder, out *bytes.Buffer, res *expspec.Result) error {
	_, end := rec.begin(ctx, "expspec.emit")
	defer end()
	return res.Emit(out, expspec.FormatGolden)
}

// setupAttackSweep: the Figure 10 comparison with the multi-sided and
// adversarial attack workloads at two FlipTHs, plus the safety sweep, at
// golden scale (8 cores, 10k instructions per core).
func setupAttackSweep(ctx context.Context, e *env) (instance, error) {
	sc := e.scale("golden", 8, 10_000, 0)
	cmp, _, err := genSpec("attack-sweep.comparison", expspec.Comparison, sc, expspec.Axes{
		Schemes: []string{"parfm", "blockhammer", "mithril", "mithril+"}, FlipTHs: []int{6250, 1500},
		Workloads: []string{"normal", "multi-sided-rh"}, Adversarial: true,
	})
	if err != nil {
		return nil, err
	}
	saf, _, err := genSpec("attack-sweep.safety", expspec.SafetyKind, sc, expspec.Axes{
		Schemes: allSchemes, FlipTHs: []int{2000}, Attacks: []string{"double", "multi:32"},
	})
	if err != nil {
		return nil, err
	}
	return newSweep(e, []*expspec.Spec{cmp, saf})
}

// setupBenignSweep: the Figure 9 operating-point grid, the Figure 7 AdTH
// sweep and the normal-set comparison at the paper's 16 cores (25k
// instructions per core).
func setupBenignSweep(ctx context.Context, e *env) (instance, error) {
	sc := e.scale("full", 16, 25_000, 0)
	cg, _, err := genSpec("benign-sweep.configgrid", expspec.ConfigGrid, sc, expspec.Axes{
		Workloads: []string{"mix-high"}, Grid: gridMixHigh,
	})
	if err != nil {
		return nil, err
	}
	ad, _, err := genSpec("benign-sweep.adth", expspec.AdTHSweep, sc, expspec.Axes{
		Configs: adthConfigs, AdTHs: adthLevels, Workloads: []string{"multi-programmed", "multi-threaded"},
	})
	if err != nil {
		return nil, err
	}
	cmp, _, err := genSpec("benign-sweep.comparison", expspec.Comparison, sc, expspec.Axes{
		Schemes: []string{"para", "graphene", "mithril", "mithril+"}, FlipTHs: []int{1500}, Workloads: []string{"normal"},
	})
	if err != nil {
		return nil, err
	}
	return newSweep(e, []*expspec.Spec{cg, ad, cmp})
}

// ------------------------------------------------------------------ replay

// replay re-runs specs whose every row is already in a disk store: each
// unit opens the store, runs the specs, emits them and closes the store,
// as a `mithrilsim run -store DIR` re-run does minus process start.
type replay struct {
	e      *env
	dir    string
	specs  []*expspec.Spec
	scales []expspec.Scale
	ref    []byte // the output of the fill that simulated every row
}

// replaySpecs are one spec per kind at tiny scale (2 cores, 2k
// instructions per core), each repeated over a seeds axis.
func replaySpecs(e *env) ([]*expspec.Spec, error) {
	n := 100
	if e.tiny {
		n = 3
	}
	seeds := make([]uint64, n)
	for j := range seeds {
		seeds[j] = inputSeed(e.seed, j)
	}
	sc := expspec.ScaleSpec{Preset: "quick", Cores: 2, InstrPerCore: 2000}
	axes := []struct {
		kind expspec.Kind
		axes expspec.Axes
	}{
		{expspec.Comparison, expspec.Axes{Schemes: []string{"para", "graphene", "mithril", "mithril+"}, FlipTHs: []int{6250, 1500}, Workloads: []string{"normal"}}},
		{expspec.SafetyKind, expspec.Axes{Schemes: []string{"graphene", "mithril", "mithril+", "parfm"}, FlipTHs: []int{2000}, Attacks: []string{"double"}}},
		{expspec.ConfigGrid, expspec.Axes{Workloads: []string{"mix-high"}, Grid: gridMixHigh}},
		{expspec.AdTHSweep, expspec.Axes{Configs: adthConfigs, AdTHs: adthLevels, Workloads: []string{"multi-programmed"}}},
	}
	var specs []*expspec.Spec
	for _, a := range axes {
		a.axes.Seeds = seeds
		sp, _, err := genSpec("warm-replay."+string(a.kind), a.kind, sc, a.axes)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

func setupWarmReplay(ctx context.Context, e *env) (instance, error) {
	specs, err := replaySpecs(e)
	if err != nil {
		return nil, err
	}
	r := &replay{e: e, dir: filepath.Join(e.dir, "store"), specs: specs}
	for _, sp := range specs {
		sc, err := sp.Scale.Resolve()
		if err != nil {
			return nil, err
		}
		r.scales = append(r.scales, sc)
	}
	out, _, err := r.run(ctx, nil)
	if err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	r.ref = out
	return r, nil
}

// run executes every spec against the store and returns the golden
// output and row count.
func (r *replay) run(ctx context.Context, p *progress) ([]byte, int, error) {
	rec := r.e.rec
	st, err := openStore(ctx, rec, r.dir)
	if err != nil {
		return nil, 0, err
	}
	opts := []mithril.EngineOption{mithril.WithJobs(2), mithril.WithResultStore(traceStore(rec, st))}
	if p != nil {
		opts = append(opts, mithril.WithProgress(p.hook))
	}
	eng := mithril.NewEngine(mithril.DDR5(), opts...)
	var out bytes.Buffer
	rows := 0
	for k, sp := range r.specs {
		if p != nil {
			p.begin()
		}
		res, err := eng.RunSpecAt(ctx, sp, r.scales[k])
		if p != nil {
			p.end(rec)
		}
		if err == nil {
			err = r.e.checkResult(sp, r.scales[k], res)
		}
		if err == nil && p != nil && res.RowsSimulated != 0 {
			err = fmt.Errorf("%s: replay simulated %d rows", sp.Name, res.RowsSimulated)
		}
		if err == nil {
			err = emit(ctx, rec, &out, res)
		}
		if err != nil {
			st.Close()
			return nil, 0, err
		}
		rows += res.RowsCached + res.RowsSimulated
	}
	if err := st.Close(); err != nil {
		return nil, 0, err
	}
	return out.Bytes(), rows, nil
}

func (r *replay) unit(ctx context.Context, i int) (unitOut, error) {
	p := &progress{}
	out, rows, err := r.run(ctx, p)
	if err != nil {
		return unitOut{}, err
	}
	if !bytes.Equal(out, r.ref) {
		return unitOut{}, fmt.Errorf("replay output differs from the fill output")
	}
	return unitOut{rows: rows, firstRows: p.firsts, out: out}, nil
}

func (r *replay) reset() { freshHeap() }

func (r *replay) close() error { return nil }

// ------------------------------------------------------------------ serve

// fleet is two serveapi workers (one sweep job each) behind a coordinator
// front with a disk store, all on loopback in this process.
type fleet struct {
	e       *env
	workers []*httptest.Server
	front   *httptest.Server
	store   *resultstore.Disk
	shardTr *http.Transport
	client  *http.Client
}

func setupServeFleet(ctx context.Context, e *env) (instance, error) {
	f := &fleet{e: e, shardTr: &http.Transport{}}
	var urls []string
	for k := 0; k < 2; k++ {
		w := httptest.NewServer(traceHandler(e.rec, "serveapi.worker", serveapi.NewHandler(serveapi.Config{Jobs: 1})))
		f.workers = append(f.workers, w)
		urls = append(urls, w.URL)
	}
	coord, err := distrib.New(urls, distrib.Options{Client: &http.Client{Transport: traceTransport(e.rec, f.shardTr)}})
	if err != nil {
		f.close()
		return nil, err
	}
	st, err := openStore(ctx, e.rec, filepath.Join(e.dir, "store"))
	if err != nil {
		f.close()
		return nil, err
	}
	f.store = st
	f.front = httptest.NewServer(traceHandler(e.rec, "serveapi.front",
		serveapi.NewHandler(serveapi.Config{Store: traceStore(e.rec, st), Coordinator: coord})))
	f.client = &http.Client{Transport: &http.Transport{}}
	// Requests simulate FlipTH 2000 and 6250 rows on two workers.
	warmPools(expspec.GoldenScale(), []int{2000, 6250}, 2)
	return f, nil
}

// reset does nothing: the fleet's pools stay warm across requests, as a
// server's do.
func (f *fleet) reset() {}

func (f *fleet) close() error {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.front != nil {
		f.front.Close()
	}
	for _, w := range f.workers {
		w.Close()
	}
	f.shardTr.CloseIdleConnections()
	if f.store != nil {
		return f.store.Close()
	}
	return nil
}

// serveRequest generates request i: a 4-row comparison, a 4-row safety
// grid or a 3-row configgrid at golden scale, in turn, each at its own
// scale seed so every row is cold.
func serveRequest(e *env, i int) (*expspec.Spec, []byte, error) {
	sc := e.scale("golden", 8, 10_000, i)
	switch i % 3 {
	case 0:
		return genSpec(fmt.Sprintf("serve-%d", i), expspec.Comparison, sc, expspec.Axes{
			Schemes: []string{"mithril", "mithril+"}, FlipTHs: []int{6250}, Workloads: []string{"normal", "multi-sided-rh"},
		})
	case 1:
		return genSpec(fmt.Sprintf("serve-%d", i), expspec.SafetyKind, sc, expspec.Axes{
			Schemes: []string{"graphene", "mithril", "mithril+", "parfm"}, FlipTHs: []int{2000}, Attacks: []string{"double"},
		})
	default:
		return genSpec(fmt.Sprintf("serve-%d", i), expspec.ConfigGrid, sc, expspec.Axes{
			Workloads: []string{"mix-high"}, Grid: gridMixHigh[:1],
		})
	}
}

func (f *fleet) unit(ctx context.Context, i int) (unitOut, error) {
	sp, body, err := serveRequest(f.e, i)
	if err != nil {
		return unitOut{}, err
	}
	sc, err := sp.Scale.Resolve()
	if err != nil {
		return unitOut{}, err
	}
	want := len(sp.Expand(sc))
	rec := f.e.rec
	rec.count("serveapi.rows_requested", float64(want))

	start := time.Now()
	ctx, end := rec.begin(ctx, "client.request")
	defer end()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.front.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return unitOut{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rec != nil {
		inject(req)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return unitOut{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return unitOut{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var first, prev, last time.Time
	rows := map[int][]byte{}
	var summary *struct{ Rows, Cached, Simulated int }
	lines := bufio.NewScanner(resp.Body)
	for lines.Scan() {
		now := time.Now()
		var line map[string]json.RawMessage
		if err := json.Unmarshal(lines.Bytes(), &line); err != nil {
			return unitOut{}, fmt.Errorf("undecodable record %q", lines.Text())
		}
		switch {
		case summary != nil:
			return unitOut{}, fmt.Errorf("record after the summary: %s", lines.Text())
		case line["error"] != nil:
			return unitOut{}, fmt.Errorf("error record: %s", line["error"])
		case line["summary"] != nil:
			summary = &struct{ Rows, Cached, Simulated int }{}
			if err := json.Unmarshal(line["summary"], summary); err != nil {
				return unitOut{}, err
			}
		default:
			if first.IsZero() {
				first = now
			}
			prev, last = last, now
			idx, err := checkServeRow(line)
			if err != nil {
				return unitOut{}, fmt.Errorf("row %s: %w", lines.Text(), err)
			}
			if idx < 0 || idx >= want || rows[idx] != nil {
				return unitOut{}, fmt.Errorf("row %d outside the %d-row grid or delivered twice", idx, want)
			}
			rows[idx] = append([]byte(nil), lines.Bytes()...)
		}
	}
	if err := lines.Err(); err != nil {
		return unitOut{}, err
	}
	switch {
	case summary == nil:
		return unitOut{}, errors.New("stream ended without a summary record")
	case len(rows) != want || summary.Rows != want || summary.Simulated != want:
		return unitOut{}, fmt.Errorf("want %d cold rows, got %d rows and summary %+v", want, len(rows), *summary)
	}
	if !prev.IsZero() {
		rec.sample("sweep.idle_tail", ms(last.Sub(prev)))
	}
	var out bytes.Buffer
	for k := 0; k < want; k++ {
		out.Write(rows[k])
		out.WriteByte('\n')
	}
	return unitOut{rows: want, firstRows: []time.Duration{first.Sub(start)}, out: out.Bytes()}, nil
}

// checkServeRow checks one NDJSON data row and returns its grid index:
// protected schemes safe with no flips, performance finite and positive.
func checkServeRow(rec map[string]json.RawMessage) (int, error) {
	var idx int
	if err := json.Unmarshal(rec["row"], &idx); err != nil {
		return 0, errors.New("no row index")
	}
	checks := []struct {
		key  string
		good func(any) bool
	}{
		{"safe", func(v any) bool { return v == true }},
		{"verdict", func(v any) bool { return v == "SAFE" }},
		{"flips", func(v any) bool { return v == 0.0 }},
		{"perf", func(v any) bool { f, ok := v.(float64); return ok && positive(f) }},
		{"mithril", func(v any) bool { f, ok := v.(float64); return ok && positive(f) }},
		{"mithril+", func(v any) bool { f, ok := v.(float64); return ok && positive(f) }},
	}
	for _, c := range checks {
		raw, ok := rec[c.key]
		if !ok {
			continue
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil || !c.good(v) {
			return 0, fmt.Errorf("%s = %s", c.key, raw)
		}
	}
	return idx, nil
}
