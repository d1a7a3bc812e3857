package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mithril/internal/distrib"
	"mithril/internal/resultstore"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0: root
	Req    uint64 `json:"req"`    // the unit (request, sweep, replay) the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End−Start minus the part child spans cover; filled on write
}

// recorder keeps spans, per-call samples too fine to keep as spans (store
// lookups), and counters in memory until the run writes them out. A nil
// recorder records nothing, so untraced runs pass nil.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64

	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
	counts  map[string]float64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), samples: map[string][]float64{}, counts: map[string]float64{}}
}

// spanRef is the span context carries: the current span and its unit.
type spanRef struct{ id, req uint64 }

type spanKey struct{}

func withRequest(ctx context.Context, req uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{req: req})
}

func refOf(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// begin opens a span under the one ctx carries and returns the context
// its children run in plus the function that closes it.
func (r *recorder) begin(ctx context.Context, name string) (context.Context, func()) {
	if r == nil {
		return ctx, func() {}
	}
	parent := refOf(ctx)
	id := r.ids.Add(1)
	start := time.Now()
	ctx = context.WithValue(ctx, spanKey{}, spanRef{id: id, req: parent.req})
	return ctx, func() {
		r.add(span{Name: name, ID: id, Parent: parent.id, Req: parent.req, Start: r.ns(start), End: r.ns(time.Now())})
	}
}

// record adds a span whose interval the caller measured.
func (r *recorder) record(ctx context.Context, name string, start, end time.Time) {
	if r == nil {
		return
	}
	parent := refOf(ctx)
	r.add(span{Name: name, ID: r.ids.Add(1), Parent: parent.id, Req: parent.req, Start: r.ns(start), End: r.ns(end)})
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

func (r *recorder) add(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
}

func (r *recorder) sample(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[name] = append(r.samples[name], v)
}

func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] += v
}

// ---------------------------------------------------------------- wrappers

// Span context crosses HTTP hops in two headers.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

func inject(req *http.Request) {
	ref := refOf(req.Context())
	req.Header.Set(hdrSpan, strconv.FormatUint(ref.id, 10))
	req.Header.Set(hdrReq, strconv.FormatUint(ref.req, 10))
}

// traceHandler times every request h serves as a span named name, parented
// to the caller's span from the headers.
func traceHandler(r *recorder, name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, _ := strconv.ParseUint(req.Header.Get(hdrSpan), 10, 64)
		unit, _ := strconv.ParseUint(req.Header.Get(hdrReq), 10, 64)
		ctx := context.WithValue(req.Context(), spanKey{}, spanRef{id: id, req: unit})
		ctx, end := r.begin(ctx, name)
		defer end()
		h.ServeHTTP(w, req.WithContext(ctx))
	})
}

// shardTransport times each coordinator-to-worker shard request, from
// dispatch until its response stream is closed, and counts the rows it
// carries.
type shardTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func traceTransport(r *recorder, base http.RoundTripper) http.RoundTripper {
	if r == nil {
		return base
	}
	return shardTransport{rec: r, base: base}
}

func (t shardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			var sr distrib.ShardRequest
			if json.NewDecoder(body).Decode(&sr) == nil {
				t.rec.count("distrib.shard_rows", float64(len(sr.Rows)))
			}
			body.Close()
		}
	}
	ctx, end := t.rec.begin(req.Context(), "distrib.shard")
	req = req.Clone(ctx)
	inject(req)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracedStore times every lookup and write through the Store interface.
type tracedStore struct {
	resultstore.Store
	rec *recorder
}

func traceStore(r *recorder, st resultstore.Store) resultstore.Store {
	if r == nil {
		return st
	}
	return tracedStore{Store: st, rec: r}
}

func (s tracedStore) Get(k resultstore.Key) (resultstore.Record, bool) {
	start := time.Now()
	rec, ok := s.Store.Get(k)
	s.rec.sample("resultstore.get", float64(time.Since(start))/float64(time.Microsecond))
	if ok {
		s.rec.count("resultstore.hits", 1)
		s.rec.count("resultstore.bytes", float64(len(rec.Payload)))
	}
	return rec, ok
}

func (s tracedStore) Put(rec resultstore.Record) error {
	start := time.Now()
	err := s.Store.Put(rec)
	s.rec.sample("resultstore.put", float64(time.Since(start))/float64(time.Microsecond))
	s.rec.count("resultstore.bytes", float64(len(rec.Payload)))
	return err
}

// openStore opens a disk store under a resultstore.open span.
func openStore(ctx context.Context, r *recorder, dir string) (*resultstore.Disk, error) {
	_, end := r.begin(ctx, "resultstore.open")
	defer end()
	return resultstore.Open(dir)
}

// ---------------------------------------------------------------- analysis

// selfTimes fills each span's Self: its duration minus the union of its
// children's intervals clipped to it.
func selfTimes(spans []span) {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		covered, cur := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// snapshot copies what the recorder holds, with self times filled in.
func (r *recorder) snapshot() ([]span, map[string][]float64, map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := append([]span(nil), r.spans...)
	samples := make(map[string][]float64, len(r.samples))
	for k, v := range r.samples {
		samples[k] = v
	}
	counts := make(map[string]float64, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	selfTimes(spans)
	return spans, samples, counts
}

// layerMetrics derives the per-layer metrics from everything recorded.
func (r *recorder) layerMetrics() []metric {
	spans, samples, counts := r.snapshot()
	durs := map[string][]float64{}
	frontOf := map[uint64]float64{} // client span → its front span's duration
	var gaps, coordSelf []float64
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e6)
		if s.Name == "serveapi.front" {
			frontOf[s.Parent] += float64(s.End-s.Start) / 1e6
			coordSelf = append(coordSelf, float64(s.Self)/1e6)
		}
	}
	for _, s := range spans {
		if s.Name == "client.request" {
			gaps = append(gaps, float64(s.End-s.Start)/1e6-frontOf[s.ID])
		}
	}
	n := func(name string) float64 { return float64(len(durs[name])) }
	gets := float64(len(samples["resultstore.get"]))
	out := []metric{
		{"serveapi.front.p50_ms", median(durs["serveapi.front"]), "ms"},
		{"serveapi.worker.p50_ms", median(durs["serveapi.worker"]), "ms"},
		{"serveapi.client_gap.p50_ms", median(gaps), "ms"},
		{"distrib.shards_per_req", n("distrib.shard") / max(n("serveapi.front"), 1), "shards/req"},
		{"distrib.shard.p50_ms", median(durs["distrib.shard"]), "ms"},
		{"distrib.redispatches", counts["distrib.shard_rows"] - counts["serveapi.rows_requested"], "count"},
		{"distrib.coord_self.p50_ms", median(coordSelf), "ms"},
		{"expspec.setup_ms", median(samples["expspec.setup"]), "ms"},
		{"expspec.baselines", counts["expspec.baselines"], "count"},
		{"expspec.emit_ms", median(durs["expspec.emit"]), "ms"},
	}
	for _, class := range rowClasses {
		name := "expspec.row." + class
		out = append(out, metric{name + ".p50_ms", median(durs[name]), "ms"}, metric{name + ".count", n(name), "count"})
	}
	return append(out,
		metric{"sweep.idle_tail_ms", median(samples["sweep.idle_tail"]), "ms"},
		metric{"resultstore.open_ms", median(durs["resultstore.open"]), "ms"},
		metric{"resultstore.get.count", gets, "count"},
		metric{"resultstore.get.p50_us", median(samples["resultstore.get"]), "us"},
		metric{"resultstore.put.count", float64(len(samples["resultstore.put"])), "count"},
		metric{"resultstore.put.p50_us", median(samples["resultstore.put"]), "us"},
		metric{"resultstore.hit_ratio", counts["resultstore.hits"] / max(gets, 1), "ratio"},
		metric{"resultstore.bytes", counts["resultstore.bytes"], "bytes"},
	)
}

// writeSpans writes every span, with self times, to path.
func (r *recorder) writeSpans(path, workload string, seed uint64) error {
	spans, _, _ := r.snapshot()
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
