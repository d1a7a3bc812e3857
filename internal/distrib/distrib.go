// Package distrib fans one spec execution out across mithrilsim serve
// worker peers over HTTP. It owns only dispatch and retry: the coordinator
// partitions the expanded grid into shards (explicit row-index subsets),
// streams each shard's rows back over the /v1/run NDJSON wire format,
// merges the streams in completion order, and re-dispatches the unserved
// remainder of a failed or disconnected shard against surviving workers
// with bounded backoff.
//
// How a row meets the result store and the progress hook is decided in
// one place, expspec.Execution, which local runs drive too. The merge
// loop asks it for stored rows before every (re)dispatch and hands it
// every row it delivers, which writes fresh rows back unless they are
// already stored — so with a store a row is simulated at most once, even
// when the worker that computed it died before delivering it.
//
// Rows that cannot leave the coordinator — trace-replay workloads, whose
// files live on the coordinator's filesystem and are deliberately
// rejected by workers — run through the execution's local row source and
// merge into the identical stream, so a spec mixing trace and synthetic
// rows still fans out everything it can.
//
// The merge is byte-exact: shard rows travel as store payload encodings
// (float64 round-trips exactly) and Spec.NewResult orders collected rows
// by Row.Index into Spec.Expand order, so a distributed run's output is
// byte-identical to a local one — the same invariant the parallel sweep
// engine keeps over goroutines, kept over machines.
package distrib

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Defaults for Options zero values.
const (
	// DefaultMaxFailures is the per-worker failure budget: after this many
	// consecutive shard failures a worker is dropped from the pool.
	DefaultMaxFailures = 3
	// DefaultBackoff is the delay before a failed worker is redispatched;
	// it doubles per consecutive failure.
	DefaultBackoff = 100 * time.Millisecond
)

// Options tunes a Coordinator. The zero value is ready for production
// use against healthy workers.
type Options struct {
	// Client issues shard requests; nil means http.DefaultClient. Shard
	// streams are long-lived, so the client must not set a short Timeout
	// (per-request deadlines come from the caller's context).
	Client *http.Client
	// MaxFailures is the per-worker consecutive-failure budget (<=0:
	// DefaultMaxFailures). A successful shard resets a worker's count.
	MaxFailures int
	// Backoff is the base redispatch delay after a worker failure (<=0:
	// DefaultBackoff). The n-th consecutive failure waits Backoff<<(n-1).
	Backoff time.Duration
}

// Coordinator partitions spec executions across a fixed set of worker
// base URLs. It is stateless between executions and safe for concurrent
// use; per-execution state lives in the stream.
type Coordinator struct {
	workers     []string
	client      *http.Client
	maxFailures int
	backoff     time.Duration
}

// New builds a coordinator over worker base URLs ("http://host:port",
// trailing slashes tolerated). At least one worker is required — a
// coordinator with no workers could execute nothing but trace rows,
// which is just local execution misspelled.
func New(workers []string, opts Options) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("distrib: no workers (need at least one base URL)")
	}
	normalized := make([]string, len(workers))
	for i, w := range workers {
		w = strings.TrimRight(strings.TrimSpace(w), "/")
		if w == "" {
			return nil, fmt.Errorf("distrib: empty worker URL at position %d", i)
		}
		if !strings.Contains(w, "://") {
			w = "http://" + w
		}
		normalized[i] = w
	}
	c := &Coordinator{
		workers:     normalized,
		client:      opts.Client,
		maxFailures: opts.MaxFailures,
		backoff:     opts.Backoff,
	}
	if c.client == nil {
		c.client = http.DefaultClient
	}
	if c.maxFailures <= 0 {
		c.maxFailures = DefaultMaxFailures
	}
	if c.backoff <= 0 {
		c.backoff = DefaultBackoff
	}
	return c, nil
}

// Workers returns the normalized worker base URLs (a copy).
func (c *Coordinator) Workers() []string {
	return append([]string(nil), c.workers...)
}
