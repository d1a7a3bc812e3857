package distrib

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strings"
	"sync"
	"time"

	"mithril/internal/expspec"
	"mithril/internal/trace"
)

// Stream executes the spec's full grid across the worker pool, yielding
// rows in completion order exactly like Spec.StreamRowsAt: construction
// errors — invalid spec or scale, unkeyable cells — are returned before
// the first yield, so a streaming server can reject the request before
// committing to a response header; the sequence terminates with a single
// non-nil error on failure, breaking out cancels everything in flight,
// and no goroutine survives the range ending. opts binds through one
// expspec.Execution, as for a local run: it probes the store, writes
// delivered rows back, and reports progress.
func (c *Coordinator) Stream(ctx context.Context, sp *expspec.Spec, sc expspec.Scale, opts *expspec.ExecOptions) (iter.Seq2[expspec.Row, error], error) {
	st, err := c.prepare(sp, sc, opts)
	if err != nil {
		return nil, err
	}
	return st.stream(ctx), nil
}

// execState is one distributed execution: the execution that owns the
// store and progress, the spec on the wire, and the local/remote row
// partition.
type execState struct {
	c        *Coordinator
	x        *expspec.Execution
	sp       *expspec.Spec
	sc       expspec.Scale
	specJSON json.RawMessage
	cells    []expspec.Cell

	// local rows execute on the coordinator (trace-replay workloads read
	// coordinator-side files workers deliberately refuse); remote rows
	// are the dispatch pool.
	local  []int
	remote []int
}

func (c *Coordinator) prepare(sp *expspec.Spec, sc expspec.Scale, opts *expspec.ExecOptions) (*execState, error) {
	x, err := sp.NewExecution(sc, nil, opts)
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	st := &execState{c: c, x: x, sp: sp, sc: sc, specJSON: specJSON, cells: x.Cells()}
	for i, cell := range st.cells {
		if strings.HasPrefix(cell.Workload, trace.TracePrefix) {
			st.local = append(st.local, i)
		} else {
			st.remote = append(st.remote, i)
		}
	}
	return st, nil
}

// event is the merge loop's single message type; kind selects which
// fields apply. All coordination state lives in the loop goroutine — no
// shared memory, no locks — so every transition is a plain channel
// message.
type event struct {
	kind      eventKind
	row       expspec.Row // evRow
	worker    int         // evShardDone, evReady
	unserved  []int       // evShardDone: shard rows never received
	err       error       // evShardDone, evLocalDone
	permanent bool        // evShardDone: deterministic failure, do not retry
}

type eventKind int

const (
	evRow eventKind = iota
	evShardDone
	evLocalDone
	evReady
)

// stream is the merge loop. Shard goroutines POST row subsets and feed
// decoded rows back; failures requeue their unserved remainder and park
// the worker behind an exponential backoff; the store is probed before
// every (re)dispatch so rows that ever reached it are never simulated
// twice. The loop owns every slice it touches — goroutines communicate
// only through the events channel.
func (st *execState) stream(ctx context.Context) iter.Seq2[expspec.Row, error] {
	return func(yield func(expspec.Row, error) bool) {
		total := len(st.cells)
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		events := make(chan event)
		var wg sync.WaitGroup
		// Hold the group open until the exit path releases it, so the
		// closer goroutine cannot observe a transient zero count while
		// shards are still being spawned.
		wg.Add(1)
		wgDone := make(chan struct{})
		go func() { wg.Wait(); close(wgDone) }()
		// However the consumer leaves, cancel everything in flight, drain
		// the events channel so no sender blocks, and wait for all
		// goroutines to exit — streams do not leak.
		defer func() {
			cancel()
			wg.Done()
			for {
				select {
				case <-events:
				case <-wgDone:
					return
				}
			}
		}()

		nw := len(st.c.workers)
		busy := make([]bool, nw) // shard in flight, or parked in backoff
		dropped := make([]bool, nw)
		failures := make([]int, nw)
		pool := append([]int(nil), st.remote...)
		done := make([]bool, total)
		completed := 0
		var lastErr error

		// deliver hands a row to the consumer once, through the execution
		// (write-back and progress).
		deliver := func(row expspec.Row) bool {
			if done[row.Index] {
				return true
			}
			done[row.Index] = true
			completed++
			if err := st.x.Deliver(row); err != nil {
				yield(expspec.Row{}, err)
				return false
			}
			return yield(row, nil)
		}

		if len(st.local) > 0 {
			seq, err := st.x.Local(cctx, st.local)
			if err != nil {
				yield(expspec.Row{}, err)
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := func() error {
					for row, e := range seq {
						if e != nil {
							return e
						}
						select {
						case events <- event{kind: evRow, row: row}:
						case <-cctx.Done():
							return cctx.Err()
						}
					}
					return nil
				}()
				select {
				case events <- event{kind: evLocalDone, err: err}:
				case <-cctx.Done():
				}
			}()
		}

		allDropped := func() bool {
			for w := range dropped {
				if !dropped[w] {
					return false
				}
			}
			return true
		}
		liveWorkers := func() int {
			live := 0
			for w := range dropped {
				if !dropped[w] {
					live++
				}
			}
			return live
		}
		// serveFromStore drains store hits out of the pool before any
		// dispatch: on first entry this is sweep resumption, on requeue it
		// is the dedup that keeps a re-dispatched row from re-simulating
		// when the failed worker managed to write it before dying.
		serveFromStore := func() bool {
			if len(pool) == 0 {
				return true
			}
			rest := pool[:0]
			for _, i := range pool {
				if row, ok := st.x.Cached(i); ok {
					if !deliver(row) {
						return false
					}
				} else {
					rest = append(rest, i)
				}
			}
			pool = rest
			return true
		}
		// dispatch carves shards for idle workers. Shards are fractions of
		// the remaining pool (not 1/N of the grid): workers come back for
		// more as they finish, so a slow or freshly-recovered worker
		// naturally takes less.
		dispatch := func() {
			for w := 0; w < nw && len(pool) > 0; w++ {
				if dropped[w] || busy[w] {
					continue
				}
				size := len(pool) / (2 * liveWorkers())
				if size < 1 {
					size = 1
				}
				shard := append([]int(nil), pool[:size]...)
				pool = pool[size:]
				busy[w] = true
				wg.Add(1)
				go st.runShard(cctx, &wg, events, w, shard)
			}
		}

		for {
			if err := ctx.Err(); err != nil {
				yield(expspec.Row{}, err)
				return
			}
			// Checked after the store probe: when the store serves the last
			// rows nothing is in flight, and waiting for an event would
			// block forever.
			if !serveFromStore() || completed == total {
				return
			}
			if len(pool) > 0 && allDropped() {
				err := fmt.Errorf("distrib: all %d workers dropped with %d of %d rows undelivered", nw, total-completed, total)
				if lastErr != nil {
					err = fmt.Errorf("%s (last failure: %w)", err, lastErr)
				}
				yield(expspec.Row{}, err)
				return
			}
			dispatch()
			select {
			case ev := <-events:
				switch ev.kind {
				case evRow:
					if !deliver(ev.row) {
						return
					}
				case evShardDone:
					busy[ev.worker] = false
					if ev.err == nil {
						failures[ev.worker] = 0
						continue
					}
					lastErr = ev.err
					pool = append(pool, ev.unserved...)
					if ev.permanent {
						yield(expspec.Row{}, ev.err)
						return
					}
					failures[ev.worker]++
					if failures[ev.worker] >= st.c.maxFailures {
						dropped[ev.worker] = true
						continue
					}
					// Park the worker behind the backoff; evReady returns
					// it to the dispatchable set.
					busy[ev.worker] = true
					delay := st.c.backoff << (failures[ev.worker] - 1)
					w := ev.worker
					wg.Add(1)
					go func() {
						defer wg.Done()
						t := time.NewTimer(delay)
						defer t.Stop()
						select {
						case <-t.C:
						case <-cctx.Done():
							return
						}
						select {
						case events <- event{kind: evReady, worker: w}:
						case <-cctx.Done():
						}
					}()
				case evLocalDone:
					// Local failures are deterministic executor errors
					// (the same spec would fail under StreamRowsAt) — no retry.
					if ev.err != nil {
						yield(expspec.Row{}, ev.err)
						return
					}
				case evReady:
					busy[ev.worker] = false
				}
			case <-ctx.Done():
				yield(expspec.Row{}, ctx.Err())
				return
			}
		}
	}
}

// runShard executes one shard POST against worker w, forwarding each
// decoded row as an event, then terminates with an evShardDone carrying
// every row it never received — the exact retry pool.
func (st *execState) runShard(cctx context.Context, wg *sync.WaitGroup, events chan<- event, w int, rows []int) {
	defer wg.Done()
	received := make(map[int]bool, len(rows))
	permanent, err := st.postShard(cctx, events, w, rows, received)
	var unserved []int
	for _, i := range rows {
		if !received[i] {
			unserved = append(unserved, i)
		}
	}
	if err == nil && len(unserved) > 0 {
		err = fmt.Errorf("distrib: worker %s completed a shard leaving %d of %d rows unserved",
			st.c.workers[w], len(unserved), len(rows))
	}
	select {
	case events <- event{kind: evShardDone, worker: w, unserved: unserved, err: err, permanent: permanent}:
	case <-cctx.Done():
	}
}

// postShard issues the HTTP request and decodes the NDJSON stream,
// marking every forwarded row in received. permanent reports whether the
// failure is deterministic (every worker would fail identically).
func (st *execState) postShard(cctx context.Context, events chan<- event, w int, rows []int, received map[int]bool) (permanent bool, err error) {
	reqBody, err := json.Marshal(ShardRequest{
		Spec: st.specJSON, Scale: ToWire(st.sc), Rows: rows, Stamp: expspec.StoreStamp(), Grid: len(st.cells),
	})
	if err != nil {
		return true, err
	}
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, st.c.workers[w]+RunPath, bytes.NewReader(reqBody))
	if err != nil {
		return true, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.c.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeHTTPError(st.c.workers[w], resp)
	}
	sawSummary := false
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for scanner.Scan() {
		line := bytes.TrimSpace(scanner.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec ShardRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return false, fmt.Errorf("distrib: worker %s sent an undecodable record: %w", st.c.workers[w], err)
		}
		switch {
		case rec.Error != nil:
			return permanentCode(rec.Error.Code), fmt.Errorf("distrib: worker %s: %w", st.c.workers[w], rec.Error)
		case rec.Summary != nil:
			sawSummary = true
		default:
			row, err := DecodeShardRow(st.sp, len(st.cells), rec)
			if err != nil {
				return false, err
			}
			row.Cell = st.cells[row.Index]
			select {
			case events <- event{kind: evRow, row: row}:
				received[row.Index] = true
			case <-cctx.Done():
				return false, cctx.Err()
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return false, fmt.Errorf("distrib: worker %s stream: %w", st.c.workers[w], err)
	}
	if !sawSummary {
		return false, fmt.Errorf("distrib: worker %s stream ended without a summary record (connection cut mid-shard)", st.c.workers[w])
	}
	return false, nil
}

// decodeHTTPError turns a non-200 response into an error, honouring the
// /v1 JSON envelope when present. Without a decodable envelope, any
// 4xx is permanent (the request is malformed the same way everywhere)
// and everything else is retryable.
func decodeHTTPError(worker string, resp *http.Response) (permanent bool, err error) {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env struct {
		Error *APIError `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error != nil {
		return permanentCode(env.Error.Code), fmt.Errorf("distrib: worker %s: %w", worker, env.Error)
	}
	return resp.StatusCode >= 400 && resp.StatusCode < 500,
		fmt.Errorf("distrib: worker %s returned HTTP %d: %s", worker, resp.StatusCode, bytes.TrimSpace(body))
}

// permanentCode reports whether an API error code names a deterministic
// failure: another worker would reject the identical shard identically,
// so retrying only burns the failure budget.
func permanentCode(code string) bool {
	switch code {
	case CodeBadRequest, CodeConflict, CodeRunFailed:
		return true
	}
	return false
}
