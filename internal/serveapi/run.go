package serveapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strconv"
	"strings"

	"mithril/internal/distrib"
	"mithril/internal/expspec"
	"mithril/internal/trace"
)

// Trailer names carrying the per-request cache-effectiveness split.
const (
	trailerCached    = "X-Mithril-Rows-Cached"
	trailerSimulated = "X-Mithril-Rows-Simulated"
)

// ndjsonSummary is the terminal line of a completed stream: the row
// count and its cached/simulated split. Consumers distinguish it from
// data rows by the "summary" key, mirroring the "error" convention; the
// same split rides the X-Mithril-Rows-Cached/-Simulated trailers for
// clients that consume trailers. Without a result store every row counts
// as simulated.
type ndjsonSummary struct {
	Summary rowSplit `json:"summary"`
}

type rowSplit struct {
	Rows      int `json:"rows"`
	Cached    int `json:"cached"`
	Simulated int `json:"simulated"`
}

func (s *rowSplit) count(cached bool) {
	s.Rows++
	if cached {
		s.Cached++
	} else {
		s.Simulated++
	}
}

// handleRun serves POST /v1/run. The body is either a bare spec document
// (a sweep: validate fully, then stream display rows) or — distinguished
// by the "spec" key — a distrib.ShardRequest (a coordinator dispatching
// an explicit row subset: stream wire rows).
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, distrib.CodeMethod, "POST a spec document (or a shard request) to this endpoint")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, distrib.CodeBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	var probe struct {
		Spec json.RawMessage `json:"spec"`
	}
	// A decode failure falls through to the bare-spec path, whose parse
	// error names the actual syntax problem.
	_ = json.Unmarshal(body, &probe)
	if probe.Spec != nil {
		s.handleShard(w, r, body)
		return
	}
	s.handleSweep(w, r, body)
}

// handleSweep executes a bare spec document and streams its display rows
// (Spec.RowValues maps plus the grid index) as NDJSON. Validation —
// parse, registry membership, scale resolution, grid expansion, store
// keying — completes before the response header is written, so every
// rejectable request gets a real HTTP status and an error envelope, not
// a 200 that turns out to be an error record. Only failures of the
// simulation itself arrive mid-stream, as the terminal error line.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request, body []byte) {
	sp, err := expspec.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, distrib.CodeBadRequest, err.Error())
		return
	}
	// trace:<path> workloads read server-local files; accepting them from
	// the network would let any client probe the server's filesystem (and
	// read fragments of it back through parse errors). Trace replays are
	// a CLI/library feature.
	for _, name := range sp.Axes.Workloads {
		if strings.HasPrefix(name, trace.TracePrefix) {
			writeError(w, http.StatusBadRequest, distrib.CodeBadRequest,
				fmt.Sprintf("workload %q: trace-file workloads are not accepted over HTTP (the path would be read on the server); run the spec with the mithrilsim CLI instead", name))
			return
		}
	}
	sc, err := sp.Scale.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, distrib.CodeBadRequest, err.Error())
		return
	}
	sc = s.applyJobs(sc)
	// Construct the execution — local, or fanned out by the coordinator;
	// both bind the store the same way — before committing the header:
	// anything wrong with the spec surfaces here as a 400.
	var seq iter.Seq2[expspec.Row, error]
	if s.cfg.Coordinator != nil {
		seq, err = s.cfg.Coordinator.Stream(r.Context(), sp, sc, s.execOptions())
	} else {
		seq, err = sp.StreamRowsAt(r.Context(), sc, nil, s.execOptions())
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, distrib.CodeBadRequest, err.Error())
		return
	}

	st := startStream(w, sp.Name)
	var split rowSplit
	for row, err := range seq {
		if err != nil {
			// Rows may already be on the wire; the status is committed.
			// Emit the terminal error line unless the client is the reason
			// we are stopping (its connection is gone anyway).
			if r.Context().Err() == nil {
				st.fail(distrib.CodeRunFailed, err.Error())
			}
			return
		}
		vals, err := sp.RowValues(sc, row)
		if err != nil {
			st.fail(distrib.CodeRunFailed, err.Error())
			return
		}
		// Echo the grid position so streaming consumers can reassemble
		// deterministic order without re-deriving the expansion.
		vals["row"] = row.Index
		if writeErr := st.emit(vals); writeErr != nil {
			return // client went away mid-write
		}
		split.count(row.Cached)
	}
	st.finish(split)
}

// handleShard executes a distrib.ShardRequest: an explicit row-index
// subset of a spec's grid, streamed back in the wire encoding
// (distrib.ShardRecord lines carrying store payloads, which round-trip
// float64 exactly). Same header discipline as handleSweep: every check —
// decode, parse, stamp and grid drift, subset bounds, trace cells —
// runs before the 200 commits.
func (s *server) handleShard(w http.ResponseWriter, r *http.Request, body []byte) {
	if s.cfg.Coordinator != nil {
		writeError(w, http.StatusBadRequest, distrib.CodeBadRequest,
			"this server is a coordinator; shard requests go to its workers (POST a bare spec document instead)")
		return
	}
	var req distrib.ShardRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, distrib.CodeBadRequest, fmt.Sprintf("decoding shard request: %v", err))
		return
	}
	// A nil subset means the whole grid to StreamRowsAt, which would run
	// every row — trace cells included, unchecked by the guard below.
	if req.Rows == nil {
		writeError(w, http.StatusBadRequest, distrib.CodeBadRequest, "shard request has no rows (a shard names the grid rows it executes)")
		return
	}
	sp, err := expspec.Parse(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, distrib.CodeBadRequest, err.Error())
		return
	}
	// Version-drift guards: a worker whose registries fingerprint
	// differently would expand or simulate a different grid than the
	// coordinator keyed, so reject loudly instead of returning rows that
	// silently mean something else. Conflict is permanent — the
	// coordinator drops this worker rather than retrying.
	if stamp := expspec.StoreStamp(); req.Stamp != stamp {
		writeError(w, http.StatusConflict, distrib.CodeConflict,
			fmt.Sprintf("store stamp mismatch: coordinator %s, worker %s (binaries out of sync)", req.Stamp, stamp))
		return
	}
	sc := req.Scale.Scale(s.cfg.Jobs)
	cells := sp.Expand(sc)
	if len(cells) != req.Grid {
		writeError(w, http.StatusConflict, distrib.CodeConflict,
			fmt.Sprintf("grid mismatch: coordinator expanded %d rows, worker %d (binaries out of sync)", req.Grid, len(cells)))
		return
	}
	// Trace cells never travel: the coordinator runs them locally, so a
	// shard naming one is a coordinator bug — and the same filesystem
	// probe hole the bare path closes. Bounds errors fall out of
	// StreamRowsAt below with a precise message.
	for _, i := range req.Rows {
		if i < 0 || i >= len(cells) {
			continue
		}
		if strings.HasPrefix(cells[i].Workload, trace.TracePrefix) {
			writeError(w, http.StatusBadRequest, distrib.CodeBadRequest,
				fmt.Sprintf("row %d (workload %q): trace-file workloads are not accepted over HTTP; the coordinator executes trace rows locally", i, cells[i].Workload))
			return
		}
	}
	seq, err := sp.StreamRowsAt(r.Context(), sc, req.Rows, s.execOptions())
	if err != nil {
		writeError(w, http.StatusBadRequest, distrib.CodeBadRequest, err.Error())
		return
	}

	st := startStream(w, sp.Name)
	var split rowSplit
	for row, err := range seq {
		if err != nil {
			if r.Context().Err() == nil {
				st.shardFail(distrib.CodeRunFailed, err.Error())
			}
			return
		}
		payload, err := expspec.EncodeRowPayload(row)
		if err != nil {
			st.shardFail(distrib.CodeRunFailed, err.Error())
			return
		}
		rec := distrib.ShardRecord{Row: row.Index, Cached: row.Cached, Point: payload}
		if writeErr := st.emit(rec); writeErr != nil {
			return // coordinator went away mid-write
		}
		split.count(row.Cached)
	}
	st.shardFinish(split)
}

// stream is one committed NDJSON response: header written, rows flushing
// as they complete, terminated by exactly one summary or error record.
type stream struct {
	w       http.ResponseWriter
	flusher http.Flusher
	enc     *json.Encoder
}

// startStream commits the NDJSON response header. After this point
// errors can only travel as terminal records, never as HTTP statuses.
func startStream(w http.ResponseWriter, specName string) *stream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Spec-Name", specName)
	// Declared before the body starts, set after the stream completes:
	// the cache-effectiveness split arrives as HTTP trailers (and as the
	// final NDJSON summary line, for clients that never look at trailers).
	w.Header().Set("Trailer", trailerCached+", "+trailerSimulated)
	flusher, _ := w.(http.Flusher)
	return &stream{w: w, flusher: flusher, enc: json.NewEncoder(w)}
}

// emit writes one data record and flushes it to the client.
func (st *stream) emit(v any) error {
	if err := st.enc.Encode(v); err != nil {
		return err
	}
	if st.flusher != nil {
		st.flusher.Flush()
	}
	return nil
}

// fail writes the terminal error record of a sweep stream: the coded
// envelope, so mid-stream failures carry the same slugs as pre-header ones.
func (st *stream) fail(code, msg string) {
	_ = st.enc.Encode(errorEnvelope{Error: &distrib.APIError{Code: code, Message: msg}})
}

// shardFail writes the terminal error record of a shard stream.
func (st *stream) shardFail(code, msg string) {
	_ = st.enc.Encode(distrib.ShardRecord{Error: &distrib.APIError{Code: code, Message: msg}})
}

// finish terminates a completed sweep stream: summary record + trailers.
func (st *stream) finish(split rowSplit) {
	_ = st.enc.Encode(ndjsonSummary{Summary: split})
	st.setTrailers(split)
}

// shardFinish terminates a completed shard stream. The summary is the
// coordinator's completion proof: a connection that dies before it
// arrives means the unserved remainder must be re-dispatched.
func (st *stream) shardFinish(split rowSplit) {
	_ = st.enc.Encode(distrib.ShardRecord{
		Row:     -1,
		Summary: &distrib.ShardSummary{Rows: split.Rows, Cached: split.Cached, Simulated: split.Simulated},
	})
	st.setTrailers(split)
}

func (st *stream) setTrailers(split rowSplit) {
	st.w.Header().Set(trailerCached, strconv.Itoa(split.Cached))
	st.w.Header().Set(trailerSimulated, strconv.Itoa(split.Simulated))
}
