// Package serveapi is the mithrilsim HTTP surface: the versioned /v1
// API (run streaming, health, the merged registry catalog) and nothing
// else — every other path answers 404. The same handler serves three
// roles — a plain sweep server, a distributed worker (shard requests on
// /v1/run), and a coordinator front-end that fans bare sweeps out across
// a worker fleet — selected by Config.
//
// Every non-200 response and every terminal stream error carries the
// uniform JSON envelope {"error":{"code","message"}}; codes are the
// stable distrib.Code* slugs coordinators use to classify failures as
// permanent or retryable.
package serveapi

import (
	"encoding/json"
	"net/http"

	"mithril/internal/attack"
	"mithril/internal/distrib"
	"mithril/internal/expspec"
	"mithril/internal/mitigation"
	"mithril/internal/resultstore"
	"mithril/internal/trace"
)

// maxSpecBytes bounds a POSTed body; real specs (and shard requests,
// which add only a scale and a row list) are a few hundred bytes, so
// anything near the limit is a mistake or an attack, not a grid.
const maxSpecBytes = 1 << 20

// Config selects the handler's role and resources.
type Config struct {
	// Jobs overrides every executed scale's worker count (0: leave the
	// spec's resolved scale alone), mirroring the -jobs flag.
	Jobs int
	// Store is the shared result store (nil: simulate everything).
	// Every request consults it before simulating a row and writes
	// fresh rows back.
	Store resultstore.Store
	// Coordinator, when set, turns the server into a fleet front-end:
	// bare sweeps on /v1/run fan out across its workers, and
	// shard requests are rejected (a coordinator accepting shards from
	// another coordinator could recurse through its own fleet).
	Coordinator *distrib.Coordinator
}

// NewHandler builds the service mux for one Config.
func NewHandler(cfg Config) http.Handler {
	s := &server{cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", s.handleHealth)
	mux.HandleFunc("/v1/catalog", s.handleCatalog)
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, distrib.CodeNotFound, "unknown path "+r.URL.Path+" (the API lives under /v1/)")
	})
	return mux
}

type server struct {
	cfg Config
}

// role names the server's position in a fleet for /v1/healthz.
func (s *server) role() string {
	if s.cfg.Coordinator != nil {
		return "coordinator"
	}
	return "worker"
}

// applyJobs imposes the server's -jobs override on a resolved scale.
func (s *server) applyJobs(sc expspec.Scale) expspec.Scale {
	if s.cfg.Jobs != 0 {
		sc.Jobs = s.cfg.Jobs
	}
	return sc
}

// execOptions binds the server's resources for one request's execution.
func (s *server) execOptions() *expspec.ExecOptions {
	return &expspec.ExecOptions{Store: s.cfg.Store}
}

// handleHealth reports readiness, the API version, the server's fleet
// role, and (for coordinators) the worker list, so an operator can tell
// from one probe what a port is.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, distrib.CodeMethod, "GET this endpoint")
		return
	}
	// The stamp lets a client predict cache behaviour: rows stored
	// under another stamp (schema bump, different scheme registry)
	// will re-simulate rather than hit.
	health := map[string]any{
		"status": "ok",
		"api":    "v1",
		"stamp":  expspec.StoreStamp(),
		"store":  s.cfg.Store != nil,
		"role":   s.role(),
	}
	if s.cfg.Coordinator != nil {
		health["workers"] = s.cfg.Coordinator.Workers()
	}
	writeJSON(w, health)
}

// handleCatalog merges the three registry listings into one document.
// The stamp rides along because it is the registries' fingerprint: a
// client that caches the catalog can revalidate it against /v1/healthz
// with a string compare.
func (s *server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, distrib.CodeMethod, "GET /v1/catalog")
		return
	}
	writeJSON(w, map[string]any{
		"schemes":   mitigation.Names(),
		"workloads": trace.Workloads(),
		"attacks":   attack.Patterns(),
		"stamp":     expspec.StoreStamp(),
	})
}

// writeJSON emits a 200 JSON document.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the uniform error envelope. Only valid before the
// response header is committed — mid-stream failures use the terminal
// NDJSON error record instead.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: &distrib.APIError{Code: code, Message: msg}})
}

// errorEnvelope is the uniform error body, and the terminal NDJSON error
// record of an aborted sweep stream.
type errorEnvelope struct {
	Error *distrib.APIError `json:"error"`
}
