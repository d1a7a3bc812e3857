package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"mithril/internal/distrib"
	"mithril/internal/serveapi"
)

// serveCmd runs the HTTP service: the /v1 API (POST /v1/run streaming
// NDJSON rows, GET /v1/healthz, GET /v1/catalog); every other path
// answers 404 with the not_found envelope. By default the server is a
// worker: /v1/run also accepts coordinator shard requests. With
// -coordinator (over a -workers fleet, or -spawn N / 2 freshly spawned
// local workers) it becomes a fleet coordinator instead, fanning every
// bare sweep out across its worker peers and rejecting shards.
// A client that disconnects mid-sweep cancels the work through the
// request context.
func serveCmd(ctx context.Context, e env, _ []string) error {
	cfg := serveapi.Config{Jobs: e.jobs, Store: e.store}
	role := "worker"
	if e.coordinator || e.fleetConfigured() {
		fleet, shutdown, err := e.fleet(ctx)
		if err != nil {
			return err
		}
		defer shutdown()
		coord, err := distrib.New(fleet, distrib.Options{})
		if err != nil {
			return err
		}
		cfg.Coordinator = coord
		role = fmt.Sprintf("coordinator for %d workers", len(fleet))
	}
	// Bind before serving so -addr :0 (tests, spawned local workers)
	// reports the actual port: the parent process parses the announce
	// line off stderr.
	ln, err := net.Listen("tcp", e.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler: serveapi.NewHandler(cfg),
		// Root every request context in the CLI's signal/timeout context:
		// Ctrl-C cancels in-flight sweeps exactly like a client disconnect.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	go func() {
		<-ctx.Done()
		// The shutdown deadline must not inherit ctx: ctx is already done
		// when this runs, and Shutdown needs a fresh 5s grace window to
		// drain in-flight responses before the listener is torn down.
		//mithril:allow ctxflow deliberate fresh root: parent ctx is already cancelled here
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
	}()
	fmt.Fprintf(os.Stderr, "mithrilsim: serving on http://%s (POST /v1/run, %s)\n", ln.Addr(), role)
	err = srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}
