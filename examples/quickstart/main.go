// Quickstart: size a Mithril counter table with Theorem 1, then run a
// declarative experiment spec — the same JSON format the shipped
// specs/*.json figures use — through a mithril.Engine, comparing Mithril
// against PARFM on a benign workload, and print the human table plus
// machine-readable CSV rows.
//
// The Engine is the context-aware entry point: construct it once with
// functional options (worker count, progress hook, result store) and
// drive every run through it. Ctrl-C cancels the sweep mid-simulation
// via the context. New scenarios are new spec files, not new code: edit
// the axes below (or point `mithrilsim run` at a .json file) to change
// the scheme subset, FlipTH grid, workloads, or seeds.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"mithril"
)

// spec is a small comparison grid: two schemes × two FlipTH levels on the
// mix-high workload, at a reduced quick scale so it runs in seconds.
const spec = `{
  "name": "quickstart",
  "title": "Quickstart — Mithril vs PARFM on mix-high",
  "kind": "comparison",
  "scale": {"preset": "quick", "cores": 4, "instr_per_core": 4000},
  "axes": {
    "schemes": ["parfm", "mithril"],
    "flipths": [6250, 1500],
    "workloads": ["mix-high"]
  }
}`

func main() {
	// Ctrl-C cancels the context; the Engine aborts in-flight simulations.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	p := mithril.DDR5()
	const flipTH = 6250 // the paper's "recently observed" threshold

	// Theorem 1 sizing: the minimal counter table for RFMTH = 128.
	cfg, ok := mithril.Configure(p, flipTH, 128, 0)
	if !ok {
		log.Fatal("no feasible configuration")
	}
	fmt.Printf("Mithril config: %s\n", cfg)
	fmt.Printf("Theorem 1 bound M = %.0f (< FlipTH/2 = %d)\n\n",
		mithril.BoundM(p, cfg.NEntry, cfg.RFMTH), flipTH/2)

	// Parse + validate the spec (unknown schemes, workloads, or axes fail
	// here, before any simulation runs).
	sp, err := mithril.ParseSpec([]byte(spec))
	if err != nil {
		log.Fatal(err)
	}

	// One Engine, configured once: all cores, per-grid-point progress.
	eng := mithril.NewEngine(p,
		mithril.WithProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d grid points", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}),
	)
	res, err := eng.RunSpec(ctx, sp)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s\n\n", sp.Title)
	if err := res.Emit(os.Stdout, mithril.FormatTable); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nmachine-readable (CSV; mithril.FormatJSON for a document):")
	if err := res.Emit(os.Stdout, mithril.FormatCSV); err != nil {
		log.Fatal(err)
	}

	// Streaming: the same grid again, but rows arrive as workers finish
	// them (completion order — Row.Index is the grid position). This is
	// what `mithrilsim serve` sends a client as NDJSON.
	fmt.Println("\nstreaming (completion order):")
	sc, _ := sp.Scale.Resolve()
	for row, err := range eng.Stream(ctx, sp) {
		if err != nil {
			log.Fatal(err)
		}
		vals, err := sp.RowValues(sc, row)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  row %d: %s flipTH=%v perf=%.2f%%\n",
			row.Index, vals["scheme"], vals["flipth"], row.Perf.RelativePerformance)
	}
}
