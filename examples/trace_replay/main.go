// Trace replay: drive the simulator from a recorded memory trace instead
// of a synthetic generator, and measure it alongside a table attack.
//
// Named scenarios make both axes data, not code: workloads
// resolve by name through mithril.NewWorkload — including the
// "trace:<path>" form, which replays a trace file in the README's
// trace-file format — and attack patterns resolve by name inside spec
// files ("multi:<n>", "decoy", ...). This example records a short trace,
// replays it through an inline spec with an attacks axis, and prints the
// catalogs a scenario author picks from.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mithril"
)

const specTemplate = `{
  "name": "trace-replay",
  "title": "Trace replay vs multi-sided RowHammer",
  "kind": "comparison",
  "scale": {"preset": "quick", "cores": 4, "instr_per_core": 5000},
  "axes": {
    "schemes": ["mithril"],
    "flipths": [6250],
    "workloads": [%q],
    "attacks": ["multi:8"]
  }
}`

func main() {
	// The scenario catalogs: everything a spec's workloads/attacks axes
	// can name (plus the trace:<path> form exercised below).
	fmt.Println("registered workloads:", mithril.WorkloadNames())
	fmt.Println("registered attacks:  ", mithril.AttackNames())

	// Record a toy trace: a streaming burst with a store every fourth
	// access. Real traces come from a memory profiler or another
	// simulator; the format is three columns — gap, R|W, 0x-hex address.
	path := filepath.Join(os.TempDir(), "trace_replay_example.trace")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		op := "R"
		if i%4 == 3 {
			op = "W"
		}
		fmt.Fprintf(f, "10 %s %#x\n", op, 0x40000+64*i)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)

	// The trace resolves like any registered workload.
	w, err := mithril.NewWorkload("trace:"+path, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworkload %q replays on %d cores\n\n", w.Name, len(w.Fresh()))

	// Run it through the spec engine next to a table attack: one row
	// measures the replay, one the benign mix under a multi-sided hammer.
	sp, err := mithril.ParseSpec([]byte(fmt.Sprintf(specTemplate, "trace:"+path)))
	if err != nil {
		log.Fatal(err)
	}
	eng := mithril.NewEngine(mithril.DDR5())
	res, err := eng.RunSpec(context.Background(), sp)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Emit(os.Stdout, mithril.FormatTable); err != nil {
		log.Fatal(err)
	}
}
