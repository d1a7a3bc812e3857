// Attack & defense: run a double-sided and a 32-victim multi-sided
// RowHammer attack against an unprotected DDR5 bank and against Mithril,
// and show the fault-model verdicts — the end-to-end version of the
// paper's protection guarantee.
package main

import (
	"context"
	"fmt"
	"log"

	"mithril"
)

func main() {
	// The multi-sided attack spreads over 33 aggressors, so it needs a
	// full (time-compressed) refresh window to reach FlipTH on a victim:
	// each run simulates a few milliseconds. The shipped safety spec's
	// (attack × scheme) grid fans out to every core, so wall time is one
	// cell, not the whole grid.
	sp, err := mithril.LoadShippedSpec("safety.quick")
	if err != nil {
		log.Fatal(err)
	}
	const flipTH = 1500
	sp.Axes.FlipTHs = []int{flipTH}
	sp.Scale.InstrPerCore = 60_000

	fmt.Printf("FlipTH = %d, DDR5 bank under attack (time-compressed window)\n\n", flipTH)
	res, err := mithril.NewEngine(mithril.DDR5()).RunSpec(context.Background(), sp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-16s %-16s %8s %16s  %s\n", "attack", "scheme", "flips", "max disturbance", "verdict")
	for _, r := range res.Safety {
		verdict := "SAFE"
		if !r.Safe {
			verdict = "UNSAFE — bit flips!"
		}
		fmt.Printf("%-16s %-16s %8d %16.0f  %s\n", r.Attack, r.Scheme, r.Flips, r.MaxDisturbance, verdict)
	}
	fmt.Println("\nOnly the unprotected bank should flip; every deterministic scheme")
	fmt.Println("(and PARFM at its 1e-15 operating point) must keep the margin positive.")
}
