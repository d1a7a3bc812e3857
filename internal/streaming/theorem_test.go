package streaming_test

import (
	"testing"

	"mithril/internal/analysis"
	"mithril/internal/streaming"
	"mithril/internal/timing"
)

// TestScanAndStreamSummaryTablesAgreeUnderRFM drives the scan reference and
// the Stream-Summary with Mithril's per-bank work (one Observe per ACT, a
// greedy decrement every RFMTH ACTs). Tie-breaking may pick different
// same-count entries, so the tables can diverge key-wise; what must agree is
// the number of refreshing decrements, and each table's spread must stay
// within Theorem 1's M at every step. core.Mithril holds the production table
// to the same bound in TestTheorem1BoundHoldsEmpirically. This lives in an
// external test package because analysis imports streaming.
func TestScanAndStreamSummaryTablesAgreeUnderRFM(t *testing.T) {
	const nEntry, rfmTH = 16, 32
	scan := streaming.NewCbS(nEntry)
	stream := streaming.NewSpaceSaving(nEntry)
	r := streaming.NewRand(31)
	maxSpread := analysis.BoundM(timing.DDR5(), nEntry, rfmTH)
	var scanRefreshes, streamRefreshes int
	for i := 0; i < 20000; i++ {
		row := uint32(r.Intn(40))
		scan.Observe(row)
		stream.Observe(row)
		if i%rfmTH == rfmTH-1 {
			if _, ok := scan.DecrementMaxToMin(); ok {
				scanRefreshes++
			}
			if _, ok := stream.DecrementMaxToMin(); ok {
				streamRefreshes++
			}
		}
		if float64(scan.Spread()) > maxSpread || float64(stream.Spread()) > maxSpread {
			t.Fatalf("step %d: spread exceeded theorem bound (%d / %d vs %.0f)",
				i, scan.Spread(), stream.Spread(), maxSpread)
		}
	}
	if want := 20000 / rfmTH; scanRefreshes != want || streamRefreshes != want {
		t.Fatalf("refreshing decrements: scan %d, stream %d, want %d",
			scanRefreshes, streamRefreshes, want)
	}
}
