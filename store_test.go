package mithril

// Three-way equivalence for the PR 9 result store: every shipped quick
// spec runs storeless, against a cold disk store, and again against the
// warmed store reopened from disk — and the full-precision golden
// renderings must match byte for byte. The storeless run is the reference;
// any divergence indicts the row key (two different rows colliding) or the
// payload codec (a row drifting through encode/decode). A fourth pass with
// a half-warmed in-memory store checks the mixed case: cached and
// simulated rows interleave inside one sweep and the output still cannot
// tell them apart.

import (
	"context"
	"io/fs"
	"path"
	"strings"
	"sync"
	"testing"

	"mithril/internal/expspec"
	"mithril/internal/resultstore"
	"mithril/internal/stats"
)

func TestStoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	names, err := fs.Glob(SpecsFS(), "specs/*.quick.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no shipped quick specs found")
	}
	sc := expspec.GoldenScale()
	ctx := context.Background()
	for _, specPath := range names {
		name := strings.TrimSuffix(path.Base(specPath), ".json")
		t.Run(name, func(t *testing.T) {
			sp, err := LoadShippedSpec(name)
			if err != nil {
				t.Fatal(err)
			}

			// Reference: no store at all.
			bareRes, err := NewEngine(DDR5()).RunSpecAt(ctx, sp, sc)
			if err != nil {
				t.Fatalf("storeless: %v", err)
			}
			bare := bareRes.Golden()
			total := bareRes.RowsCached + bareRes.RowsSimulated
			if bareRes.RowsCached != 0 || bareRes.RowsSimulated == 0 {
				t.Fatalf("storeless run reported cached=%d simulated=%d",
					bareRes.RowsCached, bareRes.RowsSimulated)
			}

			// Cold disk store: every row simulates, every row is written.
			dir := t.TempDir()
			disk, err := OpenResultStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			st := &recordingStore{Store: disk}
			coldRes, err := NewEngine(DDR5(), WithResultStore(st)).RunSpecAt(ctx, sp, sc)
			if err != nil {
				t.Fatalf("cold store: %v", err)
			}
			if cold := coldRes.Golden(); cold != bare {
				t.Errorf("cold store diverges from storeless; diff (-bare +cold):\n%s",
					stats.DiffLines(bare, cold))
			}
			if coldRes.RowsCached != 0 || coldRes.RowsSimulated != total {
				t.Errorf("cold store: cached=%d simulated=%d, want 0/%d",
					coldRes.RowsCached, coldRes.RowsSimulated, total)
			}
			if err := disk.Close(); err != nil {
				t.Fatal(err)
			}

			// Warm store, fresh process boundary: reload from disk and
			// reproduce the bytes, simulating only rows the store cannot
			// hold (trace-replay workloads hash file paths, not contents,
			// so they are never cacheable and always re-simulate).
			st2, err := OpenResultStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			storeStats, err := st2.Stats()
			if err != nil {
				t.Fatal(err)
			}
			cacheable := storeStats.Records
			warmRes, err := NewEngine(DDR5(), WithResultStore(st2)).RunSpecAt(ctx, sp, sc)
			if err != nil {
				t.Fatalf("warm store: %v", err)
			}
			if warm := warmRes.Golden(); warm != bare {
				t.Errorf("warm store diverges from storeless; diff (-bare +warm):\n%s",
					stats.DiffLines(bare, warm))
			}
			if warmRes.RowsCached != cacheable || warmRes.RowsSimulated != total-cacheable {
				t.Errorf("warm store: cached=%d simulated=%d, want %d/%d",
					warmRes.RowsCached, warmRes.RowsSimulated, cacheable, total-cacheable)
			}

			// Half-warm: copy alternate records into a fresh memory store —
			// the interrupted-sweep shape, where cached hits and live
			// simulation interleave within a single dispatch.
			half := resultstore.NewMem()
			for i, rec := range st.recs {
				if i%2 == 0 {
					if err := half.Put(rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			halfRes, err := NewEngine(DDR5(), WithResultStore(half)).RunSpecAt(ctx, sp, sc)
			if err != nil {
				t.Fatalf("half-warm store: %v", err)
			}
			if got := halfRes.Golden(); got != bare {
				t.Errorf("half-warm store diverges from storeless; diff (-bare +half):\n%s",
					stats.DiffLines(bare, got))
			}
			if halfRes.RowsCached == 0 || halfRes.RowsSimulated == 0 ||
				halfRes.RowsCached+halfRes.RowsSimulated != total {
				t.Errorf("half-warm store: cached=%d simulated=%d, want a strict split of %d",
					halfRes.RowsCached, halfRes.RowsSimulated, total)
			}
		})
	}
}

// recordingStore keeps every record Put through it, in Put order.
type recordingStore struct {
	resultstore.Store
	mu   sync.Mutex
	recs []resultstore.Record
}

func (r *recordingStore) Put(rec resultstore.Record) error {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
	return r.Store.Put(rec)
}
