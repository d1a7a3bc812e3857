package trace

import (
	"testing"

	"mithril/internal/mc"
	"mithril/internal/timing"
)

func TestStreamSequentialAndWraps(t *testing.T) {
	s := NewStream("s", 1000, 256, 5, 0)
	a := s.Next()
	b := s.Next()
	if a.Addr != 1000 || b.Addr != 1064 {
		t.Fatalf("addresses %d, %d — want sequential lines from base", a.Addr, b.Addr)
	}
	if a.Gap != 5 {
		t.Fatalf("gap = %d, want 5", a.Gap)
	}
	s.Next()
	s.Next()
	if back := s.Next(); back.Addr != 1000 {
		t.Fatalf("wrap produced %d, want base 1000", back.Addr)
	}
}

func TestStreamWriteEvery(t *testing.T) {
	s := NewStream("s", 0, 1<<20, 0, 3)
	writes := 0
	for i := 0; i < 30; i++ {
		if s.Next().Write {
			writes++
		}
	}
	if writes != 10 {
		t.Fatalf("writes = %d, want 10 (every 3rd)", writes)
	}
}

func TestRandomStaysInFootprintAndIsDeterministic(t *testing.T) {
	a := NewRandom("r", 4096, 1<<16, 7, 0.5, 42)
	b := NewRandom("r", 4096, 1<<16, 7, 0.5, 42)
	for i := 0; i < 1000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatal("same seed must give identical streams")
		}
		if x.Addr < 4096 || x.Addr >= 4096+1<<16 {
			t.Fatalf("address %d outside footprint", x.Addr)
		}
		if x.Addr%64 != 0 {
			t.Fatalf("address %d not line aligned", x.Addr)
		}
	}
}

func TestPointerChaseSerializes(t *testing.T) {
	p := NewPointerChase("pc", 0, 1<<20, 10, 1)
	if !p.Next().Serialize {
		t.Fatal("pointer chase must serialize")
	}
}

func TestStridedPattern(t *testing.T) {
	s := NewStrided("st", 0, 1<<20, 8, 3)
	a, b := s.Next(), s.Next()
	if b.Addr-a.Addr != 8*64 {
		t.Fatalf("stride = %d bytes, want 512", b.Addr-a.Addr)
	}
}

func TestGatherScatterAlternates(t *testing.T) {
	g := NewGatherScatter("gs", 0, 1<<20, 4, 9)
	seq := 0
	for i := 0; i < 20; i += 2 {
		a := g.Next() // stream side
		_ = g.Next()  // random side
		if i > 0 && a.Addr < 1<<19 {
			seq++
		}
	}
	if seq == 0 {
		t.Fatal("stream side should walk the first half sequentially")
	}
}

func TestWorkloadsFreshReplaysIdentically(t *testing.T) {
	for _, w := range NormalWorkloads(16, 7) {
		g1 := w.Fresh()
		g2 := w.Fresh()
		if len(g1) != 16 || len(g2) != 16 {
			t.Fatalf("%s: %d generators, want 16", w.Name, len(g1))
		}
		for c := 0; c < 16; c++ {
			for i := 0; i < 50; i++ {
				if g1[c].Next() != g2[c].Next() {
					t.Fatalf("%s core %d: Fresh() streams diverge", w.Name, c)
				}
			}
		}
	}
}

func TestMultiProgrammedFootprintsDisjoint(t *testing.T) {
	gens := MixHigh(16, 1).Fresh()
	for c, g := range gens {
		lo := uint64(c) << 28
		hi := lo + (1 << 28)
		for i := 0; i < 200; i++ {
			a := g.Next().Addr
			if a < lo || a >= hi {
				t.Fatalf("core %d touched %d outside its region [%d, %d)", c, a, lo, hi)
			}
		}
	}
}

func TestRowSeriesAndActivationSeries(t *testing.T) {
	p := timing.DDR5()
	mapper := mc.NewAddressMapper(p)
	// Stream across one row: row changes rarely → few activations.
	g := NewStream("lbm", 0, 1<<24, 0, 0)
	samples := RowSeries(g, mapper, 2000)
	if len(samples) != 2000 {
		t.Fatalf("samples = %d", len(samples))
	}
	acts := ActivationSeries(samples, p.TotalBanks())
	if len(acts) == 0 || len(acts) >= len(samples)/4 {
		t.Fatalf("activations = %d of %d accesses; streaming should be row-local", len(acts), len(samples))
	}
	distinct, maxPerRow := ConcentrationStats(samples)
	if distinct == 0 || maxPerRow < 32 {
		t.Fatalf("concentration: %d rows, max %d per row — sweep should concentrate", distinct, maxPerRow)
	}
}

func TestFigure8SweepConcentratesInSmallWindows(t *testing.T) {
	// The paper's Figure 8 claim: in a small window the sweep touches few
	// rows with ~rowsize/linesize accesses each; over a large window the
	// footprint is much wider.
	p := timing.DDR5()
	mapper := mc.NewAddressMapper(p)
	g := NewStream("lbm", 0, 128<<20, 12, 4)
	small := RowSeries(g, mapper, 256)
	dSmall, maxSmall := ConcentrationStats(small)
	g2 := NewStream("lbm", 0, 128<<20, 12, 4)
	large := RowSeries(g2, mapper, 100000)
	dLarge, _ := ConcentrationStats(large)
	if dSmall > 8 {
		t.Errorf("small window touched %d rows, want concentration (≤8)", dSmall)
	}
	if maxSmall < 64 {
		t.Errorf("small-window per-row accesses = %d, want ≥64 (128 lines per 8KB row over 2 channels)", maxSmall)
	}
	if dLarge < 50*dSmall {
		t.Errorf("large window rows = %d, small = %d; sweep should widen the footprint", dLarge, dSmall)
	}
}

func TestStreamPanicsOnTinyFootprint(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tiny footprint should panic")
		}
	}()
	NewStream("s", 0, 1, 0, 0)
}
