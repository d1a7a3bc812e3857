package expspec

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/fstest"
)

// minimal returns a valid comparison spec to mutate in error cases.
func minimal() *Spec {
	return &Spec{
		Name:  "t",
		Kind:  Comparison,
		Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{
			Schemes:   []string{"mithril"},
			Workloads: []string{"mix-high"},
		},
	}
}

func TestParseValid(t *testing.T) {
	s, err := Parse([]byte(`{
		"name": "ok", "kind": "comparison",
		"scale": {"preset": "quick"},
		"axes": {"schemes": ["mithril", "parfm"], "workloads": ["normal"], "adversarial": true}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "ok" || len(s.Axes.Schemes) != 2 || !s.Axes.Adversarial {
		t.Errorf("parsed %+v", s)
	}
}

// Parse must reject unknown JSON fields: a typoed axis would otherwise
// silently shrink the grid.
func TestParseUnknownField(t *testing.T) {
	_, err := Parse([]byte(`{"name": "x", "kind": "comparison", "scale": {"preset": "quick"},
		"axes": {"schemes": ["mithril"], "worloads": ["normal"]}}`))
	if err == nil || !strings.Contains(err.Error(), "worloads") {
		t.Errorf("err = %v, want unknown-field error naming \"worloads\"", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // substring of the error
	}{
		{"missing name", func(s *Spec) { s.Name = "" }, "missing name"},
		{"unknown kind", func(s *Spec) { s.Kind = "heatmap" }, "unknown kind"},
		{"unknown preset", func(s *Spec) { s.Scale.Preset = "huge" }, "unknown preset"},
		{"negative cores", func(s *Spec) { s.Scale.Cores = -4 }, "must not be negative"},
		{"negative instr_per_core", func(s *Spec) { s.Scale.InstrPerCore = -1 }, "must not be negative"},
		{"negative time_scale", func(s *Spec) { s.Scale.TimeScale = -8 }, "must not be negative"},
		{"unknown scheme", func(s *Spec) { s.Axes.Schemes = []string{"rowpress"} }, "unknown scheme"},
		{"unknown workload", func(s *Spec) { s.Axes.Workloads = []string{"spec2017"} }, "unknown workload"},
		{"empty schemes", func(s *Spec) { s.Axes.Schemes = nil }, "non-empty schemes"},
		{"empty workloads", func(s *Spec) { s.Axes.Workloads = nil }, "non-empty workloads"},
		{"duplicate scheme", func(s *Spec) { s.Axes.Schemes = []string{"mithril", "mithril"} }, "duplicate"},
		{"duplicate flipth", func(s *Spec) { s.Axes.FlipTHs = []int{6250, 6250} }, "duplicate"},
		{"duplicate seed", func(s *Spec) { s.Axes.Seeds = []uint64{3, 3} }, "duplicate"},
		{"foreign axis", func(s *Spec) { s.Axes.AdTHs = []int{50} }, "only to configgrid/adth"},
		{"unknown column", func(s *Spec) { s.Columns = []string{"scheme", "latency"} }, "unknown column"},
		{"duplicate column", func(s *Spec) { s.Columns = []string{"perf", "perf"} }, "duplicate"},
		{"unknown attack", func(s *Spec) { s.Axes.Attacks = []string{"rowpress"} }, "unknown attack"},
		{"bad attack argument", func(s *Spec) { s.Axes.Attacks = []string{"multi:zero"} }, "victim count"},
		{"duplicate attack", func(s *Spec) { s.Axes.Attacks = []string{"double", "double"} }, "duplicate"},
		{"canonically duplicate attack", func(s *Spec) { s.Axes.Attacks = []string{"decoy", "decoy:4"} }, "duplicates"},
		{"oracle-only attack in comparison", func(s *Spec) {
			s.Axes.Attacks = []string{"blockhammer-adversarial"}
		}, "collision oracle"},
		// The explicit row-list pattern has no spec spelling: it is not in
		// the pattern table at all.
		{"rows-only attack in a spec", func(s *Spec) {
			s.Axes.Attacks = []string{"rowlist"}
		}, "unknown attack"},
		{"safety needs flipths", func(s *Spec) {
			s.Kind = SafetyKind
			s.Axes.Workloads = nil
			s.Axes.Attacks = []string{"double"}
			s.Axes.FlipTHs = nil
		}, "flipths"},
		{"safety needs attacks", func(s *Spec) {
			s.Kind = SafetyKind
			s.Axes.Workloads = nil
			s.Axes.FlipTHs = []int{2000}
		}, "non-empty attacks"},
		{"safety unknown attack", func(s *Spec) {
			s.Kind = SafetyKind
			s.Axes.Workloads = nil
			s.Axes.FlipTHs = []int{2000}
			s.Axes.Attacks = []string{"mix-high"}
		}, "unknown attack"},
		{"safety rejects workloads", func(s *Spec) {
			s.Kind = SafetyKind
			s.Axes.FlipTHs = []int{2000}
			s.Axes.Attacks = []string{"double"}
		}, "no workloads axis"},
		{"configgrid empty grid", func(s *Spec) {
			s.Kind = ConfigGrid
			s.Axes = Axes{Workloads: []string{"mix-high"}}
		}, "non-empty grid"},
		{"configgrid empty rfmths", func(s *Spec) {
			s.Kind = ConfigGrid
			s.Axes = Axes{Workloads: []string{"mix-high"}, Grid: []GridLevel{{FlipTH: 6250}}}
		}, "empty rfmths"},
		{"configgrid duplicate grid level", func(s *Spec) {
			s.Kind = ConfigGrid
			s.Axes = Axes{Workloads: []string{"mix-high"},
				Grid: []GridLevel{{FlipTH: 6250, RFMTHs: []int{64}}, {FlipTH: 6250, RFMTHs: []int{32}}}}
		}, "duplicate flipth"},
		{"adth empty adths", func(s *Spec) {
			s.Kind = AdTHSweep
			s.Axes = Axes{Configs: []ConfigPoint{{FlipTH: 6250, RFMTH: 64}}, Workloads: []string{"multi-programmed"}}
		}, "non-empty adths"},
		{"adth unknown workload", func(s *Spec) {
			s.Kind = AdTHSweep
			s.Axes = Axes{Configs: []ConfigPoint{{FlipTH: 6250, RFMTH: 64}}, AdTHs: []int{0},
				Workloads: []string{"mix-high"}}
		}, "unknown workload"},
		// Out-of-range operating points fail here, not as a silently
		// substituted threshold, a mislabelled row, or a mid-sweep error.
		{"non-positive flipth", func(s *Spec) { s.Axes.FlipTHs = []int{6250, -5} }, "FlipTH -5 must be positive"},
		{"zero flipth", func(s *Spec) { s.Axes.FlipTHs = []int{0} }, "FlipTH 0 must be positive"},
		{"negative adth", func(s *Spec) {
			s.Kind = AdTHSweep
			s.Axes = Axes{Configs: []ConfigPoint{{FlipTH: 6250, RFMTH: 64}}, AdTHs: []int{0, -7},
				Workloads: []string{"multi-programmed"}}
		}, "AdTH -7 must not be negative"},
		{"configgrid zero flipth", func(s *Spec) {
			s.Kind = ConfigGrid
			s.Axes = Axes{Workloads: []string{"mix-high"}, Grid: []GridLevel{{FlipTH: 0, RFMTHs: []int{64}}}}
		}, "must be positive"},
		{"configgrid non-positive rfmths", func(s *Spec) {
			s.Kind = ConfigGrid
			s.Axes = Axes{Workloads: []string{"mix-high"}, Grid: []GridLevel{{FlipTH: 6250, RFMTHs: []int{0, -3}}}}
		}, "rfmth 0: FlipTH and RFMTH must be positive"},
		{"adth zero rfmth", func(s *Spec) {
			s.Kind = AdTHSweep
			s.Axes = Axes{Configs: []ConfigPoint{{FlipTH: 6250, RFMTH: 0}}, AdTHs: []int{0},
				Workloads: []string{"multi-programmed"}}
		}, "rfmth 0: FlipTH and RFMTH must be positive"},
		{"adth zero flipth", func(s *Spec) {
			s.Kind = AdTHSweep
			s.Axes = Axes{Configs: []ConfigPoint{{FlipTH: 0, RFMTH: 64}}, AdTHs: []int{0},
				Workloads: []string{"multi-programmed"}}
		}, "flipth 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := minimal()
			c.mutate(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, c.want)
			}
		})
	}
}

// A safety attack whose argument is syntactically valid but whose
// coordinates fall outside the bank must fail when the runner is built,
// not rows-deep into the sweep.
func TestSafetyAttackCoordinatesFailBeforeSweep(t *testing.T) {
	s := &Spec{Name: "bad", Kind: SafetyKind, Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{Schemes: []string{"none"}, FlipTHs: []int{2000}, Attacks: []string{"multi:40000"}}}
	if err := s.Validate(); err != nil {
		t.Fatalf("multi:40000 is syntactically valid, got %v", err)
	}
	_, err := s.RunAtContext(context.Background(), QuickScale(), nil)
	if err == nil || !strings.Contains(err.Error(), "outside bank") {
		t.Errorf("RunAtContext = %v, want an outside-bank error before any simulation", err)
	}
}

// A Mithril operating point Theorem 1 cannot size a table for is rejected
// when the execution is built — before the first yield, as an
// error — instead of panicking inside the sweep when the scheme is built.
func TestInfeasibleMithrilFailsBeforeSweep(t *testing.T) {
	tinyScale := ScaleSpec{Preset: "quick", Cores: 2, InstrPerCore: 400}
	for name, s := range map[string]*Spec{
		"comparison": {Kind: Comparison, Axes: Axes{Schemes: []string{"none", "mithril"}, FlipTHs: []int{20},
			Workloads: []string{"mix-high"}}},
		"safety": {Kind: SafetyKind, Axes: Axes{Schemes: []string{"mithril+"}, FlipTHs: []int{20},
			Attacks: []string{"double"}}},
		"adth": {Kind: AdTHSweep, Axes: Axes{Configs: []ConfigPoint{{FlipTH: 20, RFMTH: 64}}, AdTHs: []int{0},
			Workloads: []string{"multi-programmed"}}},
	} {
		t.Run(name, func(t *testing.T) {
			s.Name, s.Scale = name, tinyScale
			sc, err := s.Scale.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			seq, err := s.StreamRowsAt(context.Background(), sc, nil, nil)
			if err == nil || seq != nil || !strings.Contains(err.Error(), "no feasible Mithril config for FlipTH=20") {
				t.Fatalf("StreamRowsAt = %v (seq %v), want the infeasible-config error before the first yield", err, seq != nil)
			}
			// A subset that names no Mithril cell has nothing to reject.
			if name == "comparison" {
				if _, err := s.StreamRowsAt(context.Background(), sc, []int{0}, nil); err != nil {
					t.Fatalf("unprotected row alone: %v", err)
				}
			}
		})
	}
}

func TestLoadAllDuplicateNames(t *testing.T) {
	one := `{"name": "same", "kind": "comparison", "scale": {"preset": "quick"},
		"axes": {"schemes": ["mithril"], "workloads": ["normal"]}}`
	fsys := fstest.MapFS{
		"specs/a.json": {Data: []byte(one)},
		"specs/b.json": {Data: []byte(one)},
	}
	_, err := LoadAll(fsys, "specs")
	if err == nil || !strings.Contains(err.Error(), "duplicate name") {
		t.Errorf("LoadAll = %v, want duplicate-name error", err)
	}
}

func TestScaleResolveOverrides(t *testing.T) {
	sc, err := ScaleSpec{Preset: "quick", Cores: 2, InstrPerCore: 500, Seed: 7}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Cores != 2 || sc.InstrPerCore != 500 || sc.Seed != 7 {
		t.Errorf("resolved %+v", sc)
	}
	if sc.TimeScale != QuickScale().TimeScale {
		t.Errorf("TimeScale = %d, want the preset's %d", sc.TimeScale, QuickScale().TimeScale)
	}
	if _, err := (ScaleSpec{Preset: "golden"}).Resolve(); err != nil {
		t.Errorf("golden preset: %v", err)
	}
}

// Expansion must be deterministic (the CI golden gate depends on stable
// row order) and follow the documented (seed, FlipTH, scheme, workload,
// adversarial-last) nesting.
func TestExpandDeterministicOrder(t *testing.T) {
	s := &Spec{
		Name: "order", Kind: Comparison, Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{
			Schemes:     []string{"parfm", "mithril"},
			FlipTHs:     []int{6250, 1500},
			Workloads:   []string{"normal", "multi-sided-rh"},
			Attacks:     []string{"decoy"},
			Adversarial: true,
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	sc := QuickScale()
	first := s.Expand(sc)
	second := s.Expand(sc)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("Expand is not deterministic")
	}
	want := []Cell{
		{Seed: 1, FlipTH: 6250, Scheme: "parfm", Workload: "normal"},
		{Seed: 1, FlipTH: 6250, Scheme: "parfm", Workload: "multi-sided-rh"},
		{Seed: 1, FlipTH: 6250, Scheme: "parfm", Attack: "decoy"},
		{Seed: 1, FlipTH: 6250, Scheme: "parfm", Workload: "bh-adversarial/parfm", Adversarial: true},
		{Seed: 1, FlipTH: 6250, Scheme: "mithril", Workload: "normal"},
		{Seed: 1, FlipTH: 6250, Scheme: "mithril", Workload: "multi-sided-rh"},
		{Seed: 1, FlipTH: 6250, Scheme: "mithril", Attack: "decoy"},
		{Seed: 1, FlipTH: 6250, Scheme: "mithril", Workload: "bh-adversarial/mithril", Adversarial: true},
		{Seed: 1, FlipTH: 1500, Scheme: "parfm", Workload: "normal"},
		{Seed: 1, FlipTH: 1500, Scheme: "parfm", Workload: "multi-sided-rh"},
		{Seed: 1, FlipTH: 1500, Scheme: "parfm", Attack: "decoy"},
		{Seed: 1, FlipTH: 1500, Scheme: "parfm", Workload: "bh-adversarial/parfm", Adversarial: true},
		{Seed: 1, FlipTH: 1500, Scheme: "mithril", Workload: "normal"},
		{Seed: 1, FlipTH: 1500, Scheme: "mithril", Workload: "multi-sided-rh"},
		{Seed: 1, FlipTH: 1500, Scheme: "mithril", Attack: "decoy"},
		{Seed: 1, FlipTH: 1500, Scheme: "mithril", Workload: "bh-adversarial/mithril", Adversarial: true},
	}
	if !reflect.DeepEqual(first, want) {
		t.Errorf("Expand order:\n got %v\nwant %v", first, want)
	}
}

// Without a flipths axis, comparison specs inherit the scale's sweep; the
// seeds axis multiplies the grid with seed outermost.
func TestExpandInheritsScaleAndSeeds(t *testing.T) {
	s := minimal()
	s.Axes.Seeds = []uint64{1, 2}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	sc := QuickScale() // FlipTHs {50000, 6250, 1500}
	cells := s.Expand(sc)
	if len(cells) != 2*len(sc.FlipTHs) {
		t.Fatalf("len = %d, want %d", len(cells), 2*len(sc.FlipTHs))
	}
	if cells[0].Seed != 1 || cells[len(sc.FlipTHs)].Seed != 2 {
		t.Errorf("seed is not the outermost axis: %v", cells)
	}
	if cells[0].FlipTH != sc.FlipTHs[0] {
		t.Errorf("FlipTH = %d, want scale's %d", cells[0].FlipTH, sc.FlipTHs[0])
	}
}

func TestExpandOtherKinds(t *testing.T) {
	grid := &Spec{Name: "g", Kind: ConfigGrid, Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{Workloads: []string{"mix-high"},
			Grid: []GridLevel{{FlipTH: 12500, RFMTHs: []int{512, 256}}, {FlipTH: 1500, RFMTHs: []int{512, 32}}}}}
	if err := grid.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := grid.Expand(QuickScale())
	// (1500, 512) is analytically infeasible at these parameters (Theorem
	// 1 has no table size), so Expand excludes it: the returned cells pair
	// one-to-one with the rows a run emits.
	want := []Cell{
		{Seed: 1, FlipTH: 12500, RFMTH: 512, Workload: "mix-high"},
		{Seed: 1, FlipTH: 12500, RFMTH: 256, Workload: "mix-high"},
		{Seed: 1, FlipTH: 1500, RFMTH: 32, Workload: "mix-high"},
	}
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("configgrid cells = %v, want %v (infeasible (1500,512) excluded)", cells, want)
	}

	saf := &Spec{Name: "s", Kind: SafetyKind, Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{Schemes: []string{"none", "mithril"}, FlipTHs: []int{2000},
			Attacks: []string{"double", "multi:32"}}}
	if err := saf.Validate(); err != nil {
		t.Fatal(err)
	}
	cells = saf.Expand(QuickScale())
	// Attack outermost, schemes inner — the goldens pin this order.
	if len(cells) != 4 || cells[0].Attack != "double" || cells[1].Scheme != "mithril" ||
		cells[2].Attack != "multi:32" {
		t.Errorf("safety cells = %v", cells)
	}
}

func TestDefaultColumnsPerKind(t *testing.T) {
	adth := &Spec{Kind: AdTHSweep, Axes: Axes{Workloads: []string{"multi-programmed", "multi-threaded"}}}
	got := kindTable[adth.Kind].defaultColumns(adth)
	want := []string{"flipth", "rfmth", "adth", "energy:multi-programmed", "energy:multi-threaded", "nentry"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("adth defaults = %v, want %v", got, want)
	}
	if cols := kindTable[Comparison].defaultColumns(minimal()); cols[0] != "scheme" || len(cols) != 7 {
		t.Errorf("comparison defaults = %v", cols)
	}
}

// TestScaleValidate pins the scale guard: an out-of-range core count, a
// non-positive instruction budget, or a time scale that breaks the timing
// set is rejected with ErrInvalidScale by Validate and by both executor
// entry points before any row runs — never a panic inside the simulator
// or a mid-stream failure.
func TestScaleValidate(t *testing.T) {
	with := func(edit func(*Scale)) Scale {
		sc := QuickScale()
		edit(&sc)
		return sc
	}
	cases := []struct {
		name string
		sc   Scale
		ok   bool
	}{
		{"quick", QuickScale(), true},
		{"max cores", with(func(sc *Scale) { sc.Cores = 1<<16 - 1 }), true},
		{"zero cores", with(func(sc *Scale) { sc.Cores = 0 }), false},
		{"too many cores", with(func(sc *Scale) { sc.Cores = 70000 }), false},
		{"zero instructions", with(func(sc *Scale) { sc.InstrPerCore = 0 }), false},
		{"negative instructions", with(func(sc *Scale) { sc.InstrPerCore = -5 }), false},
		{"huge time scale", with(func(sc *Scale) { sc.TimeScale = 100000 }), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.sc.Validate()
			if c.ok {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, ErrInvalidScale) {
				t.Fatalf("Validate = %v, want ErrInvalidScale", err)
			}
			if _, err := tiny().StreamRowsAt(context.Background(), c.sc, nil, nil); !errors.Is(err, ErrInvalidScale) {
				t.Errorf("StreamRowsAt = %v, want ErrInvalidScale before the first row", err)
			}
			if _, err := tiny().RunAtContext(context.Background(), c.sc, nil); !errors.Is(err, ErrInvalidScale) {
				t.Errorf("RunAtContext = %v, want ErrInvalidScale", err)
			}
		})
	}
}
