package expspec

import (
	"context"
	"fmt"
	"strings"

	"mithril/internal/analysis"
	"mithril/internal/attack"
	"mithril/internal/mc"
	"mithril/internal/mitigation"
	"mithril/internal/stats"
	"mithril/internal/timing"
	"mithril/internal/trace"
)

// comparisonKind measures schemes × FlipTHs × workloads as normalized
// performance/energy/area points (Figures 10 and 11).
type comparisonKind struct{ points[PerfPoint] }

// PerfPoint is one (scheme, FlipTH, workload) measurement.
type PerfPoint struct {
	Scheme              string
	FlipTH              int
	RFMTH               int
	Workload            string
	Seed                uint64
	RelativePerformance float64 // % of unprotected aggregate IPC
	EnergyOverheadPct   float64
	TableKB             float64
	Safe                bool
}

// String renders the point for logs.
func (p PerfPoint) String() string {
	return fmt.Sprintf("%-12s FlipTH=%-6d %-16s perf=%6.2f%% energy=+%5.2f%% table=%6.2fKB safe=%v",
		p.Scheme, p.FlipTH, p.Workload, p.RelativePerformance, p.EnergyOverheadPct, p.TableKB, p.Safe)
}

// Benign workload names resolve through the workload table in
// internal/trace (trace.BuildWorkload), which also understands the
// "trace:<path>" replay form; attack names resolve through the pattern
// table in internal/attack (attack.Build). This package adds only the
// two comparison meta-workloads that depend on the experiment scale:
// "normal" is the scale's benign set reduced to one geomean row;
// "multi-sided-rh" is the Figure 10(b) attack.
const (
	normalSet    = "normal"
	multiSidedRH = "multi-sided-rh"
)

func (comparisonKind) validate(a *Axes) error {
	if len(a.Schemes) == 0 {
		return fmt.Errorf("comparison needs a non-empty schemes axis")
	}
	if len(a.Workloads) == 0 && len(a.Attacks) == 0 && !a.Adversarial {
		return fmt.Errorf("comparison needs a non-empty workloads or attacks axis (or adversarial: true)")
	}
	for _, w := range a.Workloads {
		if err := validateComparisonWorkload(w); err != nil {
			return err
		}
	}
	for _, at := range a.Attacks {
		// Comparison attack workloads are built before any scheme
		// exists, so no collision oracle can be wired in; silently
		// running the oracle-less fallback would measure the wrong
		// thing, so oracle-only patterns are rejected here.
		if attack.NeedsOracle(at) {
			return fmt.Errorf("attack %q needs the deployed scheme's collision oracle; use \"adversarial\": true for the per-scheme adversarial workload", at)
		}
	}
	if len(a.Grid) > 0 || len(a.Configs) > 0 || len(a.AdTHs) > 0 {
		return fmt.Errorf("grid/configs/adths axes apply only to configgrid/adth kinds")
	}
	return nil
}

// validateComparisonWorkload accepts the meta-workloads plus anything the
// workload table can build; its error lists the meta names too, so a
// typo of "normal" is steered back to the full vocabulary.
func validateComparisonWorkload(name string) error {
	if name == normalSet || name == multiSidedRH {
		return nil
	}
	if err := trace.ValidateWorkloadName(name); err != nil {
		return fmt.Errorf("%w; comparison also accepts %q and %q", err, normalSet, multiSidedRH)
	}
	return nil
}

func (comparisonKind) expand(s *Spec, sc Scale, seed uint64, cells []Cell) []Cell {
	flipths := s.Axes.FlipTHs
	if len(flipths) == 0 {
		flipths = sc.FlipTHs
	}
	for _, flipTH := range flipths {
		for _, scheme := range s.Axes.Schemes {
			for _, w := range s.Axes.Workloads {
				cells = append(cells, Cell{Seed: seed, FlipTH: flipTH, Scheme: scheme, Workload: w})
			}
			for _, a := range s.Axes.Attacks {
				cells = append(cells, Cell{Seed: seed, FlipTH: flipTH, Scheme: scheme, Attack: a})
			}
			if s.Axes.Adversarial {
				cells = append(cells, Cell{Seed: seed, FlipTH: flipTH, Scheme: scheme, Adversarial: true,
					Workload: "bh-adversarial/" + scheme})
			}
		}
	}
	return cells
}

// comparisonRows runs comparison rows from the workloads prepare built:
// each cell's member workloads ("normal" has several, every other cell
// one), keyed by workloadKeyOf. Adversarial cells have none prepared —
// their workload is aimed at the scheme instance the row builds.
type comparisonRows struct {
	x         *Execution
	workloads memo[workloadKey, []trace.Workload]
}

func (comparisonKind) mithrilPoint(sc Scale, c Cell) (mitigation.Options, bool) {
	return schemeMithrilPoint(sc, c)
}

func (comparisonKind) prepare(x *Execution, rows []int) (rowFunc, error) {
	cr := &comparisonRows{x: x, workloads: memo[workloadKey, []trace.Workload]{}}
	for _, i := range rows {
		c := x.cells[i]
		if c.Adversarial {
			continue
		}
		if _, err := cr.workloads.get(workloadKeyOf(c), func() ([]trace.Workload, error) {
			return cr.build(c)
		}); err != nil {
			return nil, err
		}
	}
	return cr.run, nil
}

// build resolves a non-adversarial cell's member workloads.
func (cr *comparisonRows) build(c Cell) ([]trace.Workload, error) {
	sc := cr.x.sc
	var w trace.Workload
	var err error
	switch {
	case c.Attack != "":
		w, err = attackWorkload(sc, c.Seed, c.Attack)
	case c.Workload == normalSet:
		return normalWorkloads(sc, c.Seed), nil
	case c.Workload == multiSidedRH:
		w = multiSidedWorkload(sc, c.Seed)
	default:
		w, err = trace.BuildWorkload(c.Workload, sc.Cores, c.Seed)
	}
	return []trace.Workload{w}, err
}

// run measures one output row: a single workload cell, the per-scheme
// BlockHammer-collision adversarial cell, or the whole "normal" benign set
// geomean-reduced to one point.
//
// The "normal" row runs its member workloads serially inside the one row
// job — a deliberate trade: the output row is the streaming unit (a
// partially-measured geomean is meaningless to a consumer), at the cost
// of intra-row parallelism. Sweeps keep their cross-row fan-out, which
// dominates at real grid sizes.
func (cr *comparisonRows) run(ctx context.Context, c Cell) (Row, error) {
	if c.Workload == normalSet {
		return cr.normal(ctx, c)
	}
	x := cr.x
	scheme, err := x.buildScheme(c.Scheme, c.FlipTH, c.Seed)
	if err != nil {
		return Row{}, err
	}
	var w trace.Workload
	var id string
	if c.Adversarial {
		w, id = adversarialWorkload(x.sc, c.Seed, scheme)
	} else {
		w = cr.workloads[workloadKeyOf(c)][0]
		id = w.Name
	}
	pt, err := x.measure(ctx, scheme, c.Seed, c.FlipTH, w, id)
	if err != nil {
		return Row{}, err
	}
	pt.TableKB = schemeTableKB(c.Scheme, c.FlipTH)
	return Row{Perf: &pt}, nil
}

// normal measures every member of the "normal" set under its own fresh
// scheme instance and reduces them to one point.
func (cr *comparisonRows) normal(ctx context.Context, c Cell) (Row, error) {
	ws := cr.workloads[workloadKeyOf(c)]
	var perfs []float64
	var energySum float64
	safe := true
	for _, w := range ws {
		scheme, err := cr.x.buildScheme(c.Scheme, c.FlipTH, c.Seed)
		if err != nil {
			return Row{}, err
		}
		pt, err := cr.x.measure(ctx, scheme, c.Seed, c.FlipTH, w, w.Name)
		if err != nil {
			return Row{}, err
		}
		perfs = append(perfs, pt.RelativePerformance)
		energySum += pt.EnergyOverheadPct
		safe = safe && pt.Safe
	}
	return Row{Perf: &PerfPoint{
		Scheme: c.Scheme, FlipTH: c.FlipTH, Workload: normalSet, Seed: c.Seed,
		RelativePerformance: stats.Geomean(perfs),
		EnergyOverheadPct:   energySum / float64(len(ws)),
		TableKB:             schemeTableKB(c.Scheme, c.FlipTH),
		Safe:                safe,
	}}, nil
}

// normalWorkloads returns the benign workload set for a scale (two mixes at
// quick scale; the paper's five at full scale).
func normalWorkloads(sc Scale, seed uint64) []trace.Workload {
	if sc.Cores < 16 {
		return []trace.Workload{trace.MixHigh(sc.Cores, seed), trace.FFT(sc.Cores, seed)}
	}
	return trace.NormalWorkloads(sc.Cores, seed)
}

// multiSidedWorkload builds the Figure 10(b) workload: benign cores plus
// one multi-sided attacker (32 victims at full scale).
func multiSidedWorkload(sc Scale, seed uint64) trace.Workload {
	mapper := mc.NewAddressMapper(sc.Params())
	n := sc.attackCores()
	benign := trace.MixHigh(n, seed)
	victims := sc.multiSidedVictims()
	return trace.Workload{
		Name:      multiSidedRH,
		Attackers: 1,
		Fresh: func() []trace.Generator {
			gens := benign.Fresh()
			gens[len(gens)-1] = attack.NewMultiSided(mapper, 1, 7, 4000, victims)
			return gens
		},
	}
}

// attackWorkload builds one comparison attacks-axis workload: the benign
// mix-high cores with the last core replaced by the named registry
// pattern at its paper-default coordinates — the same arrangement as
// multi-sided-rh, for any registered attack. The workload is named after
// the built generator ("multi:8" measures as workload "multi-sided-8"),
// so baseline-cache keys and output rows are distinct per pattern. The
// pattern is built once up front to surface bad names/arguments before
// the sweep starts; Fresh rebuilds it per simulation because generators
// are stateful.
func attackWorkload(sc Scale, seed uint64, name string) (trace.Workload, error) {
	mapper := mc.NewAddressMapper(sc.Params())
	n := sc.attackCores()
	benign := trace.MixHigh(n, seed)
	gen, err := attack.Build(name, attack.Params{Mapper: mapper})
	if err != nil {
		return trace.Workload{}, err
	}
	return trace.Workload{
		Name:      gen.Name(),
		Attackers: 1,
		Fresh: func() []trace.Generator {
			gens := benign.Fresh()
			g, err := attack.Build(name, attack.Params{Mapper: mapper})
			if err != nil {
				// Build is deterministic and succeeded above.
				panic(fmt.Sprintf("expspec: attack %q failed on rebuild: %v", name, err))
			}
			gens[len(gens)-1] = g
			return gens
		},
	}, nil
}

// adversarialWorkload builds the Figure 10(c) workload: benign cores with
// one hot-row service core, plus a BlockHammer-collision adversary aimed at
// the service core's rows. Against non-throttling schemes the adversary's
// walk is harmless background traffic. The adversary's rows are searched
// once per cell and every Fresh builds its generator from them. The second
// result is the workload's generator identity: the name carries the
// scheme, but the rows are all that vary with it, so schemes that yield
// the same rows share one baseline.
func adversarialWorkload(sc Scale, seed uint64, scheme mc.Scheme) (trace.Workload, string) {
	p := sc.Params()
	mapper := mc.NewAddressMapper(p)
	n := sc.attackCores()
	benign := trace.MixHigh(n, seed)
	victimCore := n - 2
	if victimCore < 0 {
		victimCore = 0
	}
	base := uint64(victimCore) << 28
	loc := mapper.Map(base)
	rows := adversaryRows(mapper, loc, scheme)
	return trace.Workload{
		Name:      "bh-adversarial/" + scheme.Name(),
		Attackers: 1,
		Fresh: func() []trace.Generator {
			gens := benign.Fresh()
			// The service core strides an 8 MB object with a prime stride:
			// cache-hostile, so its rows keep re-activating — throttling
			// them (or escalating to the whole thread) hurts directly.
			gens[victimCore] = trace.NewStrided("service", base, 8<<20, 257, 6)
			// The adversary hammers rows that collide with the service
			// core's hot rows in the deployed scheme's filters.
			gens[len(gens)-1] = attack.NewRowList("bh-adversarial", mapper, loc.Channel, loc.Bank, rows)
			return gens
		},
	}, adversaryID(rows)
}

// adversaryID is an adversarial workload's generator identity. Like the
// workload names that key every other baseline it must name one set of
// generators; the bracketed row list keeps it apart from those names.
func adversaryID(rows []int) string { return fmt.Sprint("bh-adversarial", rows) }

// adversaryRows picks the adversary's rows: those colliding with the
// service core's first two hot rows in its first bank, or a fixed walk
// when the scheme exposes no collision oracle.
func adversaryRows(mapper *mc.AddressMapper, loc mc.Location, scheme mc.Scheme) []int {
	var rows []int
	if th, ok := scheme.(attack.Throttler); ok {
		for i := 0; i < 2; i++ {
			for _, r := range th.CollidingRows(loc.GlobalBank, uint32(loc.Row+i), 4) {
				rows = append(rows, int(r))
			}
		}
	}
	if len(rows) == 0 {
		for i := 0; i < 16; i++ {
			rows = append(rows, (loc.Row+64+8*i)%mapper.Params().Rows)
		}
	}
	return rows
}

// schemeTableKB reports the per-bank counter table area for the scheme at
// a FlipTH level (Figure 10(e)/Table IV models).
func schemeTableKB(name string, flipTH int) float64 {
	p := timing.DDR5()
	switch name {
	case "graphene":
		return analysis.GrapheneTableKB(p, flipTH)
	case "twice":
		return analysis.TWiCeTableKB(p, flipTH)
	case "cbt":
		return analysis.CBTTableKB(p, flipTH)
	case "blockhammer":
		return analysis.BlockHammerTableKB(flipTH)
	case "mithril", "mithril+":
		kb, ok := analysis.MithrilTableKB(p, flipTH, mitigation.PaperRFMTH(flipTH), 0)
		if !ok {
			return 0
		}
		return kb
	default:
		return 0
	}
}

var comparisonDefaults = []string{"scheme", "flipth", "workload", "perf", "energy", "tablekb", "safe"}

func (comparisonKind) defaultColumns(*Spec) []string { return comparisonDefaults }

var comparisonColumns = []column{
	{"scheme", "scheme", "%v", func(r *Result, i int) any { return r.Perf[i].Scheme }},
	{"flipth", "FlipTH", "%v", func(r *Result, i int) any { return r.Perf[i].FlipTH }},
	{"rfmth", "RFMTH", "%v", func(r *Result, i int) any { return r.Perf[i].RFMTH }},
	{"workload", "workload", "%v", func(r *Result, i int) any { return r.Perf[i].Workload }},
	{"seed", "seed", "%v", func(r *Result, i int) any { return r.Perf[i].Seed }},
	{"perf", "perf%", "%.2f", func(r *Result, i int) any { return r.Perf[i].RelativePerformance }},
	{"energy", "energy+%", "%.2f", func(r *Result, i int) any { return r.Perf[i].EnergyOverheadPct }},
	{"tablekb", "tableKB", "%.2f", func(r *Result, i int) any { return r.Perf[i].TableKB }},
	{"safe", "safe", "%v", func(r *Result, i int) any { return r.Perf[i].Safe }},
}

func (comparisonKind) columns(*Spec) []column { return comparisonColumns }

func (comparisonKind) golden(b *strings.Builder, r *Result, i int) {
	p := &r.Perf[i]
	fmt.Fprintf(b, "%s flipTH=%d rfmTH=%d workload=%s perf=%g energy=%g tableKB=%g safe=%v\n",
		p.Scheme, p.FlipTH, p.RFMTH, p.Workload,
		p.RelativePerformance, p.EnergyOverheadPct, p.TableKB, p.Safe)
}
