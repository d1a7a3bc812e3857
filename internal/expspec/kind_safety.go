package expspec

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"mithril/internal/attack"
	"mithril/internal/mc"
	"mithril/internal/mitigation"
	"mithril/internal/sim"
	"mithril/internal/trace"
)

// safetyKind attacks schemes × attack patterns in the full simulator and
// reports the fault-model verdicts (the safety sweep).
type safetyKind struct{ points[SafetyResult] }

// SafetyResult is one scheme × attack verdict.
type SafetyResult struct {
	Scheme         string
	Attack         string
	FlipTH         int
	Seed           uint64
	Flips          int
	MaxDisturbance float64
	Safe           bool
}

func (safetyKind) validate(a *Axes) error {
	if len(a.Schemes) == 0 {
		return fmt.Errorf("safety needs a non-empty schemes axis")
	}
	if len(a.FlipTHs) == 0 {
		return fmt.Errorf("safety needs a non-empty flipths axis")
	}
	if len(a.Workloads) > 0 {
		return fmt.Errorf("safety takes no workloads axis — name its attack patterns on the attacks axis (known: %v)", attack.Names())
	}
	if len(a.Attacks) == 0 {
		return fmt.Errorf("safety needs a non-empty attacks axis (known: %v)", attack.Names())
	}
	if a.Adversarial || len(a.Grid) > 0 || len(a.Configs) > 0 || len(a.AdTHs) > 0 {
		return fmt.Errorf("safety accepts only schemes/flipths/attacks/seeds axes")
	}
	return nil
}

// expand puts attacks outside schemes: the goldens pin this order.
func (safetyKind) expand(s *Spec, _ Scale, seed uint64, cells []Cell) []Cell {
	for _, flipTH := range s.Axes.FlipTHs {
		for _, a := range s.Axes.Attacks {
			for _, scheme := range s.Axes.Schemes {
				cells = append(cells, Cell{Seed: seed, FlipTH: flipTH, Scheme: scheme, Attack: a})
			}
		}
	}
	return cells
}

// prepare trial-builds every pattern the rows name (sans oracle), so bad
// coordinates — an out-of-bank multi:<n>, say — fail before the sweep,
// exactly as comparison specs fail in attackWorkload.
func (safetyKind) prepare(x *Execution, rows []int) (rowFunc, error) {
	mapper := mc.NewAddressMapper(x.sc.Params())
	built := memo[string, bool]{}
	feasible := memo[mitigation.Options, bool]{}
	for _, i := range rows {
		c := x.cells[i]
		if err := x.checkMithril(feasible, c.Scheme, mitigation.Options{FlipTH: c.FlipTH}); err != nil {
			return nil, err
		}
		if _, err := built.get(c.Attack, func() (bool, error) {
			_, err := attack.Build(c.Attack, attack.Params{Mapper: mapper})
			return true, err
		}); err != nil {
			return nil, err
		}
	}
	return func(ctx context.Context, c Cell) (Row, error) { return safetyRow(ctx, x, mapper, c) }, nil
}

// safetyRow attacks one scheme with one registered attack pattern in the
// full simulator and reports the fault-model verdict. The deployed
// scheme's collision oracle (when it exposes one) is handed to the
// pattern build, so oracle-driven patterns like blockhammer-adversarial
// aim at the actual filters under test. The reported Attack is the built
// generator's display name ("multi:32" reports as "multi-sided-32"),
// which keeps the pre-registry golden lines byte-identical.
//
// Background core first, attacker last: the run ends when the benign core
// finishes even if the attacker is throttled to a crawl. The background
// must be memory-bound (footprint ≫ LLC) so the attacker gets a realistic
// time window.
func safetyRow(ctx context.Context, x *Execution, mapper *mc.AddressMapper, c Cell) (Row, error) {
	scheme, err := x.buildScheme(c.Scheme, c.FlipTH, c.Seed)
	if err != nil {
		return Row{}, err
	}
	oracle, _ := scheme.(attack.Throttler)
	gen, err := attack.Build(c.Attack, attack.Params{Mapper: mapper, Oracle: oracle})
	if err != nil {
		return Row{}, err
	}
	cfg := BaseSimConfig(c.FlipTH, x.sc)
	cfg.Scheme = scheme
	cfg.Workload = []trace.Generator{trace.NewStream("bg", 1<<28, 64<<20, 10, 4), gen}
	cfg.InstrPerCore = x.sc.InstrPerCore * attackInstrFactor
	cfg.RequireCores = 1 // benign core only
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return Row{}, err
	}
	return Row{Safety: &SafetyResult{
		Scheme: c.Scheme, Attack: gen.Name(), FlipTH: c.FlipTH, Seed: c.Seed,
		Flips: res.Safety.Flips, MaxDisturbance: res.Safety.MaxDisturbance,
		Safe: res.Safety.Safe(),
	}}, nil
}

var safetyDefaults = []string{"attack", "scheme", "flips", "maxdisturbance", "verdict"}

func (safetyKind) defaultColumns(*Spec) []string { return safetyDefaults }

var safetyColumns = []column{
	{"attack", "attack", "%v", func(r *Result, i int) any { return r.Safety[i].Attack }},
	{"scheme", "scheme", "%v", func(r *Result, i int) any { return r.Safety[i].Scheme }},
	{"flipth", "FlipTH", "%v", func(r *Result, i int) any { return r.Safety[i].FlipTH }},
	{"seed", "seed", "%v", func(r *Result, i int) any { return r.Safety[i].Seed }},
	{"flips", "flips", "%v", func(r *Result, i int) any { return r.Safety[i].Flips }},
	{"maxdisturbance", "max disturbance", "%.0f", func(r *Result, i int) any { return r.Safety[i].MaxDisturbance }},
	{"safe", "safe", "%v", func(r *Result, i int) any { return r.Safety[i].Safe }},
	{"verdict", "verdict", "%v", func(r *Result, i int) any { return verdict(r.Safety[i].Safe) }},
}

func (safetyKind) columns(*Spec) []column { return safetyColumns }

func verdict(safe bool) string {
	if safe {
		return "SAFE"
	}
	return "UNSAFE"
}

// sortTable orders the table by (attack, scheme), like the CLI always has.
func (safetyKind) sortTable(r *Result, order []int) {
	s := r.Safety
	sort.SliceStable(order, func(a, b int) bool {
		if s[order[a]].Attack != s[order[b]].Attack {
			return s[order[a]].Attack < s[order[b]].Attack
		}
		return s[order[a]].Scheme < s[order[b]].Scheme
	})
}

func (safetyKind) golden(b *strings.Builder, r *Result, i int) {
	s := &r.Safety[i]
	fmt.Fprintf(b, "%s attack=%s flipTH=%d flips=%d maxDisturbance=%g safe=%v\n",
		s.Scheme, s.Attack, s.FlipTH, s.Flips, s.MaxDisturbance, s.Safe)
}
