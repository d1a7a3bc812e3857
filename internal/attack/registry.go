package attack

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mithril/internal/mc"
	"mithril/internal/trace"
)

// Params configures one attack-pattern build. Only Mapper is required;
// every other field has a pattern default (documented per pattern) chosen
// to reproduce the paper's evaluation configuration, so a spec can name an
// attack without spelling out DRAM coordinates.
type Params struct {
	// Mapper translates rows to physical addresses (required).
	Mapper *mc.AddressMapper
	// Channel and Bank locate the attacked bank (default 0, 0).
	Channel, Bank int
	// Row is the pattern's target row — the victim for single/double/
	// decoy, the first aggressor for multi, the benign hot row for
	// blockhammer-adversarial. Zero selects the pattern's default.
	Row int
	// Oracle is the deployed scheme's collision oracle, when it exposes
	// one (BlockHammer); blockhammer-adversarial degrades to a benign
	// row walk without it.
	Oracle Throttler
}

// Pattern is one attack family of the pattern table. Build may be invoked
// with an argument when the pattern is parameterized (ArgHint non-empty):
// "multi:24" reaches the "multi" pattern with arg "24".
type Pattern struct {
	// Desc is the one-line catalog description (CLI, serve, README).
	Desc string
	// ArgHint names the parameter in catalogs ("<n>" renders the display
	// name "multi:<n>") and marks the pattern as accepting an argument.
	// Patterns without an ArgHint reject any argument.
	ArgHint string
	// Check validates an argument without building (spec validation runs
	// it) and returns its canonical spelling — defaults applied, numbers
	// normalized — so "decoy" and "decoy:4", or "multi:8" and "multi:08",
	// dedupe to one pattern. Required exactly when ArgHint is set; Build
	// receives the canonical argument.
	Check func(arg string) (canon string, err error)
	// Build constructs a fresh generator from the canonical argument.
	// Generators are stateful, so every simulation needs its own Build
	// call.
	Build func(arg string, p Params) (trace.Generator, error)
	// NeedsOracle marks patterns that are only meaningful with a
	// collision oracle (Params.Oracle). Axes that cannot supply one —
	// a comparison spec's attacks axis builds its workloads before any
	// scheme exists — reject such patterns instead of silently running
	// the oracle-less fallback.
	NeedsOracle bool
}

// Display is the catalog spelling: the table name plus the argument hint
// for parameterized patterns ("multi:<n>").
func (pat Pattern) display(name string) string {
	if pat.ArgHint == "" {
		return name
	}
	return name + ":" + pat.ArgHint
}

// PatternInfo describes one table pattern for catalogs.
type PatternInfo struct {
	// Name is the display spelling ("multi:<n>" for parameterized
	// patterns, the bare table name otherwise).
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// ErrUnknownAttack is returned (wrapped, with the valid patterns listed)
// by Build and Canonical for a name whose base is not in the pattern
// table. Match with errors.Is.
var ErrUnknownAttack = errors.New("unknown attack pattern")

// Names lists the table patterns' display spellings in sorted order
// ("multi:<n>" for parameterized patterns). The ordering is a documented
// guarantee (and pinned by a test), like mitigation.Names.
func Names() []string {
	infos := Patterns()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return names
}

// Patterns lists the table patterns with their one-line
// descriptions, sorted by name (the same guarantee as Names).
func Patterns() []PatternInfo {
	infos := make([]PatternInfo, 0, len(patternTable))
	for n, pat := range patternTable {
		infos = append(infos, PatternInfo{Name: pat.display(n), Desc: pat.Desc})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// split separates "multi:24" into base "multi" and arg "24" (arg is empty
// when there is no separator).
func split(name string) (base, arg string) {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, ""
}

// lookup resolves a (possibly parameterized) name against the table,
// validates its argument syntax, and returns the canonical argument.
func lookup(name string) (Pattern, string, error) {
	base, arg := split(name)
	pat, ok := patternTable[base]
	if !ok {
		return Pattern{}, "", fmt.Errorf("attack: %w %q (valid: %s)", ErrUnknownAttack, name, strings.Join(Names(), ", "))
	}
	if pat.Check == nil {
		if arg != "" {
			return Pattern{}, "", fmt.Errorf("attack: %q takes no argument (got %q)", base, arg)
		}
		return pat, "", nil
	}
	canon, err := pat.Check(arg)
	if err != nil {
		return Pattern{}, "", fmt.Errorf("attack: %s: %w", name, err)
	}
	return pat, canon, nil
}

// Canonical returns the canonical spelling of a (possibly
// parameterized) name: defaults applied and arguments normalized, so
// "decoy" and "decoy:4" — or "multi:8" and "multi:08" — canonicalize
// identically. Spec validation dedupes the attacks axis on this, because
// two spellings of one pattern would emit indistinguishable rows.
func Canonical(name string) (string, error) {
	base, _ := split(name)
	_, canon, err := lookup(name)
	if err != nil {
		return "", err
	}
	if canon == "" {
		return base, nil
	}
	return base + ":" + canon, nil
}

// NeedsOracle reports whether the named pattern declares itself
// oracle-only (false for unknown names — Canonical owns that error).
func NeedsOracle(name string) bool {
	base, _ := split(name)
	return patternTable[base].NeedsOracle
}

// Build constructs a fresh generator for the named pattern: "single",
// "double", "multi:<n>", "decoy"/"decoy:<n>", or
// "blockhammer-adversarial". Generators are stateful — build one per
// simulation. An unknown name yields an error wrapping ErrUnknownAttack
// that lists the valid patterns.
func Build(name string, p Params) (trace.Generator, error) {
	pat, arg, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if p.Mapper == nil {
		return nil, fmt.Errorf("attack: %s: Params.Mapper is required", name)
	}
	return pat.Build(arg, p)
}

// rowOr substitutes a pattern's default target row for the zero value.
func rowOr(p Params, def int) int {
	if p.Row != 0 {
		return p.Row
	}
	return def
}

// checkRows rejects aggressor rows outside the bank before the typed
// constructors would panic: table builds are driven by spec/CLI input,
// so bad coordinates must surface as errors, not crashes.
func checkRows(p Params, rows ...int) error {
	limit := p.Mapper.Params().Rows
	for _, r := range rows {
		if r < 0 || r >= limit {
			return fmt.Errorf("row %d outside bank of %d rows", r, limit)
		}
	}
	return nil
}

// checkCount parses a strictly positive decimal argument and returns it
// re-formatted, so leading zeros canonicalize away.
func checkCount(what string) func(arg string) (string, error) {
	return func(arg string) (string, error) {
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 {
			return "", fmt.Errorf("bad %s %q (want a positive integer)", what, arg)
		}
		return strconv.Itoa(n), nil
	}
}

// Paper-default target rows. Single and double hammer around row 1000 and
// multi starts at 2000 (the coordinates of the safety sweep, Section
// VI-A); decoy sits at 3000 so its decoy walk stays clear of both; the
// BlockHammer adversary aims at hot row 512, matching the Figure 10(c)
// benign service row.
const (
	defaultSingleRow = 1000
	defaultDoubleRow = 1000
	defaultMultiRow  = 2000
	defaultDecoyRow  = 3000
	defaultBHRow     = 512
)

// defaultDecoys is the decoy-row count when "decoy" is named without an
// argument.
const defaultDecoys = 4

// patternTable is the fixed attack-pattern table, keyed by base name. A
// name must not contain ":" (it separates the argument), and ArgHint and
// Check are set together; TestPatternTable checks both.
var patternTable = map[string]Pattern{
	"single": {
		Desc: "single-sided RowHammer: one aggressor row activated at maximum rate (default row 1000)",
		Build: func(_ string, p Params) (trace.Generator, error) {
			row := rowOr(p, defaultSingleRow)
			if err := checkRows(p, row); err != nil {
				return nil, err
			}
			return NewSingleSided(p.Mapper, p.Channel, p.Bank, row), nil
		},
	},
	"double": {
		Desc: "double-sided RowHammer: both neighbours of one victim row (default victim 1000)",
		Build: func(_ string, p Params) (trace.Generator, error) {
			victim := rowOr(p, defaultDoubleRow)
			if err := checkRows(p, victim-1, victim+1); err != nil {
				return nil, err
			}
			return NewDoubleSided(p.Mapper, p.Channel, p.Bank, victim), nil
		},
	},
	"multi": {
		Desc:    "TRRespass-style multi-sided RowHammer: n victims between n+1 equally spaced aggressors (default first row 2000)",
		ArgHint: "<n>",
		Check:   checkCount("victim count"),
		Build: func(arg string, p Params) (trace.Generator, error) {
			n, _ := strconv.Atoi(arg) // Check canonicalized arg
			if rows := p.Mapper.Params().Rows; n >= rows {
				// Also keeps first+2*n below from overflowing.
				return nil, fmt.Errorf("%d victims need more rows than a bank of %d", n, rows)
			}
			first := rowOr(p, defaultMultiRow)
			if err := checkRows(p, first, first+2*n); err != nil {
				return nil, err
			}
			return NewMultiSided(p.Mapper, p.Channel, p.Bank, first, n), nil
		},
	},
	"decoy": {
		Desc:    "TRR-evading double-sided hammer hidden behind n hot decoy rows that absorb sampled mitigations (default victim 3000, n=4)",
		ArgHint: "<n>",
		Check: func(arg string) (string, error) {
			if arg == "" {
				// Plain "decoy" canonicalizes to the default count.
				return strconv.Itoa(defaultDecoys), nil
			}
			return checkCount("decoy count")(arg)
		},
		Build: func(arg string, p Params) (trace.Generator, error) {
			n, _ := strconv.Atoi(arg) // Check canonicalized arg
			victim := rowOr(p, defaultDecoyRow)
			return NewDecoy(p.Mapper, p.Channel, p.Bank, victim, n)
		},
	},
	"blockhammer-adversarial": {
		Desc:        "BlockHammer performance adversary: hammers rows that collide with a benign hot row in the deployed scheme's filters (default hot row 512)",
		NeedsOracle: true,
		Build: func(_ string, p Params) (trace.Generator, error) {
			row := rowOr(p, defaultBHRow)
			if err := checkRows(p, row); err != nil {
				return nil, err
			}
			return NewBlockHammerAdversary(p.Mapper, p.Channel, p.Bank, row, p.Oracle), nil
		},
	},
}
