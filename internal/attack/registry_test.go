package attack

import (
	"errors"
	"sort"
	"strings"
	"testing"
)

// The sorted order of Names is a documented guarantee; the shipped
// patterns must all be listed (parameterized ones under their display
// spelling).
func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() = %v, want sorted", names)
	}
	want := []string{"blockhammer-adversarial", "decoy:<n>", "double", "multi:<n>", "single"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("pattern %q missing (have %v)", w, names)
		}
	}
	for _, info := range Patterns() {
		if info.Desc == "" {
			t.Errorf("pattern %q has no description", info.Name)
		}
	}
}

// The pattern table's invariants, one subtest each. Duplicate names are
// a compile error in the map literal.
func TestPatternTable(t *testing.T) {
	t.Run("empty name", func(t *testing.T) {
		if _, ok := patternTable[""]; ok {
			t.Error("pattern table has an empty name")
		}
	})
	t.Run("name with separator", func(t *testing.T) {
		for name := range patternTable {
			if strings.Contains(name, ":") {
				t.Errorf("pattern %q contains the %q argument separator", name, ":")
			}
		}
	})
	t.Run("nil build", func(t *testing.T) {
		for name, pat := range patternTable {
			if pat.Build == nil {
				t.Errorf("pattern %q has a nil Build", name)
			}
		}
	})
	t.Run("arg hint without check", func(t *testing.T) {
		for name, pat := range patternTable {
			if pat.ArgHint != "" && pat.Check == nil {
				t.Errorf("pattern %q has an ArgHint but no Check", name)
			}
		}
	})
	t.Run("check without arg hint", func(t *testing.T) {
		for name, pat := range patternTable {
			if pat.Check != nil && pat.ArgHint == "" {
				t.Errorf("pattern %q has a Check but no ArgHint", name)
			}
		}
	})
	t.Run("description", func(t *testing.T) {
		for name, pat := range patternTable {
			if pat.Desc == "" {
				t.Errorf("pattern %q has no description", name)
			}
		}
	})
}

// Spec validation checks attack names through Canonical, before any
// mapper exists.
func TestValidate(t *testing.T) {
	for _, ok := range []string{"single", "double", "multi:32", "multi:1", "decoy", "decoy:8", "blockhammer-adversarial"} {
		if _, err := Canonical(ok); err != nil {
			t.Errorf("Canonical(%q) = %v", ok, err)
		}
	}
	cases := []struct {
		name, want string
	}{
		{"rowpress", "unknown attack"},
		{"rowlist", "unknown attack"},
		{"multi", "victim count"},
		{"multi:x", "victim count"},
		{"multi:0", "victim count"},
		{"multi:-3", "victim count"},
		{"single:5", "takes no argument"},
		{"decoy:zero", "decoy count"},
	}
	for _, c := range cases {
		if _, err := Canonical(c.name); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Canonical(%q) = %v, want error containing %q", c.name, err, c.want)
		}
	}
	if _, err := Canonical("rowpress"); !errors.Is(err, ErrUnknownAttack) {
		t.Errorf("err = %v, want ErrUnknownAttack", err)
	}
}

// Canonical collapses spelling variants of one pattern, so axes can
// dedupe on it.
func TestCanonical(t *testing.T) {
	cases := []struct{ name, want string }{
		{"single", "single"},
		{"double", "double"},
		{"multi:8", "multi:8"},
		{"multi:08", "multi:8"},
		{"decoy", "decoy:4"},
		{"decoy:4", "decoy:4"},
		{"decoy:08", "decoy:8"},
		{"blockhammer-adversarial", "blockhammer-adversarial"},
	}
	for _, c := range cases {
		got, err := Canonical(c.name)
		if err != nil || got != c.want {
			t.Errorf("Canonical(%q) = %q, %v; want %q", c.name, got, err, c.want)
		}
	}
	if _, err := Canonical("rowpress"); !errors.Is(err, ErrUnknownAttack) {
		t.Errorf("Canonical(rowpress) err = %v, want ErrUnknownAttack", err)
	}
}

func TestNeedsOracle(t *testing.T) {
	if !NeedsOracle("blockhammer-adversarial") {
		t.Error("blockhammer-adversarial must declare NeedsOracle")
	}
	for _, name := range []string{"single", "double", "multi:8", "decoy", "no-such-pattern"} {
		if NeedsOracle(name) {
			t.Errorf("NeedsOracle(%q) = true", name)
		}
	}
}

// Build resolves each pattern to the same generator the typed
// constructors produce — names, aggressor rows, paper defaults.
func TestBuildPatterns(t *testing.T) {
	m := mapper()
	cases := []struct {
		name    string
		params  Params
		genName string
		rows    []int // expected distinct aggressor rows (unordered)
	}{
		{"single", Params{Mapper: m}, "single-sided", []int{1000}},
		{"double", Params{Mapper: m}, "double-sided", []int{999, 1001}},
		{"double", Params{Mapper: m, Row: 4000}, "double-sided", []int{3999, 4001}},
		{"multi:4", Params{Mapper: m}, "multi-sided-4", []int{2000, 2002, 2004, 2006, 2008}},
		{"decoy:2", Params{Mapper: m}, "decoy-2", []int{2999, 3001, 3096, 3104}},
		{"blockhammer-adversarial", Params{Mapper: m, Oracle: fakeThrottler{rows: []uint32{70, 71}}},
			"bh-adversarial", []int{70, 71}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			gen, err := Build(c.name, c.params)
			if err != nil {
				t.Fatal(err)
			}
			if gen.Name() != c.genName {
				t.Errorf("generator name = %q, want %q", gen.Name(), c.genName)
			}
			seen := map[int]bool{}
			for i := 0; i < 64; i++ {
				seen[m.Map(gen.Next().Addr).Row] = true
			}
			for _, r := range c.rows {
				if !seen[r] {
					t.Errorf("row %d never hammered (saw %v)", r, seen)
				}
			}
			if len(seen) != len(c.rows) {
				t.Errorf("hammered %d distinct rows %v, want %d", len(seen), seen, len(c.rows))
			}
		})
	}
}

// Registry builds must return errors, not panic, on bad coordinates —
// they are driven by spec/CLI input.
func TestBuildErrors(t *testing.T) {
	m := mapper()
	cases := []struct {
		name   string
		params Params
		want   string
	}{
		{"single", Params{Mapper: m, Row: 1 << 30}, "outside bank"},
		{"multi:40000", Params{Mapper: m}, "outside bank"},
		{"multi:9223372036854775807", Params{Mapper: m}, "more rows than"},
		{"decoy:1000000000", Params{Mapper: m}, "do not fit"},
		{"decoy", Params{Mapper: m, Row: 1<<63 - 1}, "no neighbours"},
		{"single", Params{}, "Mapper is required"},
		{"rowpress", Params{Mapper: m}, "unknown attack"},
	}
	for _, c := range cases {
		t.Run(c.name+"/"+c.want, func(t *testing.T) {
			if _, err := Build(c.name, c.params); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Build(%q, %+v) err = %v, want %q", c.name, c.params, err, c.want)
			}
		})
	}
}

// The decoy pattern must activate every decoy row twice per aggressor
// visit, so a sampling mitigation sees decoys as the hottest rows.
func TestDecoyRatioAndPlacement(t *testing.T) {
	m := mapper()
	gen, err := Build("decoy", Params{Mapper: m})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	cycle := 2 * (defaultDecoys + 1) // seq length for the default build
	for i := 0; i < 3*cycle; i++ {
		counts[m.Map(gen.Next().Addr).Row]++
	}
	for _, aggressor := range []int{2999, 3001} {
		if counts[aggressor] != 3 {
			t.Errorf("aggressor %d activated %d times, want 3", aggressor, counts[aggressor])
		}
	}
	for i := 0; i < defaultDecoys; i++ {
		d := 3000 + 96 + 8*i
		if counts[d] != 6 {
			t.Errorf("decoy %d activated %d times, want 6 (twice the aggressor rate)", d, counts[d])
		}
		if d >= 2996 && d <= 3004 {
			t.Errorf("decoy %d inside the victim's blast neighbourhood", d)
		}
	}
}
