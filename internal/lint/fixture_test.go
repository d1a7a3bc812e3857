package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestAnalyzerFixtures proves each analyzer both flags its violations and
// passes conforming code, analysistest-style: every fixture line carrying a
// `// want "substr" ...` comment must produce matching findings, and every
// finding must be expected. The good fixtures carry no want comments — any
// finding there is a false positive.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		dirs     []string
	}{
		{HotpathAlloc, []string{"hotpathalloc/bad", "hotpathalloc/good"}},
		{DetRange, []string{"detrange/bad", "detrange/good"}},
		{PureSim, []string{"puresim/bad", "puresim/good"}},
		{VictimRetain, []string{"victimretain/bad", "victimretain/good"}},
		{CtxFlow, []string{"ctxflow/bad", "ctxflow/good"}},
		{GoLeak, []string{"goleak/bad", "goleak/good"}},
		{LockHeld, []string{"lockheld/bad", "lockheld/good"}},
	}
	for _, tc := range cases {
		for _, dir := range tc.dirs {
			t.Run(tc.analyzer.Name+"/"+filepath.Base(dir), func(t *testing.T) {
				runFixture(t, tc.analyzer, filepath.Join("testdata", "src", filepath.FromSlash(dir)))
			})
		}
	}
}

// runFixture loads one fixture package, applies the analyzer, and checks
// the findings against the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	findings, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	wants := parseWants(t, pkg.Fset, pkg.Files)
	for _, f := range findings {
		if !consumeWant(wants, f) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for file, byLine := range wants {
		for line, substrs := range byLine {
			for _, s := range substrs {
				t.Errorf("%s:%d: expected a %s finding containing %q, got none", file, line, a.Name, s)
			}
		}
	}
}

// consumeWant matches a finding against the remaining expectations on its
// line, removing the first substring the message contains.
func consumeWant(wants map[string]map[int][]string, f Finding) bool {
	substrs := wants[f.Pos.Filename][f.Pos.Line]
	for i, s := range substrs {
		if strings.Contains(f.Message, s) {
			wants[f.Pos.Filename][f.Pos.Line] = append(substrs[:i], substrs[i+1:]...)
			if len(wants[f.Pos.Filename][f.Pos.Line]) == 0 {
				delete(wants[f.Pos.Filename], f.Pos.Line)
			}
			if len(wants[f.Pos.Filename]) == 0 {
				delete(wants, f.Pos.Filename)
			}
			return true
		}
	}
	return false
}

// wantQuoted extracts the quoted expectations of one want comment.
var wantQuoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// parseWants scans fixture comments for `// want "substr" ["substr" ...]`
// markers, keyed by file and line.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	t.Helper()
	wants := map[string]map[int][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				quoted := wantQuoted.FindAllString(text, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, q := range quoted {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: malformed want expectation %s: %v", pos.Filename, pos.Line, q, err)
					}
					if wants[pos.Filename] == nil {
						wants[pos.Filename] = map[int][]string{}
					}
					wants[pos.Filename][pos.Line] = append(wants[pos.Filename][pos.Line], s)
				}
			}
		}
	}
	return wants
}

// TestRepoCleanUnderAllAnalyzers is the self-check mirrored by CI's
// mithrilvet job: the module itself must produce zero findings.
func TestRepoCleanUnderAllAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := Load("", "mithril/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
