// Package lint is mithril's repo-specific static-analysis suite: a small
// go/analysis-style framework plus the analyzers that turn the repo's
// load-bearing runtime invariants — the allocation-free steady-state hot
// path, byte-identical deterministic output, the scheme victim-slice
// ownership contract, and a production surface of only what production
// reaches — into compile-time checks. The cmd/mithrilvet
// multichecker runs every analyzer over the module and fails, go
// vet-style, on any finding.
//
// The framework is deliberately self-contained: it is built on the
// standard library's go/ast, go/parser, go/types and go/importer only
// (dependency type information is read from compiler export data produced
// by `go list -export`), so the linter needs no module dependencies and
// runs in the same offline environments the simulator does.
//
// Analysis is interprocedural: RunAnalyzers builds a module-wide call
// graph once (static calls exact; interface calls over-approximated by
// method-set matching; function-value calls by signature matching) and
// a may-block fixpoint over it, shared by every analyzer through
// Pass.Graph — the foundation under ctxflow, goleak, lockheld and
// testonly, and the call-resolution engine behind hotpathalloc's closure
// rule. testonly needs every caller, so it reports only when Load covers
// the whole root module; Load then also type-checks the bench/ module as
// roots that are never analyzed themselves.
//
// Two source annotations steer the analyzers:
//
//	//mithril:hotpath
//	    on a function declaration marks it as part of the steady-state
//	    simulation path checked by the hotpathalloc analyzer.
//
//	//mithril:allow <analyzer> [reason]
//	    on (or immediately above) a line suppresses that analyzer's
//	    findings for the line — the whitelist mechanism for deliberate,
//	    explained exceptions such as lazy one-time initialisation inside
//	    an otherwise allocation-free method. Covering a func line,
//	    "//mithril:allow testonly <reason>" also makes the function a
//	    testonly root, so what it calls is live too.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotpathMarker is the comment line that marks a function declaration as
// steady-state hot path.
const HotpathMarker = "//mithril:hotpath"

// allowPrefix starts a suppression comment: "//mithril:allow <analyzer> [reason]".
const allowPrefix = "//mithril:allow"

// An Analyzer describes one static check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer, reduced to what the suite
// needs: a name, a doc string, and a Run function reporting diagnostics
// through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package and collects
// its diagnostics. Suppression comments are applied after Run returns, so
// analyzers report unconditionally.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Index     *Index
	Graph     *CallGraph
	// Whole is the package's Package.Whole: every package of the root
	// module is loaded.
	Whole bool

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding before suppression filtering.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is one reportable analyzer result with its resolved position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the canonical file:line:col form consumed
// by editors and CI logs.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Index is the module-wide annotation index shared by every pass: which
// functions are marked //mithril:hotpath, keyed by a stable string ID
// ("pkgpath.Func" or "pkgpath.(Recv).Method") that is derivable both from
// an AST declaration and from a types.Func, so cross-package calls resolve
// against annotations in packages loaded only as export data.
type Index struct {
	Hotpath map[string]bool
}

// FuncID returns the index key for a declared function in pkgPath:
// "pkg.Name" for functions, "pkg.(Recv).Name" for methods (pointer
// receivers and type parameters are stripped).
func FuncID(pkgPath string, decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return pkgPath + "." + decl.Name.Name
	}
	return pkgPath + ".(" + recvTypeName(decl.Recv.List[0].Type) + ")." + decl.Name.Name
}

// recvTypeName extracts the bare named type from a receiver type
// expression, unwrapping pointers and generic instantiations.
func recvTypeName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// TypesFuncID returns the index key for a resolved function object, or ""
// for interface methods (dynamic dispatch — never statically resolvable to
// an annotation).
func TypesFuncID(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	recv := sig.Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	if p, okp := t.(*types.Pointer); okp {
		t = p.Elem()
	}
	switch tt := t.(type) {
	case *types.Named:
		// A method whose receiver is a named interface type is dynamic
		// dispatch too: the call site never resolves to one concrete body.
		if _, iface := tt.Underlying().(*types.Interface); iface {
			return ""
		}
		return fn.Pkg().Path() + ".(" + tt.Obj().Name() + ")." + fn.Name()
	case *types.Interface:
		return ""
	default:
		return ""
	}
}

// HotpathDecl reports whether a function declaration carries the
// //mithril:hotpath marker in its doc comment.
func HotpathDecl(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == HotpathMarker || strings.HasPrefix(text, HotpathMarker+" ") {
			return true
		}
	}
	return false
}

// suppressions maps file name -> line -> analyzer names allowed there. A
// suppression comment covers its own line and the line below it, so both
// trailing ("stmt // mithril:allow x") and preceding-line forms work.
type suppressions map[string]map[int]map[string]bool

// collectSuppressions scans a file's comments for //mithril:allow markers.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				name := rest
				if i := strings.IndexByte(rest, ' '); i >= 0 {
					name = rest[:i]
				}
				if name == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					sup[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]bool{}
					}
					byLine[line][name] = true
				}
			}
		}
	}
	return sup
}

func (s suppressions) allows(pos token.Position, analyzer string) bool {
	byLine := s[pos.Filename]
	if byLine == nil {
		return false
	}
	return byLine[pos.Line][analyzer]
}

// RunAnalyzers applies every analyzer to every package, filters suppressed
// diagnostics, and returns the surviving findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	index := BuildIndex(pkgs)
	graph := BuildCallGraph(pkgs)
	var findings []Finding
	for _, pkg := range pkgs {
		if pkg.Types == nil || pkg.RootsOnly {
			continue // loaded for annotation scanning or testonly roots only
		}
		sup := collectSuppressions(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Index:     index,
				Graph:     graph,
				Whole:     pkg.Whole,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			for _, d := range pass.diags {
				pos := pkg.Fset.Position(d.Pos)
				if sup.allows(pos, a.Name) {
					continue
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// BuildIndex collects //mithril:hotpath annotations across all loaded
// packages (the loader parses every module package in the dependency
// closure, so cross-package calls resolve even under narrow patterns).
func BuildIndex(pkgs []*Package) *Index {
	idx := &Index{Hotpath: map[string]bool{}}
	for _, pkg := range pkgs {
		pkg.addAnnotations(idx)
	}
	return idx
}

func (p *Package) addAnnotations(idx *Index) {
	for _, f := range append(p.Files, p.IndexOnlyFiles...) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if HotpathDecl(fd) {
				idx.Hotpath[FuncID(p.PkgPath, fd)] = true
			}
		}
	}
}
