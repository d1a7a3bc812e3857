package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one loaded package. Target packages (those matching the Load
// patterns) carry parsed files and full type information; module packages
// pulled in only as dependencies carry IndexOnlyFiles — parsed for
// annotation scanning, with their type information read from export data
// by the packages that import them.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	IndexOnlyFiles []*ast.File

	// Whole marks a target package loaded together with every other
	// package of the root module: testonly reports only then, because a
	// narrower load cannot see every caller.
	Whole bool
	// RootsOnly marks a package of the bench module, type-checked so
	// that testonly counts what it references as roots. No analyzer runs
	// on it and no finding lands in it.
	RootsOnly bool
}

// rootModule is the module whose dead code testonly reports; benchModule
// is the directory of the module nested in it (bench/ replaces rootModule
// with ../), whose references are testonly roots. A run from inside
// bench/ never reports testonly findings.
const (
	rootModule  = "mithril"
	benchModule = "bench"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Module     *listModule
	Error      *listPkgError
}

type listModule struct {
	Path string
	Dir  string
	Main bool
}

type listPkgError struct {
	Err string
}

// Load loads the packages matching patterns (go list syntax, resolved in
// dir — empty means the current directory) and type-checks each from
// source. Dependency type information comes from compiler export data:
// `go list -export` builds it into the build cache and reports the file
// per package, so loading works offline and without any module
// dependencies. Module packages in the dependency closure that do not
// match the patterns are still parsed (not type-checked) so their
// //mithril:hotpath annotations are visible to cross-package call checks.
// When the patterns cover the whole root module, its packages are marked
// Whole and the bench module's packages are appended RootsOnly.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	pkgs, err := loadListed(listed, false)
	if err != nil {
		return nil, err
	}
	modDir := wholeRootModule(dir, patterns, listed)
	if modDir == "" {
		return pkgs, nil
	}
	for _, p := range pkgs {
		p.Whole = p.Types != nil
	}
	bench, err := goList(filepath.Join(modDir, benchModule), []string{"./..."})
	if err != nil {
		return nil, err
	}
	roots, err := loadListed(bench, true)
	if err != nil {
		return nil, err
	}
	return append(pkgs, roots...), nil
}

// loadListed parses and type-checks the packages of one go list run.
// With rootsOnly, dependency packages are dropped and the targets are
// marked RootsOnly.
func loadListed(listed []*listPkg, rootsOnly bool) ([]*Package, error) {
	exports := map[string]string{}
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(exp)
	})
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard || (rootsOnly && lp.DepOnly) {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		files, err := parseFiles(fset, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		if lp.DepOnly {
			pkgs = append(pkgs, &Package{PkgPath: lp.ImportPath, Dir: lp.Dir, Fset: fset, IndexOnlyFiles: files})
			continue
		}
		pkg, err := check(fset, lp.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, &Package{
			PkgPath: lp.ImportPath,
			Dir:     lp.Dir,
			Fset:    fset,
			Files:   files,
			Types:   pkg.Types,
			Info:    pkg.Info,

			RootsOnly: rootsOnly,
		})
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// wholeRootModule returns the root module's directory when the patterns
// cover all of it — "mithril/...", or "./..." run from its directory —
// and "" otherwise.
func wholeRootModule(dir string, patterns []string, listed []*listPkg) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	for _, lp := range listed {
		if m := lp.Module; m != nil && m.Main && m.Path == rootModule {
			if slices.Contains(patterns, rootModule+"/...") || (slices.Contains(patterns, "./...") && abs == m.Dir) {
				return m.Dir
			}
			return ""
		}
	}
	return ""
}

// goList runs `go list -e -json -deps -export` and decodes its package
// stream.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=Dir,ImportPath,Name,Export,Standard,DepOnly,GoFiles,Module,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var listed []*listPkg
	for {
		lp := &listPkg{}
		if err := dec.Decode(lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list output: %w", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// checked pairs a type-checked package with its resolved expression info.
type checked struct {
	Types *types.Package
	Info  *types.Info
}

func check(fset *token.FileSet, pkgPath string, files []*ast.File, imp types.Importer) (checked, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return checked{}, fmt.Errorf("lint: type-check %s: %w", pkgPath, err)
	}
	return checked{Types: pkg, Info: info}, nil
}
