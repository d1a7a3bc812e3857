package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TestOnly keeps the production surface to what production runs: it
// reports every non-test function or method that no root reaches. Test
// files are never loaded, so a function only tests call is as unreachable
// as one nothing calls. References are followed through types.Info.Uses
// (calls, function values, method values, package-level variable
// initializers) from these roots:
//
//   - main in a main package, and every init function;
//   - everything the bench/ module references (loaded RootsOnly: never
//     analyzed, never reported in);
//   - every method named like an interface method that live code
//     references. Matching by name over-approximates the call graph's
//     ifaceTargets, which misses methods promoted from embedded or
//     generic types and types seen through export data;
//   - methods of a standard-library interface the standard library
//     calls itself (error and stdlibIfaces) that the receiver implements;
//   - any function that "//mithril:allow testonly <reason>" covers (the
//     comment on or just above its func line), so its callees are live
//     too.
//
// It reports only when every package of the root module is loaded
// (Package.Whole): under a narrower load a caller may simply be missing.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "every non-test function must be reachable from main, init, bench/, an interface call or an allow",
	Run:  runTestOnly,
}

func runTestOnly(pass *Pass) error {
	if !pass.Whole {
		return nil
	}
	live := pass.Graph.liveFuncs()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || live[FuncID(pass.Pkg.Path(), fd)] {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				name = recvTypeName(fd.Recv.List[0].Type) + "." + name
			}
			pass.Reportf(fd.Name.Pos(), "%s is reached only from tests or from nothing: delete it, move it into a _test.go file, or mark it //mithril:allow testonly <reason>", name)
		}
	}
	return nil
}

// refSite is syntax whose references make their targets live once the
// site itself is live.
type refSite struct {
	pkg  *Package
	node ast.Node
}

// liveFuncs computes, once, the set of function, method and package-level
// variable IDs reachable from the roots.
func (g *CallGraph) liveFuncs() map[string]bool {
	if g.live != nil {
		return g.live
	}
	sites := map[string][]refSite{} // ID -> the syntax it names
	byName := map[string][]string{} // "." + method name -> method IDs
	var roots []string
	ifaces := importedStdlibIfaces(g.pkgs)
	add := func(id string, site refSite, root bool) {
		sites[id] = append(sites[id], site) // several init funcs or _ vars share an ID
		if root {
			roots = append(roots, id)
		}
	}
	for _, pkg := range g.pkgs {
		if pkg.Types == nil {
			continue
		}
		sup := collectSuppressions(pkg.Fset, pkg.Files)
		for _, file := range pkg.Files {
			if pkg.RootsOnly {
				add(pkg.PkgPath, refSite{pkg, file}, true)
				continue
			}
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					id := FuncID(pkg.PkgPath, d)
					entry := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Types.Name() == "main")
					add(id, refSite{pkg, d}, entry || sup.allows(pkg.Fset.Position(d.Pos()), "testonly") || stdlibMethod(pkg.Info, d, ifaces))
					if d.Recv != nil {
						byName["."+d.Name.Name] = append(byName["."+d.Name.Name], id)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						vs := spec.(*ast.ValueSpec)
						for _, name := range vs.Names {
							add(pkg.PkgPath+"."+name.Name, refSite{pkg, vs}, name.Name == "_")
						}
					}
				}
			}
		}
	}
	live := map[string]bool{}
	var work []string
	mark := func(id string) {
		if !live[id] {
			live[id] = true
			work = append(work, id)
		}
	}
	for _, id := range roots {
		mark(id)
	}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, m := range byName[id] {
			mark(m)
		}
		for _, site := range sites[id] {
			markRefs(site, mark)
		}
	}
	g.live = live
	return live
}

// markRefs marks every function, method and package-level variable the
// site references. An interface method marks "." + its name, which
// liveFuncs expands to every method of that name.
func markRefs(site refSite, mark func(string)) {
	ast.Inspect(site.node, func(n ast.Node) bool {
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		switch obj := site.pkg.Info.Uses[ident].(type) {
		case *types.Func:
			fn := obj.Origin()
			if id := TypesFuncID(fn); id != "" {
				mark(id)
			} else {
				mark("." + fn.Name())
			}
		case *types.Var:
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				mark(obj.Pkg().Path() + "." + obj.Name())
			}
		}
		return true
	})
}

// stdlibIfaces names, by package path, the standard-library interfaces
// whose methods the standard library calls itself (error is universal).
var stdlibIfaces = map[string][]string{
	"fmt":            {"Stringer"},
	"encoding/json":  {"Marshaler", "Unmarshaler"},
	"net/http":       {"Handler"},
	"sort":           {"Interface"},
	"container/heap": {"Interface"},
}

// importedStdlibIfaces returns error plus every stdlibIfaces interface a
// loaded package imports.
func importedStdlibIfaces(pkgs []*Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.Types == nil || pkg.RootsOnly {
			continue
		}
		for _, imp := range pkg.Types.Imports() {
			if !seen[imp.Path()] {
				seen[imp.Path()] = true
				for _, name := range stdlibIfaces[imp.Path()] {
					ifaces = append(ifaces, imp.Scope().Lookup(name).Type().Underlying().(*types.Interface))
				}
			}
		}
	}
	return ifaces
}

// stdlibMethod reports whether a method declaration is a method of one of
// ifaces that its receiver type implements.
func stdlibMethod(info *types.Info, decl *ast.FuncDecl, ifaces []*types.Interface) bool {
	fn, ok := info.Defs[decl.Name].(*types.Func)
	if !ok || decl.Recv == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
	}
	return false
}
