package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// VictimRetain enforces the mc.Scheme ownership contract: the result of a
// Scheme's OnActivate/OnRFM must not be stored into a struct field,
// package variable or composite literal, directly or through a local that
// holds it. The returned victim slice is owned by the scheme and
// only valid until its next call; retaining callers must copy, e.g. via
// append(dst[:0], victims...) or the controller's victim pool.
var VictimRetain = &Analyzer{
	Name: "victimretain",
	Doc:  "never retain scheme-owned victim slices",
	Run:  runVictimRetain,
}

func runVictimRetain(pass *Pass) error {
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					checkVictimRetention(pass, d.Body)
				}
			case *ast.GenDecl:
				// Package-level var initialisers can also retain.
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							if isSchemeVictimCall(pass, v) {
								pass.Reportf(v.Pos(), "package variable retains a scheme-owned victim slice (copy it; see mc.Scheme)")
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// checkVictimRetention flags stores of OnActivate/OnRFM results into
// fields, package variables, or composite literals, whether the call is
// stored directly or through the locals it was bound to. Local bindings,
// returning them, and element-copying uses (append(dst, victims...)) are
// fine.
func checkVictimRetention(pass *Pass, body *ast.BlockStmt) {
	held := victimLocals(pass, body)
	victim := func(e ast.Expr) bool {
		if isSchemeVictimCall(pass, e) {
			return true
		}
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && held[pass.TypesInfo.Uses[id]]
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range node.Rhs {
				if i >= len(node.Lhs) || !victim(rhs) {
					continue
				}
				if retainingLHS(pass, node.Lhs[i]) {
					pass.Reportf(rhs.Pos(), "retains a scheme-owned victim slice beyond the next OnActivate/OnRFM call (copy it; see mc.Scheme)")
				}
			}
		case *ast.CompositeLit:
			for _, elt := range node.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if victim(v) {
					pass.Reportf(v.Pos(), "composite literal retains a scheme-owned victim slice (copy it; see mc.Scheme)")
				}
			}
		}
		return true
	})
}

// victimLocals returns the function's local variables that may hold a
// scheme-owned victim slice: those bound to an OnActivate/OnRFM result
// (by assignment or var declaration), and, to a fixed point, those bound
// to another such local.
func victimLocals(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	held := map[types.Object]bool{}
	grew := true
	bind := func(lhs, rhs ast.Expr) {
		src, isIdent := ast.Unparen(rhs).(*ast.Ident)
		if !isSchemeVictimCall(pass, rhs) && !(isIdent && held[pass.TypesInfo.Uses[src]]) {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && v.Parent() != v.Pkg().Scope() && !held[v] {
			held[v], grew = true, true
		}
	}
	for grew {
		grew = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.AssignStmt:
				if len(node.Lhs) == len(node.Rhs) {
					for i := range node.Rhs {
						bind(node.Lhs[i], node.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(node.Names) == len(node.Values) {
					for i := range node.Values {
						bind(node.Names[i], node.Values[i])
					}
				}
			}
			return true
		})
	}
	return held
}

// retainingLHS reports whether an assignment target outlives the statement
// scope: a struct field selector, an index into non-local storage, or a
// package-level variable.
func retainingLHS(pass *Pass, lhs ast.Expr) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return true
		}
		// Package-qualified var.
		if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
			return true
		}
	case *ast.IndexExpr:
		return true
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
	}
	return false
}

// isSchemeVictimCall reports whether expr is a direct x.OnActivate(...) or
// x.OnRFM(...) call returning a slice.
func isSchemeVictimCall(pass *Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "OnActivate" && sel.Sel.Name != "OnRFM" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	_, isSlice := tv.Type.Underlying().(*types.Slice)
	return isSlice
}
