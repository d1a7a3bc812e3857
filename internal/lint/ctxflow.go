package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the repo's cancellation-propagation contract: every
// cancellable path from Engine entry points down to the simulator core
// must carry the caller's context, so a consumer break or client
// disconnect actually stops the work.
//
//  1. context.Background() and context.TODO() are banned outside package
//     main, tests, and //mithril:allow ctxflow sites. The library has no
//     allowed root: every library entry point takes the caller's ctx.
//  2. Everywhere, package main included: a function that receives a
//     context.Context (directly or captured from an enclosing function)
//     must thread it — minting a fresh Background/TODO root there severs
//     the cancellation chain. Passing a nil Context is flagged the same
//     way.
//  3. A context.Context must never be stored in a struct field (the
//     standard library's own rule): contexts are call-scoped, and a
//     struct-held ctx outlives the call that created it.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "thread the caller's ctx; no context.Background outside main/tests/allows; no ctx struct fields",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					checkCtxBody(pass, d.Body, isMain, hasCtxParam(pass, d.Type))
				}
			case *ast.GenDecl:
				checkCtxFields(pass, d)
			}
		}
	}
	return nil
}

// checkCtxFields flags struct fields of type context.Context in type
// declarations.
func checkCtxFields(pass *Pass, decl *ast.GenDecl) {
	ast.Inspect(decl, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			if tv, okTV := pass.TypesInfo.Types[field.Type]; okTV && isContextType(tv.Type) {
				pass.Reportf(field.Type.Pos(), "context.Context stored in a struct field (contexts are call-scoped; pass ctx as a parameter)")
			}
		}
		return true
	})
}

// checkCtxBody walks one function body. hasCtx tracks whether a
// context.Context is in scope — a parameter of this function or of any
// enclosing one (closures capture their enclosing ctx).
func checkCtxBody(pass *Pass, body ast.Node, isMain, hasCtx bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			checkCtxBody(pass, nn.Body, isMain, hasCtx || hasCtxParam(pass, nn.Type))
			return false
		case *ast.CallExpr:
			if name, isRoot := ctxRootCall(pass.TypesInfo, nn); isRoot {
				switch {
				case hasCtx:
					pass.Reportf(nn.Pos(), "context.%s severs the caller's cancellation chain (thread the ctx already in scope)", name)
				case !isMain:
					pass.Reportf(nn.Pos(), "context.%s outside package main, tests, or a //mithril:allow ctxflow site (accept a ctx parameter instead)", name)
				}
			}
			checkNilCtxArgs(pass, nn)
		}
		return true
	})
}

// checkNilCtxArgs flags passing a literal nil where the callee expects a
// context.Context.
func checkNilCtxArgs(pass *Pass, call *ast.CallExpr) {
	sig := callSignature(pass.TypesInfo, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			break
		}
		if !isContextType(params.At(i).Type()) {
			continue
		}
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && id.Name == "nil" {
			if tv, okTV := pass.TypesInfo.Types[arg]; okTV {
				if basic, okB := tv.Type.(*types.Basic); okB && basic.Kind() == types.UntypedNil {
					pass.Reportf(arg.Pos(), "nil Context passed to %s (thread the caller's ctx, or context.TODO in a documented shim)", calleeName(pass, call))
				}
			}
		}
	}
}

// calleeName renders the call target for diagnostics.
func calleeName(pass *Pass, call *ast.CallExpr) string {
	tg := pass.Graph.ResolveCall(pass.TypesInfo, call)
	if tg.Static != nil {
		return tg.Static.Name()
	}
	return "a callee"
}

// ctxRootCall reports whether call is context.Background() or
// context.TODO(), returning the function name.
func ctxRootCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name(), true
	}
	return "", false
}

// hasCtxParam reports whether a function type declares a context.Context
// parameter.
func hasCtxParam(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
