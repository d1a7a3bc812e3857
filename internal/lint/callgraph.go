package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the suite's interprocedural layer: a module-wide call graph
// built once per RunAnalyzers invocation over every type-checked package,
// shared by all analyzers through Pass.Graph. Static calls resolve exactly
// (the same staticCallee/TypesFuncID resolution the intraprocedural
// analyzers always used); dynamic calls are over-approximated:
//
//   - interface method calls match every declared method in the loaded
//     packages with the same name whose receiver type (or its pointer)
//     implements the interface;
//   - function-value calls match every declared function or method with an
//     identical signature.
//
// Over-approximation errs toward more edges, so reachability facts derived
// from the graph ("this call may block") are sound for the analyzers that
// consume them, at the cost of occasional deliberate-and-annotated false
// positives (see //mithril:allow).

// A CallKind classifies how a call site was resolved.
type CallKind int

const (
	// CallUnknown marks non-calls in call syntax: conversions and builtins.
	CallUnknown CallKind = iota
	// CallStatic is an exactly resolved call to one declared function.
	CallStatic
	// CallIface is an interface method call, over-approximated by
	// method-set matching.
	CallIface
	// CallFuncValue is a call through a function value (closure, field,
	// parameter), over-approximated by signature matching.
	CallFuncValue
)

// CallTargets is the resolution of one call site.
type CallTargets struct {
	Kind CallKind
	// Static is the exact callee for CallStatic, or the interface method
	// object for CallIface. Nil for CallFuncValue and CallUnknown.
	Static *types.Func
	// IDs are the FuncID keys the call may reach, sorted. Exactly one
	// (possibly outside the loaded packages) for CallStatic; the
	// over-approximated candidate set for CallIface/CallFuncValue.
	IDs []string
}

// A CGCall is one call site inside a node, in source order.
type CGCall struct {
	Call    *ast.CallExpr
	Targets CallTargets
}

// A CGNode is one declared function with a body.
type CGNode struct {
	ID    string
	Decl  *ast.FuncDecl
	Pkg   *Package
	Calls []CGCall
}

// methodCand is a declared method considered during interface
// over-approximation.
type methodCand struct {
	id   string
	recv types.Type
}

// sigCand is a declared function or method considered during
// function-value over-approximation.
type sigCand struct {
	id  string
	sig *types.Signature
}

// A CallGraph holds every declared function in the loaded packages and the
// over-approximated call edges between them, plus the derived
// may-block fixpoint consumed by lockheld.
type CallGraph struct {
	Nodes map[string]*CGNode

	methodsByName map[string][]methodCand
	funcsBySig    []sigCand

	blockingOnce bool
	blocking     map[string]string // FuncID -> reason the function may block

	pkgs []*Package
	live map[string]bool // FuncID -> reachable from a root (testonly.go)
}

// BuildCallGraph constructs the interprocedural layer over every
// type-checked package. Function literals are attributed to their
// enclosing declaration: a call made inside a closure is an edge out of
// the function that created the closure (an over-approximation — the
// closure may escape — but the sound direction for may-block facts).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Nodes:         map[string]*CGNode{},
		methodsByName: map[string][]methodCand{},
		pkgs:          pkgs,
	}
	// Pass 1: declare nodes and collect dynamic-dispatch candidates.
	for _, pkg := range pkgs {
		if pkg.Types == nil || pkg.RootsOnly {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				id := FuncID(pkg.PkgPath, fd)
				g.Nodes[id] = &CGNode{ID: id, Decl: fd, Pkg: pkg}
				fn, okFn := pkg.Info.Defs[fd.Name].(*types.Func)
				if !okFn {
					continue
				}
				sig, okSig := fn.Type().(*types.Signature)
				if !okSig {
					continue
				}
				g.funcsBySig = append(g.funcsBySig, sigCand{id: id, sig: sig})
				if recv := sig.Recv(); recv != nil {
					g.methodsByName[fn.Name()] = append(g.methodsByName[fn.Name()],
						methodCand{id: id, recv: recv.Type()})
				}
			}
		}
	}
	// Pass 2: resolve every call site.
	for _, pkg := range pkgs {
		if pkg.Types == nil || pkg.RootsOnly {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				node := g.Nodes[FuncID(pkg.PkgPath, fd)]
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, okCall := n.(*ast.CallExpr)
					if !okCall {
						return true
					}
					tg := g.ResolveCall(pkg.Info, call)
					if tg.Kind != CallUnknown {
						node.Calls = append(node.Calls, CGCall{Call: call, Targets: tg})
					}
					return true
				})
			}
		}
	}
	return g
}

// ResolveCall is the suite's single call-resolution engine. Static calls
// resolve exactly; interface calls over-approximate by method-set
// matching; function-value calls over-approximate by signature matching.
func (g *CallGraph) ResolveCall(info *types.Info, call *ast.CallExpr) CallTargets {
	// Conversions and builtins are call syntax, not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return CallTargets{Kind: CallUnknown}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return CallTargets{Kind: CallUnknown}
		}
	}

	if fn := staticCallee(info, call); fn != nil {
		if fid := TypesFuncID(fn); fid != "" {
			return CallTargets{Kind: CallStatic, Static: fn, IDs: []string{fid}}
		}
		// Interface method: every same-named declared method whose
		// receiver (or its pointer) satisfies the interface is a
		// potential target.
		return CallTargets{Kind: CallIface, Static: fn, IDs: g.ifaceTargets(fn)}
	}

	// Function value (closure, field, parameter): every declared function
	// or method with an identical signature is a potential target.
	sig := callSignature(info, call)
	if sig == nil {
		return CallTargets{Kind: CallUnknown}
	}
	return CallTargets{Kind: CallFuncValue, IDs: g.sigTargets(sig)}
}

// ifaceTargets returns the sorted candidate FuncIDs for an interface
// method call.
func (g *CallGraph) ifaceTargets(m *types.Func) []string {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var ids []string
	for _, cand := range g.methodsByName[m.Name()] {
		t := cand.recv
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			ids = append(ids, cand.id)
			continue
		}
		if p, isPtr := t.(*types.Pointer); isPtr && types.Implements(p.Elem(), iface) {
			ids = append(ids, cand.id)
		}
	}
	sort.Strings(ids)
	return ids
}

// sigTargets returns the sorted candidate FuncIDs for a function-value
// call with the given signature.
func (g *CallGraph) sigTargets(sig *types.Signature) []string {
	var ids []string
	for _, cand := range g.funcsBySig {
		if types.Identical(cand.sig, sig) {
			ids = append(ids, cand.id)
		}
	}
	sort.Strings(ids)
	return ids
}

// BlockReason reports why the named function may block — a channel
// operation, a select, a Wait, sleeping, I/O, a simulator entry point, or
// a transitive call to any of those — or "" if it provably performs none.
// Goroutine bodies spawned by the function do not count: the spawner
// itself does not block on them (goleak owns goroutine exit proofs).
func (g *CallGraph) BlockReason(id string) string {
	g.ensureBlocking()
	return g.blocking[id]
}

// blockingExternalPkgs are packages any call into which counts as
// potentially blocking I/O. sync and time are handled by name below so
// that Mutex operations themselves stay out of the blocking set.
var blockingExternalPkgs = map[string]bool{
	"os":       true,
	"net":      true,
	"net/http": true,
	"io":       true,
	"io/fs":    true,
	"bufio":    true,
}

// externalBlockReason classifies a resolved callee declared outside the
// loaded packages.
func externalBlockReason(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case blockingExternalPkgs[path]:
		return fmt.Sprintf("performs I/O (%s.%s)", path, name)
	case path == "sync" && name == "Wait":
		return "waits (sync ...Wait)"
	case path == "time" && name == "Sleep":
		return "sleeps (time.Sleep)"
	case path == "fmt" && strings.HasPrefix(name, "Fprint"),
		path == "fmt" && strings.HasPrefix(name, "Fscan"):
		return fmt.Sprintf("performs I/O (fmt.%s)", name)
	}
	return ""
}

// simEntryPrefix marks the simulator entry points: reaching one with a
// lock held would serialize entire simulations behind the mutex.
const simEntryPrefix = "mithril/internal/sim.Run"

// ensureBlocking computes the may-block fixpoint once: direct reasons per
// node (channel operations, selects, blocking external calls, simulator
// entry points), then propagation over call edges to convergence, with a
// sorted worklist so findings are deterministic.
func (g *CallGraph) ensureBlocking() {
	if g.blockingOnce {
		return
	}
	g.blockingOnce = true
	g.blocking = map[string]string{}
	for id, node := range g.Nodes {
		if strings.HasPrefix(id, simEntryPrefix) {
			g.blocking[id] = "is a simulator entry point"
			continue
		}
		if reason := directBlockReason(node); reason != "" {
			g.blocking[id] = reason
		}
	}
	// Propagate callee->caller to fixpoint. The graph is small (one
	// module); iterate rounds over sorted node IDs until stable.
	ids := make([]string, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			if g.blocking[id] != "" {
				continue
			}
			for _, c := range g.Nodes[id].Calls {
				if inGoroutine(g.Nodes[id].Decl.Body, c.Call) {
					continue
				}
				for _, target := range c.Targets.IDs {
					if g.blocking[target] != "" {
						g.blocking[id] = "may block: calls " + target
						changed = true
						break
					}
				}
				if c.Targets.Kind == CallStatic && g.blocking[id] == "" {
					if reason := externalBlockReason(c.Targets.Static); reason != "" {
						g.blocking[id] = reason
						changed = true
					}
				}
				if g.blocking[id] != "" {
					break
				}
			}
		}
	}
}

// directBlockReason scans one body for operations that block the calling
// goroutine, skipping go-statement subtrees (the spawned goroutine blocks,
// not the spawner) and treating a select with a default clause as
// non-blocking (only its case bodies are scanned).
func directBlockReason(node *CGNode) string {
	var reason string
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch nn := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			reason = "performs a channel send"
			return false
		case *ast.UnaryExpr:
			if nn.Op == token.ARROW {
				reason = "performs a channel receive"
				return false
			}
		case *ast.SelectStmt:
			if !selectHasDefault(nn) {
				reason = "blocks in a select"
				return false
			}
			for _, clause := range nn.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok {
					for _, stmt := range cc.Body {
						ast.Inspect(stmt, walk)
					}
				}
			}
			return false
		case *ast.RangeStmt:
			if isChanExpr(node.Pkg.Info, nn.X) {
				reason = "ranges over a channel"
				return false
			}
		}
		return true
	}
	ast.Inspect(node.Decl.Body, walk)
	return reason
}

// selectHasDefault reports whether a select statement has a default
// clause (making it non-blocking).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// inGoroutine reports whether a call site lies inside a go-statement
// subtree of body (the call runs on a different goroutine, so it is not a
// blocking fact about body's own frame).
func inGoroutine(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if gs.Call == call {
			return true // the spawn itself evaluates in the spawner's frame
		}
		if gs.Pos() <= call.Pos() && call.End() <= gs.End() {
			found = true
		}
		return false
	})
	return found
}

// isChanExpr reports whether an expression has channel type.
func isChanExpr(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
