package lint

// All returns the full analyzer suite in its canonical order — what
// cmd/mithrilvet runs and the self-check test asserts clean. The first
// four are the intraprocedural PR 6 suite; ctxflow, goleak, and lockheld
// ride the interprocedural call-graph layer (see callgraph.go).
func All() []*Analyzer {
	return []*Analyzer{HotpathAlloc, DetRange, PureSim, VictimRetain, CtxFlow, GoLeak, LockHeld}
}
