package lint

// All returns the full analyzer suite in its canonical order — what
// cmd/mithrilvet runs and the self-check test asserts clean. The first
// four are intraprocedural; ctxflow, goleak, and lockheld ride the
// interprocedural call-graph layer (see callgraph.go), and testonly
// computes whole-module reachability over it (see testonly.go).
func All() []*Analyzer {
	return []*Analyzer{HotpathAlloc, DetRange, PureSim, VictimRetain, CtxFlow, GoLeak, LockHeld, TestOnly}
}
