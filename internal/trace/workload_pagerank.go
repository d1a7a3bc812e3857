package trace

import "fmt"

// PageRank is the GAP PageRank-like kernel: sequential edge sweeps with
// random vertex gathers over a shared graph.
func PageRank(threads int, seed uint64) Workload {
	return Workload{
		Name: "pagerank",
		Fresh: func() []Generator {
			gens := make([]Generator, threads)
			for i := 0; i < threads; i++ {
				// Shared graph: all threads over the same region.
				gens[i] = NewGatherScatter(fmt.Sprintf("pr-%d", i), 0, 768<<20, 14, seed+uint64(i)*7919)
			}
			return gens
		},
	}
}
