package trace

import "fmt"

// MixBlend mixes memory-intensive and compute-bound cores (the paper's
// randomly selected blend).
func MixBlend(cores int, seed uint64) Workload {
	return Workload{
		Name: "mix-blend",
		Fresh: func() []Generator {
			gens := make([]Generator, cores)
			for i := 0; i < cores; i++ {
				base := coreRegion(i)
				switch i % 4 {
				case 0:
					gens[i] = NewStream(fmt.Sprintf("lbm-%d", i), base, 128<<20, 12, 4)
				case 1:
					gens[i] = NewComputeBound(fmt.Sprintf("leela-%d", i), base, seed+uint64(i))
				case 2:
					gens[i] = NewPointerChase(fmt.Sprintf("xz-%d", i), base, 64<<20, 40, seed+uint64(i))
				default:
					gens[i] = NewComputeBound(fmt.Sprintf("povray-%d", i), base, seed+uint64(i))
				}
			}
			return gens
		},
	}
}
