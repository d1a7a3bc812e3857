package trace

import "fmt"

// MixHigh is the paper's memory-intensive multi-programmed mix: every core
// runs a high-MPKI kernel (streams, random walks, large sweeps).
func MixHigh(cores int, seed uint64) Workload {
	return Workload{
		Name: "mix-high",
		Fresh: func() []Generator {
			gens := make([]Generator, cores)
			for i := 0; i < cores; i++ {
				base := coreRegion(i)
				switch i % 4 {
				case 0:
					gens[i] = NewStream(fmt.Sprintf("lbm-%d", i), base, 128<<20, 12, 4)
				case 1:
					gens[i] = NewRandom(fmt.Sprintf("mcf-%d", i), base, 192<<20, 10, 0.25, seed+uint64(i))
				case 2:
					gens[i] = NewStrided(fmt.Sprintf("fotonik-%d", i), base, 96<<20, 33, 14)
				default:
					gens[i] = NewGatherScatter(fmt.Sprintf("roms-%d", i), base, 128<<20, 11, seed+uint64(i))
				}
			}
			return gens
		},
	}
}
