package trace

import "fmt"

// Radix is the SPLASH-2 RADIX-like kernel: streaming reads with scattered
// bucket writes.
func Radix(threads int, seed uint64) Workload {
	return Workload{
		Name: "radix",
		Fresh: func() []Generator {
			gens := make([]Generator, threads)
			const foot = 512 << 20
			for i := 0; i < threads; i++ {
				base := uint64(i) * (foot / uint64(threads))
				gens[i] = NewGatherScatter(fmt.Sprintf("radix-%d", i), base, foot/uint64(threads), 13, seed+uint64(i))
			}
			return gens
		},
	}
}
