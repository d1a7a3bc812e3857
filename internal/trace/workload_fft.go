package trace

import "fmt"

// FFT is the SPLASH-2 FFT-like multithreaded kernel: all threads stride a
// shared footprint with butterfly-style strides.
func FFT(threads int, seed uint64) Workload {
	return Workload{
		Name: "fft",
		Fresh: func() []Generator {
			gens := make([]Generator, threads)
			const foot = 512 << 20
			for i := 0; i < threads; i++ {
				// Per-thread partition plus power-of-two stride.
				base := uint64(i) * (foot / uint64(threads))
				gens[i] = NewStrided(fmt.Sprintf("fft-%d", i), base, foot/uint64(threads), 1<<uint(3+i%3), 16)
			}
			return gens
		},
	}
}
