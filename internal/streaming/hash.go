package streaming

// splitmix64 is the SplitMix64 finalizer, used as the base mixing function
// for all sketch hashing in this package. It is deterministic, stdlib-free,
// and passes avalanche tests, which keeps sketches reproducible across runs.
//
//mithril:hotpath
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a tiny deterministic pseudo-random source (xorshift64*) used by the
// probabilistic mitigations (PARA, PARFM). It is seeded explicitly so that
// every experiment is reproducible.
type Rand struct{ state uint64 }

// NewRand returns a deterministic generator. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	return &Rand{state: seed}
}

// Uint64 returns the next pseudo-random value.
//
//mithril:hotpath
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0, 1).
//
//mithril:hotpath
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). It panics when n <= 0.
//
//mithril:hotpath
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("streaming: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}
