package trace

// Workload is a named set of per-core generators; Fresh rebuilds identical
// generator state so baseline and protected runs replay the same stream.
// Attackers counts trailing attacker cores: they are excluded from IPC
// aggregation and need not finish for the run to end (a throttled attacker
// is the mitigation working).
type Workload struct {
	Name      string
	Fresh     func() []Generator
	Attackers int
}

// coreRegion gives each core a disjoint 256 MB physical region so
// multi-programmed workloads don't share rows.
func coreRegion(core int) uint64 { return uint64(core) << 28 }
