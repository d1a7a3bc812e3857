package trace

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// WorkloadFactory constructs one workload instance for a core count and
// seed. Factories must be deterministic: two calls with equal arguments
// must produce workloads whose Fresh streams replay identically.
type WorkloadFactory func(cores int, seed uint64) Workload

// WorkloadInfo describes one table workload for catalogs (the CLI's
// `workloads` command, the serve endpoint, the README scenario table).
type WorkloadInfo struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// workloadTable is the fixed workload table: the paper's five benign
// workloads in paper order — the two multi-programmed mixes, then the
// three multi-threaded kernels. NormalWorkloads builds them in this
// order, and the full-scale "normal" comparison row geomean-reduces them
// in it, so reordering the table changes that row's bytes.
var workloadTable = [...]struct {
	WorkloadInfo
	build WorkloadFactory
}{
	{WorkloadInfo{"mix-high", "memory-intensive multi-programmed mix: every core runs a high-MPKI kernel (streams, random walks, large sweeps)"}, MixHigh},
	{WorkloadInfo{"mix-blend", "blended multi-programmed mix: memory-intensive and compute-bound cores interleaved (the paper's random blend)"}, MixBlend},
	{WorkloadInfo{"fft", "SPLASH-2 FFT-like multithreaded kernel: all threads stride a shared footprint with butterfly-style strides"}, FFT},
	{WorkloadInfo{"radix", "SPLASH-2 RADIX-like multithreaded kernel: streaming reads with scattered bucket writes"}, Radix},
	{WorkloadInfo{"pagerank", "GAP PageRank-like multithreaded kernel: sequential edge sweeps with random vertex gathers over a shared graph"}, PageRank},
}

// TracePrefix is the name form that replays a recorded access trace
// instead of a table workload: "trace:<path>" reads path in the
// trace-file format documented in the README (plain text or gzip). No
// table name may start with it.
const TracePrefix = "trace:"

// findWorkload returns the table factory for name.
func findWorkload(name string) (WorkloadFactory, bool) {
	for _, w := range workloadTable {
		if w.Name == name {
			return w.build, true
		}
	}
	return nil, false
}

// NormalWorkloads builds the paper's five normal workloads in paper order
// (the workload table's order) for geo-mean aggregation.
func NormalWorkloads(cores int, seed uint64) []Workload {
	out := make([]Workload, len(workloadTable))
	for i, w := range workloadTable {
		out[i] = w.build(cores, seed)
	}
	return out
}

// ErrUnknownWorkload is returned (wrapped, with the valid names listed) by
// BuildWorkload and ValidateWorkloadName for a name that is neither in
// the workload table nor a "trace:<path>" form. Match with errors.Is.
var ErrUnknownWorkload = errors.New("unknown workload")

// WorkloadNames lists the table's workload names in sorted order. The
// ordering is a documented guarantee (and pinned by a test): consumers
// render the list in error messages, CLI catalogs, and service responses.
// The "trace:<path>" form is not a table name and is not listed.
func WorkloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.Name
	}
	sort.Strings(names)
	return names
}

// Workloads lists the table's workloads with their one-line descriptions,
// sorted by name (the same guarantee as WorkloadNames).
func Workloads() []WorkloadInfo {
	infos := make([]WorkloadInfo, len(workloadTable))
	for i, w := range workloadTable {
		infos[i] = w.WorkloadInfo
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// ValidateWorkloadName checks that name is buildable without building it:
// either a table workload or a well-formed "trace:<path>" form. File
// existence and trace syntax are deliberately not checked here — spec
// validation must stay filesystem-independent (the serve endpoint
// validates specs naming server-local paths) — so trace-file errors
// surface when the workload is built, before any simulation runs.
func ValidateWorkloadName(name string) error {
	if strings.HasPrefix(name, TracePrefix) {
		if strings.TrimPrefix(name, TracePrefix) == "" {
			return fmt.Errorf("trace: %q names no file (want %s<path>)", name, TracePrefix)
		}
		return nil
	}
	if _, ok := findWorkload(name); !ok {
		return fmt.Errorf("trace: %w %q (valid: %s, or %s<path>)",
			ErrUnknownWorkload, name, strings.Join(WorkloadNames(), ", "), TracePrefix)
	}
	return nil
}

// BuildWorkload constructs a workload by name: a table workload, or
// the "trace:<path>" form, which parses the trace file (strictly — any
// malformed line is an error) and replays it on every core. An
// unknown name yields an error wrapping ErrUnknownWorkload that
// lists the valid names.
func BuildWorkload(name string, cores int, seed uint64) (Workload, error) {
	if strings.HasPrefix(name, TracePrefix) {
		if err := ValidateWorkloadName(name); err != nil {
			return Workload{}, err
		}
		return FileWorkload(strings.TrimPrefix(name, TracePrefix), cores)
	}
	build, ok := findWorkload(name)
	if !ok {
		return Workload{}, fmt.Errorf("trace: %w %q (valid: %s, or %s<path>)",
			ErrUnknownWorkload, name, strings.Join(WorkloadNames(), ", "), TracePrefix)
	}
	return build(cores, seed), nil
}
