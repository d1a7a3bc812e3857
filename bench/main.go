// Command bench is the repository benchmark. It drives the simulator the
// way its users do — attack and benign sweeps through the Engine with a
// disk result store, warm re-runs served from that store, and /v1/run
// requests through a two-worker fleet — and prints every metric by name
// with its unit, after checking that every output is correct.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload attack-sweep --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1            # every workload, each in its own process
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
// --trace 1 runs the workload untraced and traced, runs the layer probes,
// writes the recorded spans to <spans>/<workload>.spans.json and reports
// the per-layer metrics. The exit code is non-zero when a correctness
// check fails. See README.md for the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// pinnedDigests holds the output digest of every workload at -seed 1 and
// default size, regenerated with -update.
//
//go:embed testdata/digests.json
var pinnedDigests []byte

// config is one benchmark invocation.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool   // smoke-test sizes; outputs are not pinned
	scratch string // stores and other run files go in a fresh directory under it
	spans   string // traced runs write <workload>.spans.json here
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one workload run.
type report struct {
	attempted, failed int
	digest            string
	problems          []string
	metrics           []metric
	info              []metric // printed on the comment lines only
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func main() {
	if os.Getenv(refEnv) != "" {
		os.Exit(referenceMain())
	}
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run ("+strings.Join(workloadNames(), ", ")+"), or all, each in its own process")
	seed := fs.Uint64("seed", 1, "input seed: the same seed generates the same specs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1: traced run that prints the per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes <workload>.spans.json to")
	update := fs.String("update", "", "record this run's digest in the given digests file instead of checking the pinned one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: want -workload W -seed N -seconds S -trace 0|1")
		return 2
	}
	if *name == "all" {
		return runAll(ctx, args, stdout, stderr)
	}
	w := lookupWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *traced == 1,
		scratch: filepath.Join(".bench_build", "tmp"), spans: *spans,
	}
	rep, err := measure(ctx, w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if !cfg.trace {
		if err := checkDigest(w.name, cfg, rep, *update); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := printReport(stdout, stderr, w.name, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process with the same
// flags, so each one's memory and set-up are measured alone.
func runAll(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.CommandContext(ctx, self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// checkDigest compares the run's output digest with the pinned one (seed
// 1, default size) or, with -update, records it.
func checkDigest(name string, cfg config, rep *report, update string) error {
	if update != "" {
		return writeDigest(update, name, rep.digest)
	}
	if cfg.seed != 1 || cfg.tiny {
		return nil
	}
	var pinned map[string]string
	if err := json.Unmarshal(pinnedDigests, &pinned); err != nil {
		return fmt.Errorf("testdata/digests.json: %w", err)
	}
	if want, ok := pinned[name]; ok && want != rep.digest {
		rep.problems = append(rep.problems, fmt.Sprintf("output digest %s differs from the pinned %s", rep.digest, want))
	}
	return nil
}

func writeDigest(path, name, digest string) error {
	pinned := map[string]string{}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err == nil {
		if err := json.Unmarshal(data, &pinned); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	pinned[name] = digest
	out, err := json.MarshalIndent(pinned, "", "  ") // map keys marshal sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// jsonMetric and jsonResult are the last output line's shape.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport writes one line per metric, the digest and any problems,
// then the JSON result as the last line.
func printReport(stdout, stderr io.Writer, name string, rep *report) error {
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "bench: %s: CHECK FAILED: %s\n", name, p)
	}
	res := jsonResult{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	fmt.Fprintf(stdout, "# %s digest %s\n", name, rep.digest)
	fmt.Fprintf(stdout, "# %s error_rate %g (%d failed of %d attempted)\n", name, float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s: metric %s is %v", name, m.name, m.value)
		}
		fmt.Fprintf(stdout, "# %s %s %v %s\n", name, m.name, m.value, m.unit)
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	for _, m := range rep.info {
		fmt.Fprintf(stdout, "# %s %s %v %s\n", name, m.name, m.value, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// digest condenses unit outputs into one hex SHA-256.
func digest(outs [][]byte) string {
	h := sha256.New()
	for _, o := range outs {
		h.Write(o)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS sets the process's peak resident set to its current one
// (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reports the process's peak resident set (VmHWM, Linux) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
