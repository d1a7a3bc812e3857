// Command benchgate compares a `go test -bench` run against the latest
// recorded point in a benchmark-history file (BENCH_sweep_hotpath.json)
// and fails when any benchmark regressed beyond the tolerance. CI runs it
// after the bench job so a hot-path regression fails the push instead of
// silently accumulating.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -benchtime=3x . | tee bench.txt
//	go run ./cmd/benchgate -input bench.txt -history BENCH_sweep_hotpath.json -tolerance 0.30
//
// Benchmarks present in only one of the two inputs are reported and
// skipped; the gate fails if nothing matches at all (a rename or a broken
// bench filter would otherwise pass vacuously).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchPoint is one benchmark's recorded metrics in the history file.
type benchPoint struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"bytes_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// history mirrors the BENCH_*.json layout (only the fields the gate needs).
type history struct {
	Series string `json:"series"`
	Points []struct {
		Date       string                `json:"date"`
		Label      string                `json:"label"`
		Benchmarks map[string]benchPoint `json:"benchmarks"`
	} `json:"points"`
}

// parseBench extracts benchmark-name → ns/op from `go test -bench` output.
// The -N GOMAXPROCS suffix is stripped so names match the history file.
// With `-count` > 1 a benchmark appears once per run; the MINIMUM ns/op is
// kept — the best run is the least scheduler-noise-contaminated estimate
// of the code's cost, so the gate doesn't trip on a single noisy run.
func parseBench(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark lines: name, iteration count, value/unit pairs.
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] == "ns/op" {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op on line %q: %v", sc.Text(), err)
				}
				if prev, seen := out[name]; !seen || v < prev {
					out[name] = v
				}
			}
		}
	}
	return out, sc.Err()
}

// benchResult is one matched benchmark's comparison in the verdict.
type benchResult struct {
	Name         string  `json:"name"`
	BaselineNsOp float64 `json:"baseline_ns_op"`
	CurrentNsOp  float64 `json:"current_ns_op"`
	DeltaPercent float64 `json:"delta_percent"`
	Regression   bool    `json:"regression"`
}

// verdict is the gate's full machine-readable outcome (-json emits it).
type verdict struct {
	Series        string        `json:"series"`
	BaselineLabel string        `json:"baseline_label"`
	BaselineDate  string        `json:"baseline_date"`
	Tolerance     float64       `json:"tolerance"`
	Matched       int           `json:"matched"`
	HistoryOnly   []string      `json:"history_only,omitempty"`
	RunOnly       []string      `json:"run_only,omitempty"`
	Failed        []string      `json:"failed,omitempty"`
	OK            bool          `json:"ok"`
	Benchmarks    []benchResult `json:"benchmarks"`
}

// evaluate compares current ns/op against the baseline within tolerance
// (fractional, e.g. 0.30 allows +30%). Every list is sorted by name so the
// gate's output is deterministic regardless of map iteration order.
func evaluate(baseline, current map[string]float64, tolerance float64) verdict {
	v := verdict{Tolerance: tolerance}
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			v.HistoryOnly = append(v.HistoryOnly, name)
			continue
		}
		v.Matched++
		r := benchResult{
			Name:         name,
			BaselineNsOp: base,
			CurrentNsOp:  cur,
			DeltaPercent: 100 * (cur - base) / base,
			Regression:   cur > base*(1+tolerance),
		}
		if r.Regression {
			v.Failed = append(v.Failed, name)
		}
		v.Benchmarks = append(v.Benchmarks, r)
	}
	runOnly := make([]string, 0, len(current))
	for name := range current {
		if _, ok := baseline[name]; !ok {
			runOnly = append(runOnly, name)
		}
	}
	sort.Strings(runOnly)
	v.RunOnly = runOnly
	if len(v.RunOnly) == 0 {
		v.RunOnly = nil
	}
	v.OK = v.Matched > 0 && len(v.Failed) == 0
	return v
}

func renderText(w io.Writer, v verdict) {
	for _, name := range v.HistoryOnly {
		fmt.Fprintf(w, "skip %-32s (in history, not in this run)\n", name)
	}
	for _, r := range v.Benchmarks {
		verdict := "ok"
		if r.Regression {
			verdict = "REGRESSION"
		}
		fmt.Fprintf(w, "%-36s baseline %14.0f ns/op  current %14.0f ns/op  %+7.1f%%  %s\n",
			r.Name, r.BaselineNsOp, r.CurrentNsOp, r.DeltaPercent, verdict)
	}
	for _, name := range v.RunOnly {
		fmt.Fprintf(w, "skip %-32s (in this run, not in history)\n", name)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body: parses args, loads inputs, applies the gate.
func run(args []string, stdout, stderr io.Writer) int {
	var (
		inputPath   = "-"
		historyPath = "BENCH_sweep_hotpath.json"
		tolerance   = 0.30
		jsonOut     = false
	)
	usage := func() int {
		fmt.Fprintf(stderr, "usage: benchgate [-input bench.txt] [-history BENCH.json] [-tolerance 0.30] [-json]\n")
		return 2
	}
	for i := 0; i < len(args); i++ {
		opt := args[i]
		if opt == "-json" {
			jsonOut = true
			continue
		}
		if i+1 >= len(args) {
			return usage() // every other option takes a value
		}
		i++
		switch opt {
		case "-input":
			inputPath = args[i]
		case "-history":
			historyPath = args[i]
		case "-tolerance":
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || v <= 0 {
				fmt.Fprintf(stderr, "benchgate: bad -tolerance %q\n", args[i])
				return 2
			}
			tolerance = v
		default:
			return usage()
		}
	}
	var in io.Reader = os.Stdin
	if inputPath != "-" {
		f, err := os.Open(inputPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	current, err := parseBench(in)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	if len(current) == 0 {
		fmt.Fprintf(stderr, "benchgate: no benchmark lines in %s — did the bench run produce output (check the -bench filter)?\n", inputPath)
		return 2
	}
	data, err := os.ReadFile(historyPath)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(stderr, "benchgate: history file %s does not exist — the gate has no baseline to compare against (record a point per the regeneration command in the json, or pass -history)\n", historyPath)
			return 2
		}
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 2
	}
	var h history
	if err := json.Unmarshal(data, &h); err != nil {
		fmt.Fprintf(stderr, "benchgate: %s: %v\n", historyPath, err)
		return 2
	}
	if len(h.Points) == 0 {
		fmt.Fprintf(stderr, "benchgate: %s has no recorded points — the gate has no baseline to compare against\n", historyPath)
		return 2
	}
	latest := h.Points[len(h.Points)-1]
	if len(latest.Benchmarks) == 0 {
		fmt.Fprintf(stderr, "benchgate: latest point %q in %s records no benchmarks — the gate has no baseline to compare against\n", latest.Label, historyPath)
		return 2
	}
	baseline := map[string]float64{}
	for name, p := range latest.Benchmarks { //mithril:allow detrange building a map: order-independent
		baseline[name] = p.NsOp
	}
	v := evaluate(baseline, current, tolerance)
	v.Series, v.BaselineLabel, v.BaselineDate = h.Series, latest.Label, latest.Date
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			fmt.Fprintf(stderr, "benchgate: %v\n", err)
			return 2
		}
	} else {
		fmt.Fprintf(stdout, "benchgate: against %s point %q (%s), tolerance +%.0f%%\n",
			v.Series, v.BaselineLabel, v.BaselineDate, tolerance*100)
		renderText(stdout, v)
	}
	if v.Matched == 0 {
		fmt.Fprintf(stderr, "benchgate: no benchmarks matched the history file\n")
		return 2
	}
	if len(v.Failed) > 0 {
		fmt.Fprintf(stderr, "benchgate: regression in %v\n", v.Failed)
		return 1
	}
	if !jsonOut {
		fmt.Fprintf(stdout, "benchgate: %d benchmark(s) within tolerance\n", v.Matched)
	}
	return 0
}
