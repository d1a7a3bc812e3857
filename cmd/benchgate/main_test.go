package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: mithril
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSweepSerial-4              	       5	1400000000 ns/op	1004888278 B/op	  301613 allocs/op
BenchmarkSimulatorThroughput-4      	       5	   6500000 ns/op	40158003 B/op	     510 allocs/op
BenchmarkUnrelated-4                	     100	     12345 ns/op
PASS
ok  	mithril	12.3s
`

// With -count > 1 each benchmark reports once per run; the minimum wins.
func TestParseBenchKeepsMinimumAcrossRuns(t *testing.T) {
	in := "BenchmarkSweepSerial-4 5 1500000000 ns/op\n" +
		"BenchmarkSweepSerial-4 5 1300000000 ns/op\n" +
		"BenchmarkSweepSerial-4 5 1400000000 ns/op\n"
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkSweepSerial"] != 1300000000 {
		t.Errorf("ns/op = %v, want the minimum 1.3e9", got["BenchmarkSweepSerial"])
	}
}

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkSweepSerial":         1400000000,
		"BenchmarkSimulatorThroughput": 6500000,
		"BenchmarkUnrelated":           12345,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestGate(t *testing.T) {
	baseline := map[string]float64{"A": 100, "B": 100, "C": 100}
	current := map[string]float64{"A": 125, "B": 131, "D": 5}
	v := evaluate(baseline, current, 0.30)
	failed, matched := v.Failed, v.Matched
	if matched != 2 {
		t.Errorf("matched = %d, want 2 (C missing from run, D missing from history)", matched)
	}
	if len(failed) != 1 || failed[0] != "B" {
		t.Errorf("failed = %v, want [B] (A's +25%% is within +30%%)", failed)
	}
}

// writeHistory writes a minimal two-point history file; the gate must
// compare against the LATEST point only.
func writeHistory(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "hist.json")
	data := `{
  "series": "sweep_hotpath",
  "points": [
    {"date": "2026-01-01", "label": "old", "benchmarks": {
      "BenchmarkSweepSerial": {"ns_op": 9999999999}
    }},
    {"date": "2026-07-28", "label": "latest", "benchmarks": {
      "BenchmarkSweepSerial": {"ns_op": 1335170910},
      "BenchmarkSimulatorThroughput": {"ns_op": 6531938}
    }}
  ]
}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeBench(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPasses(t *testing.T) {
	hist := writeHistory(t)
	bench := writeBench(t, sampleBench) // 1.4e9 vs 1.335e9 baseline: +4.9%, within 30%
	if code := run([]string{"-input", bench, "-history", hist, "-tolerance", "0.30"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("run = %d, want 0", code)
	}
}

func TestRunFailsOnRegression(t *testing.T) {
	hist := writeHistory(t)
	slow := strings.Replace(sampleBench, "1400000000 ns/op", "2000000000 ns/op", 1) // +50%
	bench := writeBench(t, slow)
	if code := run([]string{"-input", bench, "-history", hist}, io.Discard, io.Discard); code != 1 {
		t.Errorf("run = %d, want 1 (regression)", code)
	}
}

func TestRunFailsWithNoMatches(t *testing.T) {
	hist := writeHistory(t)
	bench := writeBench(t, "BenchmarkSomethingElse-4 5 100 ns/op\n")
	if code := run([]string{"-input", bench, "-history", hist}, io.Discard, io.Discard); code != 2 {
		t.Errorf("run = %d, want 2 (nothing matched)", code)
	}
}

// runStderr captures run's exit code and stderr for the message tests.
func runStderr(args []string) (int, string) {
	var buf strings.Builder
	code := run(args, io.Discard, &buf)
	return code, buf.String()
}

func TestRunFailsClearlyOnMissingHistory(t *testing.T) {
	bench := writeBench(t, sampleBench)
	missing := filepath.Join(t.TempDir(), "BENCH_nope.json")
	code, msg := runStderr([]string{"-input", bench, "-history", missing})
	if code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(msg, "does not exist") || !strings.Contains(msg, missing) {
		t.Errorf("missing-history message not actionable: %q", msg)
	}
}

func TestRunFailsClearlyOnEmptyHistory(t *testing.T) {
	bench := writeBench(t, sampleBench)
	for name, content := range map[string]string{
		"no points":     `{"series": "s", "points": []}`,
		"no benchmarks": `{"series": "s", "points": [{"date": "2026-07-28", "label": "empty", "benchmarks": {}}]}`,
	} {
		hist := filepath.Join(t.TempDir(), "BENCH_empty.json")
		if err := os.WriteFile(hist, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		code, msg := runStderr([]string{"-input", bench, "-history", hist})
		if code != 2 {
			t.Fatalf("%s: run = %d, want 2", name, code)
		}
		if !strings.Contains(msg, "no baseline to compare against") {
			t.Errorf("%s: message not actionable: %q", name, msg)
		}
	}
}

func TestRunFailsClearlyOnEmptyBenchInput(t *testing.T) {
	hist := writeHistory(t)
	bench := writeBench(t, "PASS\nok mithril 1.2s\n") // a run with no benchmark lines
	code, msg := runStderr([]string{"-input", bench, "-history", hist})
	if code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(msg, "no benchmark lines") {
		t.Errorf("empty-input message not actionable: %q", msg)
	}
}

func TestToleranceFlagDefault(t *testing.T) {
	hist := writeHistory(t)
	// +40% regresses under the default ±30% tolerance but passes at 0.50.
	slow := strings.Replace(sampleBench, "1400000000 ns/op", "1870000000 ns/op", 1)
	bench := writeBench(t, slow)
	if code := run([]string{"-input", bench, "-history", hist}, io.Discard, io.Discard); code != 1 {
		t.Errorf("default tolerance: run = %d, want 1", code)
	}
	if code := run([]string{"-input", bench, "-history", hist, "-tolerance", "0.50"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("widened tolerance: run = %d, want 0", code)
	}
}
