package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mithril/internal/testutil"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMain lets the test binary serve as the reference process that
// measure starts.
func TestMain(m *testing.M) {
	if os.Getenv(refEnv) != "" {
		os.Exit(referenceMain())
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at smoke-test size, untraced and traced,
// and checks that the run is correct and prints exactly the metrics
// BENCHMARK.json declares, each with its declared unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if got, want := strings.Join(workloadNames(), ","), strings.Join(declared, ","); got != want {
		t.Fatalf("program workloads %s, BENCHMARK.json declares %s", got, want)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			want := bf.EndToEnd
			if traced {
				name, want = w.name+"/traced", bf.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				defer testutil.CheckGoroutines(t)()
				spans := t.TempDir()
				cfg := config{seed: 1, seconds: 0.01, trace: traced, tiny: true, scratch: t.TempDir(), spans: spans}
				rep, err := measure(context.Background(), w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := printReport(&out, io.Discard, w.name, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < w.minUnits {
					t.Fatalf("correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, rep.problems)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s printed in %s, declared in %s", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				if traced {
					if _, err := os.Stat(filepath.Join(spans, w.name+".spans.json")); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}
