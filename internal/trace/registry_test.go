package trace

import (
	"sort"
	"strings"
	"testing"
)

// The sorted order of WorkloadNames is a documented guarantee; the five
// paper workloads must be in the table.
func TestWorkloadNamesSortedAndComplete(t *testing.T) {
	names := WorkloadNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("WorkloadNames() = %v, want sorted", names)
	}
	for _, want := range []string{"fft", "mix-blend", "mix-high", "pagerank", "radix"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("workload %q missing (have %v)", want, names)
		}
	}
	infos := Workloads()
	if len(infos) != len(names) {
		t.Fatalf("Workloads() = %d entries, WorkloadNames() = %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("Workloads()[%d] = %q, want %q (same sorted order)", i, info.Name, names[i])
		}
		if info.Desc == "" {
			t.Errorf("workload %q has no description", info.Name)
		}
	}
}

// The workload table's invariants, one subtest each. BuildWorkload
// resolves the "trace:" prefix before the table, so a table name using it
// would be unreachable.
func TestWorkloadTable(t *testing.T) {
	t.Run("empty name", func(t *testing.T) {
		for i, w := range workloadTable {
			if w.Name == "" {
				t.Errorf("workloadTable[%d] has an empty name", i)
			}
		}
	})
	t.Run("nil factory", func(t *testing.T) {
		for _, w := range workloadTable {
			if w.build == nil {
				t.Errorf("workload %q has a nil factory", w.Name)
			}
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		seen := map[string]bool{}
		for _, w := range workloadTable {
			if seen[w.Name] {
				t.Errorf("workload %q appears twice", w.Name)
			}
			seen[w.Name] = true
		}
	})
	t.Run("reserved trace prefix", func(t *testing.T) {
		for _, w := range workloadTable {
			if strings.HasPrefix(w.Name, TracePrefix) {
				t.Errorf("workload %q uses the reserved %q prefix", w.Name, TracePrefix)
			}
		}
	})
	t.Run("description", func(t *testing.T) {
		for _, w := range workloadTable {
			if w.Desc == "" {
				t.Errorf("workload %q has no description", w.Name)
			}
		}
	})
	// The full-scale "normal" row geomean-reduces in this order.
	t.Run("paper order", func(t *testing.T) {
		want := []string{"mix-high", "mix-blend", "fft", "radix", "pagerank"}
		got := NormalWorkloads(2, 1)
		if len(got) != len(want) {
			t.Fatalf("NormalWorkloads built %d workloads, want %d", len(got), len(want))
		}
		for i, w := range got {
			if w.Name != want[i] {
				t.Errorf("NormalWorkloads()[%d] = %q, want %q", i, w.Name, want[i])
			}
		}
	})
}

// Table factories build their own named workloads, and the error for
// an unknown name lists the valid ones.
func TestBuildWorkloadRegistered(t *testing.T) {
	for _, name := range []string{"fft", "mix-blend", "mix-high", "pagerank", "radix"} {
		w, err := BuildWorkload(name, 4, 1)
		if err != nil {
			t.Fatalf("BuildWorkload(%q): %v", name, err)
		}
		if w.Name != name {
			t.Errorf("BuildWorkload(%q).Name = %q", name, w.Name)
		}
		if len(w.Fresh()) != 4 {
			t.Errorf("BuildWorkload(%q) built %d generators, want 4", name, len(w.Fresh()))
		}
	}
	_, err := BuildWorkload("spec2017", 4, 1)
	if err == nil || !strings.Contains(err.Error(), "mix-high") {
		t.Errorf("unknown-workload error should list valid names, got %v", err)
	}
}

func TestValidateWorkloadName(t *testing.T) {
	if err := ValidateWorkloadName("mix-high"); err != nil {
		t.Errorf("mix-high: %v", err)
	}
	// trace:<path> is validated by shape only — the file is read at build.
	if err := ValidateWorkloadName("trace:no/such/file.trace"); err != nil {
		t.Errorf("trace form: %v", err)
	}
	if err := ValidateWorkloadName("trace:"); err == nil {
		t.Error("trace: with empty path must fail validation")
	}
	if err := ValidateWorkloadName("spec2017"); err == nil {
		t.Error("unknown name must fail validation")
	}
}
