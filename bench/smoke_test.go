package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// the benchmark against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at 1/100 of its runtime, in-process,
// untraced and traced, and checks that each metric BENCHMARK.json names
// is printed with its unit and that no output check fails.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	for _, w := range names {
		if _, _, err := loadSpec(childArgs{Workload: w, Seed: 1}); err != nil {
			t.Errorf("workload %s: %v", w, err)
		}
	}

	for _, tc := range []struct {
		trace   bool
		metrics []struct{ Name, Unit string }
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		var out strings.Builder
		cfg := config{
			seed: 1, trace: tc.trace, scale: 0.01, run: runChild,
			calibrate: func() time.Duration { return calRef }, out: &out, outDir: t.TempDir(),
		}
		ok, err := runAll(cfg, names)
		if err != nil {
			t.Fatalf("trace %v: %v", tc.trace, err)
		}
		text := out.String()
		if !ok || strings.Contains(text, "FAILED") {
			t.Errorf("trace %v: output checks failed:\n%s", tc.trace, text)
		}
		if got := strings.Count(text, "fail_ratio 0\n"); got != len(names) {
			t.Errorf("trace %v: fail_ratio 0 printed for %d of %d workloads", tc.trace, got, len(names))
		}
		lines := strings.Split(strings.TrimSpace(text), "\n")
		var last struct {
			Correct bool
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("trace %v: last line: %v", tc.trace, err)
		}
		for _, w := range names {
			for _, m := range tc.metrics {
				if got := last.Metrics[w+"."+m.Name]; got.Unit != m.Unit {
					t.Errorf("trace %v: %s %s printed with unit %q, want %q", tc.trace, w, m.Name, got.Unit, m.Unit)
				}
				if !tableHas(text, m.Name, m.Unit) {
					t.Errorf("trace %v: table lacks %s in %s", tc.trace, m.Name, m.Unit)
				}
			}
		}
		if len(last.Metrics) != len(names)*len(tc.metrics) {
			t.Errorf("trace %v: %d metrics printed, BENCHMARK.json names %d", tc.trace, len(last.Metrics), len(names)*len(tc.metrics))
		}
	}
}

// tableHas reports whether a table row starts with name and ends with
// unit.
func tableHas(text, name, unit string) bool {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && f[0] == name && f[len(f)-1] == unit {
			return true
		}
	}
	return false
}
