package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestTablesMatchBenchmarkJSON keeps the metric tables the program prints
// in step with the declaration at the repository root.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got map[string]string, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for _, m := range want {
			if u, ok := got[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s declared with unit %q, program has %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	same("end_to_end", endToEnd, decl.EndToEnd)
	same("per_layer", perLayer, decl.PerLayer)
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q cannot be run by name", w.Name)
		}
	}
}
