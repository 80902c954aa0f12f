package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables checks the repository's BENCHMARK.json
// declares exactly the workloads and metrics this program prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i])
		}
	}
	for _, c := range []struct {
		name string
		json []def
		prog []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: %d metrics declared, %d printed", c.name, len(c.json), len(c.prog))
			continue
		}
		for i, d := range c.json {
			if d.Name != c.prog[i].name || d.Unit != c.prog[i].unit {
				t.Errorf("%s %d: declared %s (%s), printed %s (%s)", c.name, i, d.Name, d.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

func TestReportRefusesMissingAndExtraMetrics(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "s"}}
	r := newReport(defs)
	r.attempted = 1
	r.set("a", 1)
	if _, err := r.result(); err == nil {
		t.Error("a missing metric must be refused")
	}
	r.set("b", 2)
	res, err := r.result()
	if err != nil || !res.Correct || res.Metrics["b"].Unit != "s" {
		t.Errorf("result = %+v, %v", res, err)
	}
	r.set("c", 3)
	if _, err := r.result(); err == nil {
		t.Error("an undeclared metric must be refused")
	}
	r = newReport(defs)
	r.attempted = 1
	r.set("a", 1)
	r.set("b", 2)
	r.check(false, "bound violated")
	if res, _ := r.result(); res.Correct {
		t.Error("a failed check must make the result incorrect")
	}
}
