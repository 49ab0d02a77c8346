package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// lists this program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	for _, c := range []struct {
		section string
		listed  []struct{ Name, Unit, Better string }
		want    []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.want) {
			t.Errorf("%s lists %d metrics, program reports %d", c.section, len(c.listed), len(c.want))
			continue
		}
		for i, m := range c.listed {
			if w := c.want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d] = %s %s %s, program reports %s %s %s",
					c.section, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
		}
	}
}

func TestCompleteFillsPerLayerOnly(t *testing.T) {
	b := &bench{trace: true, metrics: map[string]metric{}}
	if err := b.complete(); err != nil {
		t.Fatalf("per-layer run with no metrics: %v", err)
	}
	if len(b.metrics) != len(perLayer) {
		t.Fatalf("complete filled %d metrics, want %d", len(b.metrics), len(perLayer))
	}
	e := &bench{metrics: map[string]metric{}}
	if err := e.complete(); err == nil {
		t.Fatal("an end-to-end run missing its metrics passed")
	}
	e.metrics["bogus"] = metric{Unit: "s"}
	for _, s := range endToEnd {
		e.metrics[s.name] = metric{Value: 1, Unit: s.unit}
	}
	if err := e.complete(); err == nil {
		t.Fatal("an unlisted metric passed")
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
