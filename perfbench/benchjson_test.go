package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode: BENCHMARK.json declares exactly the bounded
// end-to-end metrics and the traced invocation's metrics this code prints,
// with the same units, and its workloads are the ones this code runs.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	var e2e []metric
	for _, e := range e2eMetrics {
		if e.bounded {
			e2e = append(e2e, metric{Name: e.name, Unit: e.unit})
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), code %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2e)
	same("per_layer", doc.PerLayer, layerMetrics())
}

// TestGatedNeedsEveryBoundedMetric: a result line must carry every bounded
// end-to-end metric as a positive number, whatever the workload, and no
// other end-to-end metric.
func TestGatedNeedsEveryBoundedMetric(t *testing.T) {
	var all []metric
	for _, e := range e2eMetrics {
		if e.bounded {
			all = append(all, metric{Name: e.name, Unit: e.unit, Value: 1})
		}
	}
	if got, err := gated(all); err != nil || len(got) != len(all) {
		t.Fatalf("every bounded metric: %v, %d of %d kept", err, len(got), len(all))
	}
	for i := range all {
		missing := append(append([]metric(nil), all[:i]...), all[i+1:]...)
		if _, err := gated(missing); err == nil {
			t.Errorf("without %s: accepted", all[i].Name)
		}
		zero := append([]metric(nil), all...)
		zero[i].Value = 0
		if _, err := gated(zero); err == nil {
			t.Errorf("%s = 0: accepted", all[i].Name)
		}
	}
	extra := append(append([]metric(nil), all...), metric{Name: "disk_bytes_per_place", Unit: "B", Value: 1})
	if _, err := gated(extra); err == nil {
		t.Error("an unbounded metric beside the bounded ones: accepted")
	}
}
