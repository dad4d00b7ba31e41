package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q unit %q", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %q: better = %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
	for _, l := range layers {
		if !seen[l+".self_pct"] {
			t.Errorf("layer %q has no self_pct metric", l)
		}
	}
}

func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || generators[w.Name] == nil {
			t.Errorf("workload %d: %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end_to_end[%d] = %s %s %s, want %s %s %s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %s %s %s, want %s %s %s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}
}
