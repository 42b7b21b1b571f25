package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json and the program
// together: the same workloads, the same metric names and units, and the
// limits the benchmark contract sets on the file.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, i int, name, unit, better string, def metricDef) {
		if name != def.name || unit != def.unit {
			t.Errorf("%s %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, name, unit, def.name, def.unit)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("%s %s [%s]: bad or repeated name, or bad unit", kind, name, unit)
		}
		seen[name] = true
		if better != "lower" && better != "higher" {
			t.Errorf("%s %s: better is %q", kind, name, better)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	hasSetup := false
	for i, m := range doc.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd[i])
		row := fmt.Sprintf("(?m)^\\| `%s` \\| %s \\| .* \\| %.2f \\|$", regexp.QuoteMeta(m.Name), regexp.QuoteMeta(m.Unit), m.Bound)
		if !regexp.MustCompile(row).Match(readme) {
			t.Errorf("README.md has no end-to-end row for %s [%s] with bound %.2f", m.Name, m.Unit, m.Bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for i, m := range doc.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayer[i])
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if runs := 4 + 22*len(doc.Workloads); runs*(doc.RunSeconds+perRunOverheadSeconds) > 3420-2*60 {
		t.Errorf("%d runs of %d+%d s do not fit 3420 s with two builds", runs, doc.RunSeconds, perRunOverheadSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || len(doc.Command) == 0 || len(raw) > 64<<10 {
		t.Errorf("paths %v, command %v, %d bytes", doc.Paths, doc.Command, len(raw))
	}
}

// perRunOverheadSeconds is what a run costs beyond its measured seconds:
// incremental builds, input generation, five set-ups, warm-up, the
// correctness checks, and in a traced run the second server and the layer
// probe (measured: 4 to 8 s untraced, 7 to 14 s traced).
const perRunOverheadSeconds = 14
