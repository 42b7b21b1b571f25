package main

import (
	"io"
	"strings"
	"testing"
)

func suiteDoc(ack, rate float64) suiteResult {
	doc := suiteResult{Schema: suiteSchema, Seconds: 20, Host: host{NumCPU: 2, WALFS: "ext4"}, Workloads: map[string]workloadResult{}}
	for _, w := range workloads {
		doc.Workloads[w.name] = workloadResult{Correct: true, EndToEnd: map[string]metric{
			"update_ack_p50_ms":  {Value: ack, Unit: "ms"},
			"edge_changes_per_s": {Value: rate, Unit: "1/s"},
		}}
	}
	return doc
}

func TestCompareVerdicts(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSONFile("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	// Only the two metrics the documents carry.
	kept := spec.EndToEnd[:0]
	for _, m := range spec.EndToEnd {
		if m.Name == "update_ack_p50_ms" || m.Name == "edge_changes_per_s" {
			kept = append(kept, m)
		}
	}
	spec.EndToEnd = kept
	if len(kept) != 2 {
		t.Fatalf("BENCHMARK.json names %d of the two metrics", len(kept))
	}
	base := suiteDoc(1.0, 1000)
	for _, c := range []struct {
		name      string
		ack, rate float64
		worse     int
	}{
		{"same", 1.0, 1000, 0},
		{"better both ways", 0.5, 2000, 0},
		{"inside the bounds", 1.04, 970, 0},
		{"latency up by half", 1.5, 1000, len(workloads)},
		{"throughput halved", 1.0, 500, len(workloads)},
	} {
		worse, err := compare(io.Discard, spec, base, suiteDoc(c.ack, c.rate))
		if err != nil || worse != c.worse {
			t.Errorf("%s: %d worse, err %v; want %d", c.name, worse, err, c.worse)
		}
	}

	other := suiteDoc(1.0, 1000)
	other.Host.WALFS = "tmpfs"
	if _, err := compare(io.Discard, spec, base, other); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Errorf("results from an ext4 and a tmpfs host were compared: %v", err)
	}
	reseeded := suiteDoc(1.0, 1000)
	reseeded.Seed = 2
	if _, err := compare(io.Discard, spec, base, reseeded); err == nil || !strings.Contains(err.Error(), "seeds") {
		t.Errorf("results from two seeds were compared: %v", err)
	}
	older := suiteDoc(1.0, 1000)
	delete(older.Workloads["single-max"].EndToEnd, "update_ack_p50_ms")
	if _, err := compare(io.Discard, spec, base, older); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("a result without update_ack_p50_ms was compared: %v", err)
	}
	failed := suiteDoc(1.0, 1000)
	wr := failed.Workloads["batch-max"]
	wr.Correct = false
	failed.Workloads["batch-max"] = wr
	if _, err := compare(io.Discard, spec, base, failed); err == nil {
		t.Error("a result that failed its correctness checks was compared")
	}
}
