package obs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testSources builds a populated observability stack: one slow trace, a
// ticked sampler, an alert engine and a runtime snapshot.
func testSources(t *testing.T) BlackBoxSource {
	t.Helper()
	f := NewFlightRecorder(8, 1)
	f.Record(&ReqTrace{
		ID: f.NextID(), Kind: "update", Start: time.Now(),
		Total: 7 * time.Millisecond, Sampled: true, Round: 3,
		GCPause: 200 * time.Microsecond,
	})
	s := NewSampler(time.Second, 16)
	v := 0.0
	s.Gauge("ack_p99_ms", func() float64 { return v })
	for i := 0; i < 5; i++ {
		v = float64(i)
		s.Tick()
	}
	rt := NewRuntime()
	return BlackBoxSource{
		Flight: f, Sampler: s,
		Alerts: NewAlertEngine(s), Runtime: rt,
		Config: map[string]any{"deployment": "test", "shards": 2},
	}
}

// TestBlackBoxCaptureLoadRoundTrip is the tentpole's offline contract: a
// captured bundle loads back with the trigger, traces, rounds, timeseries,
// runtime state and extra files intact — the synthetic-incident round trip.
func TestBlackBoxCaptureLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	bb := NewBlackBox(BlackBoxConfig{Dir: dir, Debounce: -1, Source: testSources(t)})
	defer bb.Close()
	// The router's two files, registered the way it registers them.
	rounds := NewRing[RoundTrace](8)
	rounds.Record(&RoundTrace{
		ID: 3, Start: time.Now(), Reqs: 2, Edges: 5,
		Total: 6 * time.Millisecond,
		Stages: []RoundStageSpan{{
			Name: "layer0", Makespan: 4 * time.Millisecond,
			Shards: []RoundShardSpan{
				{Compute: 4 * time.Millisecond},
				{Compute: time.Millisecond, Barrier: 3 * time.Millisecond},
			},
		}},
	})
	bb.AddFile("rounds.json", func() any { return rounds.Traces() })
	bb.AddFile("failstop.json", func() any {
		return &FailStopInfo{Round: 3, Err: "round apply failed", Time: time.Now()}
	})

	man, err := bb.Capture("fail-stop", "round 3 exploded")
	if err != nil {
		t.Fatal(err)
	}
	if man.Trigger != "fail-stop" || man.Reason != "round 3 exploded" {
		t.Fatalf("manifest trigger/reason: %+v", man)
	}

	d, err := LoadDump(dir) // dump root: resolves to the newest bundle
	if err != nil {
		t.Fatal(err)
	}
	if d.Manifest.Seq != man.Seq || d.Manifest.Trigger != "fail-stop" {
		t.Fatalf("loaded manifest %+v, want seq %d", d.Manifest, man.Seq)
	}
	if len(d.Traces) != 1 {
		t.Fatalf("traces: %d, want 1", len(d.Traces))
	}
	tr := d.Traces[0]
	if tr.Kind != "update" || tr.TotalUS != 7000 || tr.RoundID != TraceIDString(3) {
		t.Errorf("trace round-trip: %+v", tr)
	}
	if tr.GCPauseUS != 200 {
		t.Errorf("gc pause %v us, want 200", tr.GCPauseUS)
	}
	if len(d.Rounds) != 1 || d.Rounds[0].Reqs != 2 || len(d.Rounds[0].Stages) != 1 {
		t.Fatalf("rounds round-trip: %+v", d.Rounds)
	}
	if sh := d.Rounds[0].Stages[0].Shards; len(sh) != 2 || sh[1].BarrierUS != 3000 {
		t.Errorf("shard spans: %+v", sh)
	}
	if vs := d.Series("ack_p99_ms"); len(vs) != 5 || vs[4] != 4 {
		t.Errorf("timeseries: %v", vs)
	}
	if d.Runtime == nil || d.Runtime.HeapInuseBytes == 0 {
		t.Errorf("runtime section missing or empty: %+v", d.Runtime)
	}
	if d.FailStop == nil || d.FailStop.Round != 3 || d.FailStop.Err != "round apply failed" {
		t.Errorf("failstop section: %+v", d.FailStop)
	}
	if !strings.Contains(string(d.Config), `"deployment"`) {
		t.Errorf("config section: %s", d.Config)
	}
}

// TestBlackBoxTriggerDebounce: the automatic path is async (worker
// goroutine), debounced, and drained by Close — the incident-then-kill
// ordering that must still leave a bundle on disk.
func TestBlackBoxTriggerDebounce(t *testing.T) {
	dir := t.TempDir()
	bb := NewBlackBox(BlackBoxConfig{Dir: dir, Debounce: time.Hour, Source: testSources(t)})
	bb.Trigger("alert-fast", "burn rate 14x")
	bb.Trigger("alert-fast", "burn rate 15x") // inside the debounce window
	bb.Close()                                // drains the queue before returning
	if n := countBundles(t, dir); n != 1 {
		t.Fatalf("%d bundles, want 1 (second trigger debounced)", n)
	}

	// Debounce off: every trigger captures.
	dir2 := t.TempDir()
	bb2 := NewBlackBox(BlackBoxConfig{Dir: dir2, Debounce: -1, Source: testSources(t)})
	bb2.Trigger("a", "x")
	bb2.Trigger("b", "y")
	bb2.Close()
	if n := countBundles(t, dir2); n != 2 {
		t.Fatalf("%d bundles, want 2 with debouncing off", n)
	}
}

// TestBlackBoxPrune: bundle retention honours MaxBundles, keeping the
// newest; sequence numbers resume across restarts from the surviving dirs.
func TestBlackBoxPrune(t *testing.T) {
	dir := t.TempDir()
	src := testSources(t)
	bb := NewBlackBox(BlackBoxConfig{Dir: dir, MaxBundles: 2, Debounce: -1, Source: src})
	for i := 0; i < 4; i++ {
		if _, err := bb.Capture("manual", ""); err != nil {
			t.Fatal(err)
		}
	}
	bb.Close()
	if n := countBundles(t, dir); n != 2 {
		t.Fatalf("%d bundles after prune, want 2", n)
	}
	d, err := LoadDump(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Manifest.Seq != 4 {
		t.Fatalf("newest surviving seq %d, want 4", d.Manifest.Seq)
	}

	// Restart: a new black box over the same dir continues the sequence.
	bb2 := NewBlackBox(BlackBoxConfig{Dir: dir, Debounce: -1, Source: src})
	man, err := bb2.Capture("manual", "")
	bb2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 5 {
		t.Fatalf("post-restart seq %d, want 5", man.Seq)
	}
}

// TestBlackBoxTarGZ: the on-demand bundle streams as a well-formed tar.gz
// with the manifest inside, without touching the dump directory.
func TestBlackBoxTarGZ(t *testing.T) {
	dir := t.TempDir()
	bb := NewBlackBox(BlackBoxConfig{Dir: dir, Debounce: -1, Source: testSources(t)})
	defer bb.Close()
	var buf bytes.Buffer
	if _, err := bb.WriteTarGZ(&buf, "on-demand", ""); err != nil {
		t.Fatal(err)
	}
	if n := countBundles(t, dir); n != 0 {
		t.Fatalf("tar capture wrote %d bundles to disk", n)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		names[filepath.Base(hdr.Name)] = true
	}
	for _, want := range []string{"MANIFEST.json", "traces.json", "timeseries.json", "runtime.json"} {
		if !names[want] {
			t.Errorf("tar missing %s (have %v)", want, names)
		}
	}
}

// TestLoadDumpErrors: a root without bundles and a future-version bundle
// are rejected with diagnostics rather than half-loaded.
func TestLoadDumpErrors(t *testing.T) {
	if _, err := LoadDump(t.TempDir()); err == nil {
		t.Error("empty root accepted")
	}
	dir := t.TempDir()
	bdir := filepath.Join(dir, "bundle-000001-x")
	if err := os.MkdirAll(bdir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := []byte(`{"version": 99, "seq": 1, "trigger": "x", "files": []}`)
	if err := os.WriteFile(filepath.Join(bdir, "MANIFEST.json"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDump(bdir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
}

func countBundles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
			n++
		}
	}
	return n
}
