package server

import (
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/leakcheck"
	"repro/internal/obs"
)

// TestBlackBoxIncidentBundle is the acceptance path: an SLO breach drives
// an alert to firing, the firing transition auto-captures a bundle, the
// server is closed mid-incident (Close drains the capture queue), and the
// bundle on disk loads back with the right trigger, traces and runtime
// series — the killed-run post-mortem contract.
func TestBlackBoxIncidentBundle(t *testing.T) {
	leakcheck.Check(t)
	srv, eng := newObsServer(t)
	srv.SetTraceSampling(64, 1)
	dir := t.TempDir()
	srv.EnableBlackBox(obs.BlackBoxConfig{Dir: dir, Debounce: -1})

	srv.SetHealthSLO(time.Nanosecond)
	edges := absentEdges(t, eng.Graph(), 4)
	for _, e := range edges {
		if err := srv.Apply(graph.Delta{{U: e.U, V: e.V, Insert: true}}, nil); err != nil {
			t.Fatal(err)
		}
		srv.Sampler().Tick()
	}
	if len(srv.Alerts().Firing()) == 0 {
		t.Fatal("no alert firing after sustained SLO breaches")
	}
	// Kill the run mid-incident: Close must drain the queued capture.
	srv.Close()

	d, err := obs.LoadDump(dir)
	if err != nil {
		t.Fatalf("no loadable bundle after incident+close: %v", err)
	}
	if !strings.HasPrefix(d.Manifest.Trigger, "alert-") {
		t.Errorf("trigger %q, want alert-*", d.Manifest.Trigger)
	}
	if !strings.Contains(d.Manifest.Reason, "firing") {
		t.Errorf("reason %q does not explain the firing", d.Manifest.Reason)
	}
	if len(d.Traces) == 0 {
		t.Error("bundle has no traces")
	}
	if d.Runtime == nil || d.Runtime.HeapInuseBytes == 0 {
		t.Errorf("bundle runtime section: %+v", d.Runtime)
	}
	if d.Alerts == nil || d.Alerts.Firing == 0 {
		t.Errorf("bundle alerts section: %+v", d.Alerts)
	}
	for _, series := range []string{"ack_p99_ms", "heap_mb", "goroutines"} {
		if len(d.Series(series)) == 0 {
			t.Errorf("bundle missing %s series", series)
		}
	}
	if !strings.Contains(string(d.Config), `"single-engine"`) {
		t.Errorf("bundle config: %s", d.Config)
	}
}
