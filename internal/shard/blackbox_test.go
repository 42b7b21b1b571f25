package shard

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gnn"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tensor"
)

func newBlackBoxRouter(t *testing.T) *deployment {
	t.Helper()
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(41))
	const n, featLen = 40, 6
	g := testGraph(rng, n, 100)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	return newDeployment(t, testModel(rng, "SAGE", featLen, gnn.AggMax), g, x, Config{Shards: 2})
}

// TestFailStopForensics: tripping the fail-stop latch records which round
// failed and why, exposes it in /v1/stats and the /healthz degraded reason,
// auto-captures an incident bundle carrying failstop.json, and keeps the
// first record when a second failure races in.
func TestFailStopForensics(t *testing.T) {
	rt := newBlackBoxRouter(t)
	dir := t.TempDir()
	rt.EnableBlackBox(obs.BlackBoxConfig{Dir: dir, Debounce: -1})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	if rt.rt.FailStop() != nil {
		t.Fatal("healthy router reports a fail-stop record")
	}
	// Deterministic ticks so the bundle's timeseries carries samples.
	rt.Sampler().Tick()
	rt.Sampler().Tick()
	rt.rt.failStopNow(7, errors.New("shard 1: apply exploded"))
	rt.rt.failStopNow(9, errors.New("cascading second failure"))

	if !rt.rt.Corrupt() {
		t.Fatal("corrupt latch not set")
	}
	fs := rt.rt.FailStop()
	if fs == nil || fs.Round != 7 || !strings.Contains(fs.Err, "exploded") {
		t.Fatalf("fail-stop record %+v, want first failure (round 7)", fs)
	}

	st := rt.Stats()
	if st.FailStop == nil || st.FailStop.Round != 7 {
		t.Fatalf("/v1/stats fail_stop: %+v", st.FailStop)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h server.HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "degraded" {
		t.Fatalf("healthz status %q after fail-stop", h.Status)
	}
	var found bool
	for _, r := range h.Reasons {
		if strings.Contains(r, "round 7") && strings.Contains(r, "exploded") {
			found = true
		}
	}
	if !found {
		t.Fatalf("healthz reasons %v lack round forensics", h.Reasons)
	}

	// The trip auto-captured a bundle; Close drains, but the debounce-off
	// worker should already have it on disk — wait via Close ordering.
	rt.Close()
	d, err := obs.LoadDump(dir)
	if err != nil {
		t.Fatalf("no bundle after fail-stop: %v", err)
	}
	if d.Manifest.Trigger != "fail-stop" {
		t.Errorf("bundle trigger %q", d.Manifest.Trigger)
	}
	if d.FailStop == nil || d.FailStop.Round != 7 || !strings.Contains(d.FailStop.Err, "exploded") {
		t.Errorf("bundle failstop.json: %+v", d.FailStop)
	}
	if d.Runtime == nil {
		t.Error("bundle missing runtime section")
	}
	if len(d.Series("heap_mb")) == 0 && len(d.Series("upd_per_s")) == 0 {
		t.Error("bundle missing sampler series")
	}
	if !strings.Contains(string(d.Config), `"sharded"`) {
		t.Errorf("bundle config: %s", d.Config)
	}
}
