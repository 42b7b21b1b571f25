package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/persist"
)

// newObsServer builds a server and returns it alongside its test listener,
// for tests that need to configure journaling or slow-update logging before
// (re)mounting the handler.
func newObsServer(t *testing.T) (*Server, *inkstream.Engine) {
	t.Helper()
	return newAggServer(t, gnn.AggMax)
}

// newAggServer is newObsServer over a GCN with the given aggregator.
func newAggServer(t *testing.T, agg gnn.AggKind) (*Server, *inkstream.Engine) {
	t.Helper()
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(7))
	g := dataset.GenerateRMAT(rng, 150, 600, dataset.DefaultRMAT)
	feats := dataset.NewFeatures(rng, 150, 8)
	model := gnn.NewGCN(rng, 8, 16, gnn.NewAggregator(agg))
	var c metrics.Counters
	eng, err := inkstream.New(model, g, feats.X, &c, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, &c)
	t.Cleanup(s.Close)
	return s, eng
}

// absentEdges finds n distinct edges not present in g.
func absentEdges(t *testing.T, g *graph.Graph, n int) []EdgeChangeJSON {
	t.Helper()
	var out []EdgeChangeJSON
	for u := 0; u < g.NumNodes() && len(out) < n; u++ {
		for v := u + 1; v < g.NumNodes() && len(out) < n; v++ {
			if !g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
				out = append(out, EdgeChangeJSON{U: int32(u), V: int32(v), Insert: true})
			}
		}
	}
	if len(out) < n {
		t.Fatal("graph is complete")
	}
	return out
}

func absentEdge(t *testing.T, g *graph.Graph) (int32, int32) {
	t.Helper()
	e := absentEdges(t, g, 1)[0]
	return e.U, e.V
}

func scrape(t *testing.T, url string) obs.Samples {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return samples
}

// TestMetricsExposition is the acceptance check: after one update, GET
// /metrics serves parseable Prometheus text including the update-latency
// histogram and per-condition visit counters consistent with engine state.
func TestMetricsExposition(t *testing.T) {
	srv, eng := newObsServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	u, v := absentEdge(t, eng.Graph())
	resp := postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Changes: []EdgeChangeJSON{{U: u, V: v, Insert: true}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}

	samples := scrape(t, ts.URL)

	if got, ok := samples.Get("inkstream_updates_total"); !ok || got != 1 {
		t.Errorf("inkstream_updates_total = %v, %v; want 1", got, ok)
	}
	// Latency histogram: buckets cumulative and monotone, +Inf == _count ==
	// updates, _sum present and positive.
	les, cum := samples.Buckets("inkstream_update_latency_seconds")
	if len(les) == 0 {
		t.Fatal("no inkstream_update_latency_seconds buckets")
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket counts not monotone at %d: %v", i, cum)
		}
	}
	if !math.IsInf(les[len(les)-1], 1) {
		t.Fatalf("last bucket le=%v, want +Inf", les[len(les)-1])
	}
	count, ok := samples.Get("inkstream_update_latency_seconds_count")
	if !ok || count != 1 || cum[len(cum)-1] != count {
		t.Errorf("latency _count=%v (+Inf bucket %v), want 1", count, cum[len(cum)-1])
	}
	if sum, ok := samples.Get("inkstream_update_latency_seconds_sum"); !ok || sum <= 0 {
		t.Errorf("latency _sum = %v, %v", sum, ok)
	}
	// Per-condition counters must reconcile with the engine's stats.
	st := eng.Stats()
	var visits float64
	for _, s := range samples.Family("inkstream_node_visits_total") {
		if s.Labels["condition"] == "" {
			t.Errorf("node visit sample missing condition label: %+v", s)
		}
		visits += s.Value
	}
	if want := float64(st.Total()); visits != want {
		t.Errorf("node visits sum = %v, engine total %v", visits, want)
	}
	if got, _ := samples.Get("inkstream_node_visits_total", "condition", inkstream.CondNoReset.String()); got != float64(st.Counts[inkstream.CondNoReset]) {
		t.Errorf("no-reset visits = %v, engine %d", got, st.Counts[inkstream.CondNoReset])
	}
	// The event counter behind inkstat's events/s column.
	if got, ok := samples.Get("inkstream_events_processed_total"); !ok || got <= 0 {
		t.Errorf("events processed = %v, %v", got, ok)
	}
	// Snapshot pipeline metrics: the bootstrap snapshot is epoch 1, the
	// applied batch published epoch 2, and nothing is in flight when the
	// scrape runs (publish-before-ack).
	if got, ok := samples.Get("inkstream_snapshot_epoch"); !ok || got != 2 {
		t.Errorf("snapshot epoch = %v, %v; want 2", got, ok)
	}
	if got, ok := samples.Get("inkstream_snapshot_lag_batches"); !ok || got != 0 {
		t.Errorf("snapshot lag = %v, %v; want 0", got, ok)
	}
	if got, ok := samples.Get("inkstream_reads_total"); !ok || got != 0 {
		t.Errorf("reads total = %v, %v; want 0", got, ok)
	}
	// No journal configured: the group-commit histogram exists but is
	// empty.
	if got, ok := samples.Get("inkstream_group_commit_batch_size_count"); !ok || got != 0 {
		t.Errorf("group commit _count = %v, %v; want 0", got, ok)
	}
}

// TestMetricsWALAndGroupCommit covers the WAL append-latency histogram and
// the group-commit size histogram: untouched until a request is journaled,
// then one commit covering one request.
func TestMetricsWALAndGroupCommit(t *testing.T) {
	srv, eng := newObsServer(t)
	wal, err := persist.OpenWAL(filepath.Join(t.TempDir(), "wal.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	srv.SetJournal(wal)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	samples := scrape(t, ts.URL)
	if got, _ := samples.Get("inkstream_wal_append_latency_seconds_count"); got != 0 {
		t.Errorf("wal appends before any update = %v", got)
	}

	resp := postJSON(t, ts.URL+"/v1/update", UpdateRequest{Changes: absentEdges(t, eng.Graph(), 3)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	samples = scrape(t, ts.URL)
	if got, _ := samples.Get("inkstream_wal_append_latency_seconds_count"); got != 1 {
		t.Errorf("wal appends after one update = %v, want 1", got)
	}
	// The request rode one group commit covering one journaled request.
	if got, _ := samples.Get("inkstream_group_commit_batch_size_count"); got != 1 {
		t.Errorf("group commits after one update = %v, want 1", got)
	}
	if got, _ := samples.Get("inkstream_group_commit_batch_size_sum"); got != 1 {
		t.Errorf("group commit batch sum = %v, want 1", got)
	}
	if got, _ := samples.Get("inkstream_wal_append_latency_seconds_sum"); got <= 0 {
		t.Errorf("wal append latency sum = %v", got)
	}
}

// TestSlowUpdateLog: a nanosecond threshold marks every update slow, and a
// slow request is kept in the flight recorder — outside the 1-in-64 sample —
// with the engine's per-layer trace attached, which is where the log line
// -slow-update used to print now lives (GET /v1/traces).
func TestSlowUpdateLog(t *testing.T) {
	srv, eng := newObsServer(t)
	srv.SetSlowTraceThreshold(time.Nanosecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	u, v := absentEdge(t, eng.Graph())
	postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Changes: []EdgeChangeJSON{{U: u, V: v, Insert: true}},
	})
	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := decode[struct {
		SlowThresholdMS float64 `json:"slow_threshold_ms"`
		Traces          []struct {
			Slow, Sampled bool
			Edges         int
			Engine        struct {
				Layers []json.RawMessage
			}
		}
	}](t, resp)
	if body.SlowThresholdMS != 1e-6 || len(body.Traces) != 1 {
		t.Fatalf("threshold %v ms, %d traces; want 1e-6 and the one slow request", body.SlowThresholdMS, len(body.Traces))
	}
	if tr := body.Traces[0]; !tr.Slow || tr.Sampled || tr.Edges != 1 || len(tr.Engine.Layers) != eng.Model().NumLayers() {
		t.Errorf("slow trace %+v: want slow, unsampled, 1 edge, %d engine layers", tr, eng.Model().NumLayers())
	}
	if got := srv.Stats().SlowUpdates; got != 1 {
		t.Errorf("slow_updates = %d, want 1", got)
	}
}
