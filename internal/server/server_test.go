package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
)

func newTestServer(t *testing.T) (*httptest.Server, *inkstream.Engine) {
	t.Helper()
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(1))
	g := dataset.GenerateRMAT(rng, 200, 800, dataset.DefaultRMAT)
	feats := dataset.NewFeatures(rng, 200, 8)
	model := gnn.NewGCN(rng, 8, 16, gnn.NewAggregator(gnn.AggMax))
	var c metrics.Counters
	eng, err := inkstream.New(model, g, feats.X, &c, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, &c)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, eng
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestUpdateFlow(t *testing.T) {
	ts, eng := newTestServer(t)
	// Find an absent edge to insert.
	var u, v graph.NodeID
	for u, v = 0, 1; eng.Graph().HasEdge(u, v); v++ {
	}
	resp := postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Changes: []EdgeChangeJSON{{U: int32(u), V: int32(v), Insert: true}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[UpdateResponse](t, resp)
	if out.Applied != 1 || out.LatencyMS < 0 {
		t.Errorf("response %+v", out)
	}
	if !eng.Graph().HasEdge(u, v) {
		t.Error("edge not applied to engine")
	}
}

func TestUpdateRejectsBadBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"empty", UpdateRequest{}, http.StatusBadRequest},
		{"self-loop", UpdateRequest{Changes: []EdgeChangeJSON{{U: 3, V: 3, Insert: true}}}, http.StatusUnprocessableEntity},
		{"bad-node", UpdateRequest{Changes: []EdgeChangeJSON{{U: 3, V: 9999, Insert: true}}}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/update", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
}

func TestFeaturesFlow(t *testing.T) {
	ts, eng := newTestServer(t)
	x := make([]float32, 8)
	x[0] = 42
	resp := postJSON(t, ts.URL+"/v1/features", FeaturesRequest{
		Updates: []FeatureUpdateJSON{{Node: 5, X: x}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if eng.State().H[0].At(5, 0) != 42 {
		t.Error("feature not applied")
	}
	// Wrong dimension rejected.
	resp = postJSON(t, ts.URL+"/v1/features", FeaturesRequest{
		Updates: []FeatureUpdateJSON{{Node: 5, X: []float32{1}}},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad dim: status %d", resp.StatusCode)
	}
	// Empty batch rejected.
	resp = postJSON(t, ts.URL+"/v1/features", FeaturesRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty: status %d", resp.StatusCode)
	}
}

func TestEmbeddingFlow(t *testing.T) {
	ts, eng := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/embedding?node=7")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[EmbeddingResponse](t, resp)
	if out.Node != 7 || len(out.Embedding) != eng.Model().OutDim() {
		t.Errorf("response node=%d dim=%d", out.Node, len(out.Embedding))
	}
	// Reads resolve against the bootstrap snapshot until an update lands.
	if out.Epoch != 1 {
		t.Errorf("embedding epoch = %d, want 1", out.Epoch)
	}
	for _, bad := range []string{"node=99999", "node=-1", "node=abc", ""} {
		resp, err := http.Get(ts.URL + "/v1/embedding?" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("query %q accepted", bad)
		}
	}
}

func TestStatsFlow(t *testing.T) {
	ts, eng := newTestServer(t)
	// Drive one update so stats are non-trivial.
	rng := rand.New(rand.NewSource(9))
	delta := graph.RandomDelta(rng, eng.Graph(), 4)
	changes := make([]EdgeChangeJSON, len(delta))
	for i, c := range delta {
		changes[i] = EdgeChangeJSON{U: c.U, V: c.V, Insert: c.Insert}
	}
	if resp := postJSON(t, ts.URL+"/v1/update", UpdateRequest{Changes: changes}); resp.StatusCode != http.StatusOK {
		t.Fatalf("update failed: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := decode[StatsResponse](t, resp)
	if out.Nodes != 200 || out.UpdatesServed != 1 {
		t.Errorf("stats %+v", out)
	}
	if out.BytesFetched <= 0 {
		t.Errorf("stats missing engine activity: %+v", out)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	ts, eng := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy engine: verify status %d", resp.StatusCode)
	}
	// Corrupt the state; verify must now fail.
	eng.State().Alpha[0].Set(0, 0, 1e9)
	resp, err = http.Post(ts.URL+"/v1/verify", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupted engine: verify status %d", resp.StatusCode)
	}
}

// End-to-end: a stream of updates through the HTTP API leaves the engine
// equivalent to full recomputation.
func TestEndToEndEquivalence(t *testing.T) {
	ts, eng := newTestServer(t)
	rng := rand.New(rand.NewSource(11))
	for batch := 0; batch < 3; batch++ {
		delta := graph.RandomDelta(rng, eng.Graph(), 6)
		changes := make([]EdgeChangeJSON, len(delta))
		for i, c := range delta {
			changes[i] = EdgeChangeJSON{U: c.U, V: c.V, Insert: c.Insert}
		}
		if resp := postJSON(t, ts.URL+"/v1/update", UpdateRequest{Changes: changes}); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", batch, resp.StatusCode)
		}
	}
	want, err := gnn.Infer(eng.Model(), eng.Graph(), eng.State().H[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.State().Equal(want) {
		t.Error("engine state diverged after HTTP updates")
	}
	// And the served embedding matches the state.
	resp, err := http.Get(fmt.Sprintf("%s/v1/embedding?node=%d", ts.URL, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := decode[EmbeddingResponse](t, resp)
	wantRow := eng.Output().Row(3)
	for i := range wantRow {
		if out.Embedding[i] != wantRow[i] {
			t.Fatalf("served embedding differs at channel %d", i)
		}
	}
}
