package main

import (
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/server"
)

func testService(t *testing.T) (*httptest.Server, *inkstream.Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g := dataset.GenerateRMAT(rng, 100, 400, dataset.DefaultRMAT)
	feats := dataset.NewFeatures(rng, 100, 4)
	model := gnn.NewGCN(rng, 4, 8, gnn.NewAggregator(gnn.AggMax))
	eng, err := inkstream.New(model, g, feats.X, nil, inkstream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, nil)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

func runCtl(t *testing.T, ts *httptest.Server, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(append([]string{"-addr", ts.URL}, args...), &out)
	return out.String(), err
}

func freeEdge(eng *inkstream.Engine) (graph.NodeID, graph.NodeID) {
	for u := graph.NodeID(0); ; u++ {
		for v := u + 1; int(v) < eng.Graph().NumNodes(); v++ {
			if !eng.Graph().HasEdge(u, v) {
				return u, v
			}
		}
	}
}

func TestInsertDeleteEmbeddingStatsVerify(t *testing.T) {
	ts, eng := testService(t)
	u, v := freeEdge(eng)
	us, vs := strconv.Itoa(int(u)), strconv.Itoa(int(v))

	if out, err := runCtl(t, ts, "insert", us, vs); err != nil || !strings.Contains(out, "applied") {
		t.Fatalf("insert: %v %q", err, out)
	}
	if !eng.Graph().HasEdge(u, v) {
		t.Fatal("edge not inserted")
	}
	if out, err := runCtl(t, ts, "embedding", "5"); err != nil || !strings.Contains(out, "embedding") {
		t.Fatalf("embedding: %v %q", err, out)
	}
	if out, err := runCtl(t, ts, "stats"); err != nil || !strings.Contains(out, "updates_served") {
		t.Fatalf("stats: %v %q", err, out)
	}
	if out, err := runCtl(t, ts, "verify"); err != nil || !strings.Contains(out, "verified") {
		t.Fatalf("verify: %v %q", err, out)
	}
	if _, err := runCtl(t, ts, "delete", us, vs); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if eng.Graph().HasEdge(u, v) {
		t.Fatal("edge not deleted")
	}
}

func TestFeature(t *testing.T) {
	ts, eng := testService(t)
	if _, err := runCtl(t, ts, "feature", "3", "0.1,0.2,0.3,0.4"); err != nil {
		t.Fatalf("feature: %v", err)
	}
	if eng.State().H[0].At(3, 1) != 0.2 {
		t.Error("feature not applied")
	}
}

func TestServerErrorsSurface(t *testing.T) {
	ts, _ := testService(t)
	// Self-loop insert is rejected by the engine; inkctl must surface it.
	if _, err := runCtl(t, ts, "insert", "4", "4"); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := runCtl(t, ts, "embedding", "99999"); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestUsageErrors(t *testing.T) {
	ts, _ := testService(t)
	cases := [][]string{
		{},                             // no command
		{"frobnicate"},                 // unknown command
		{"submit", "1", "2", "insert"}, // removed command: unknown like any other
		{"insert", "1"},                // missing V
		{"insert", "x", "2"},           // bad node
		{"feature", "1"},               // missing features
		{"feature", "1", "a,b"},        // bad floats
		{"embedding"},                  // missing node
		{"embedding", "abc"},           // bad node
	}
	for i, args := range cases {
		if _, err := runCtl(t, ts, args...); err == nil {
			t.Errorf("case %d: accepted %v", i, args)
		}
	}
}
