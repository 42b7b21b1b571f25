package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
)

// TestWatchLoop polls a live in-process server of either deployment shape
// and checks the rolling summary lines carry the expected fields; on the
// 2-shard shape also the partitioned columns: shard count, epoch skew, the
// barrier-wait share and the straggler attribution from the round profiler.
func TestWatchLoop(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testWatchLoop(t, shards) })
	}
}

func testWatchLoop(t *testing.T, shards int) {
	rng := rand.New(rand.NewSource(3))
	g := dataset.GenerateRMAT(rng, 120, 500, dataset.DefaultRMAT)
	feats := dataset.NewFeatures(rng, 120, 6)
	model := gnn.NewGCN(rng, 6, 12, gnn.NewAggregator(gnn.AggMax))
	// Precompute an insert/delete toggle stream before serving starts, so
	// no goroutine reads the graph while the server mutates it.
	var bodies []string
	for u := 0; u < g.NumNodes() && len(bodies) < 100; u++ {
		for v := u + 1; v < g.NumNodes() && len(bodies) < 100; v++ {
			if g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
				continue
			}
			bodies = append(bodies,
				`{"changes":[{"u":`+itoa(u)+`,"v":`+itoa(v)+`,"insert":true}]}`,
				`{"changes":[{"u":`+itoa(u)+`,"v":`+itoa(v)+`,"insert":false}]}`)
		}
	}

	var srv *server.Server
	if shards > 1 {
		rt, err := shard.New(model, g, feats.X, shard.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		srv = server.NewOn(rt)
	} else {
		var c metrics.Counters
		eng, err := inkstream.New(model, g, feats.X, &c, inkstream.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv = server.New(eng, &c)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Background updates so the watcher sees a moving window.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; ; i = (i + 1) % len(bodies) {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := ts.Client().Post(ts.URL+"/v1/update", "application/json", strings.NewReader(bodies[i]))
			if err != nil {
				return
			}
			resp.Body.Close()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var out bytes.Buffer
	if err := watchLoop(&out, ts.URL, 20*time.Millisecond, 3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header + 3:\n%s", len(lines), out.String())
	}
	for _, field := range []string{"serving:", "epoch=", "lag=", "updates=", "reads=", "group-commits="} {
		if !strings.Contains(lines[0], field) {
			t.Errorf("header %q missing %s", lines[0], field)
		}
	}
	for _, line := range lines[1:] {
		for _, field := range []string{"upd/s=", "p99=", "events/s=", "pruned=", "epoch=", "lag=", "reads/s=", "gc="} {
			if !strings.Contains(line, field) {
				t.Errorf("line %q missing %s", line, field)
			}
		}
	}
	if shards == 1 {
		if strings.Contains(out.String(), "shards=") {
			t.Errorf("single-engine watch shows partitioned columns:\n%s", out.String())
		}
		return
	}
	for i, line := range lines {
		for _, field := range []string{"shards=2", "skew="} {
			if !strings.Contains(line, field) {
				t.Errorf("line %d %q missing %s", i, line, field)
			}
		}
	}
	// The header scrapes before the first round; the windowed lines see
	// profiled rounds and must attribute the critical path.
	for i, line := range lines[1:] {
		for _, field := range []string{"barrier=", "straggler=s"} {
			if !strings.Contains(line, field) {
				t.Errorf("watch line %d %q missing %s", i, line, field)
			}
		}
	}
}

func itoa(n int) string {
	var b [8]byte
	i := len(b)
	if n == 0 {
		return "0"
	}
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestWatchLoopErrors(t *testing.T) {
	var out bytes.Buffer
	if err := watchLoop(&out, "http://127.0.0.1:0", time.Millisecond, 1); err == nil {
		t.Error("unreachable server accepted")
	}
	if err := watchLoop(&out, "http://x", 0, 1); err == nil {
		t.Error("zero interval accepted")
	}
}
