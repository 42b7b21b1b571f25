package shard

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tensor"
)

// newProfiledRouter builds a small SAGE deployment with every-request trace
// sampling, so each Apply leaves both a request trace and a round profile.
func newProfiledRouter(t testing.TB, shards int) (*deployment, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(301))
	const n, featLen = 48, 5
	g := testGraph(rng, n, 120)
	x := tensor.RandMatrix(rng, n, featLen, 1)
	model := testModel(rng, "SAGE", featLen, gnn.AggMean)
	rt := newDeployment(t, model, g, x, Config{Shards: shards})
	rt.SetTraceSampling(64, 1)
	return rt, g
}

// driveUpdates applies count single-edge inserts (each its own round) plus
// one trailing feature update, all of which must succeed.
func driveUpdates(t testing.TB, rt *deployment, g *graph.Graph, count int) {
	t.Helper()
	rng := rand.New(rand.NewSource(302))
	n := g.NumNodes()
	applied := 0
	for applied < count {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		delta := graph.Delta{{U: u, V: v, Insert: true}}
		if err := rt.Apply(delta, nil); err != nil {
			t.Fatalf("apply %d: %v", applied, err)
		}
		if err := delta.Apply(g); err != nil { // keep the mirror in sync
			t.Fatal(err)
		}
		applied++
	}
	vups := []inkstream.VertexUpdate{{Node: 3, X: tensor.RandVector(rng, 5, 1)}}
	if err := rt.Apply(nil, vups); err != nil {
		t.Fatalf("feature update: %v", err)
	}
}

// TestRouterRoundProfiler pins the tentpole: every round leaves a trace
// whose stages cover begin, each layer and publish, with per-shard
// compute/barrier spans that satisfy the makespan identity, a named
// straggler, and cumulative attribution on /metrics.
func TestRouterRoundProfiler(t *testing.T) {
	rt, g := newProfiledRouter(t, 2)
	driveUpdates(t, rt, g, 5)

	p := rt.rt.RoundProfiler()
	if p == nil {
		t.Fatal("profiler disabled by default")
	}
	if got := p.Recorded(); got < 6 {
		t.Fatalf("recorded %d rounds, want >= 6", got)
	}
	layers := rt.rt.model.NumLayers()
	for _, tr := range p.Traces() {
		if len(tr.Stages) != layers+2 {
			t.Fatalf("round %d has %d stages, want %d", tr.ID, len(tr.Stages), layers+2)
		}
		if tr.Stages[0].Name != "begin" || tr.Stages[len(tr.Stages)-1].Name != "publish" {
			t.Fatalf("stage names %q ... %q", tr.Stages[0].Name, tr.Stages[len(tr.Stages)-1].Name)
		}
		for _, st := range tr.Stages {
			if len(st.Shards) != 2 {
				t.Fatalf("stage %s has %d shard spans", st.Name, len(st.Shards))
			}
			for i, sh := range st.Shards {
				if sh.Skipped {
					if sh.Compute != 0 || sh.Barrier != 0 {
						t.Fatalf("stage %s shard %d: skipped span carries compute %v barrier %v", st.Name, i, sh.Compute, sh.Barrier)
					}
					continue
				}
				if sh.Compute < 0 || sh.Compute > st.Makespan {
					t.Fatalf("stage %s shard %d: compute %v outside [0, makespan %v]", st.Name, i, sh.Compute, st.Makespan)
				}
				if sh.Barrier != st.Makespan-sh.Compute {
					t.Fatalf("stage %s shard %d: barrier %v != makespan - compute", st.Name, i, sh.Barrier)
				}
			}
		}
		if s := tr.Straggler(); s < 0 || s >= 2 {
			t.Fatalf("straggler %d out of range", s)
		}
		if sk := tr.StragglerSkew(); sk < 1 {
			t.Fatalf("straggler skew %g < 1", sk)
		}
		if bs := tr.BarrierShare(); bs < 0 || bs > 1 {
			t.Fatalf("barrier share %g outside [0,1]", bs)
		}
		if tr.Total <= 0 || tr.BSPTime() <= 0 {
			t.Fatalf("round %d: total %v, bsp %v", tr.ID, tr.Total, tr.BSPTime())
		}
	}

	// Cumulative attribution, the round families of /metrics: every
	// recorded round named one straggler, and its compute and barrier wait
	// were summed.
	var sum int64
	for i := range rt.rt.stragglerRounds {
		sum += rt.rt.stragglerRounds[i].Load()
	}
	if sum != p.Recorded() {
		t.Fatalf("straggler rounds sum %d != rounds %d", sum, p.Recorded())
	}
	if comp, wait := rt.rt.computeNS.Load(), rt.rt.barrierNS.Load(); comp <= 0 || wait < 0 {
		t.Fatalf("cumulative compute %d ns, barrier wait %d ns", comp, wait)
	}

	// Request traces join to rounds via the round ID.
	roundIDs := map[uint64]bool{}
	for _, tr := range p.Traces() {
		roundIDs[tr.ID] = true
	}
	traces := rt.FlightRecorder().Traces()
	if len(traces) == 0 {
		t.Fatal("no request traces with 1-in-1 sampling")
	}
	for _, tr := range traces {
		if tr.Round == 0 || !roundIDs[tr.Round] {
			t.Fatalf("trace %d carries round %d, not in the profiler ring", tr.ID, tr.Round)
		}
	}
}

// TestRouterProfilingDisabled pins the off switch: no round traces, no
// cumulative attribution, and /v1/rounds answers 501 instead of an empty ring.
func TestRouterProfilingDisabled(t *testing.T) {
	rt, g := newProfiledRouter(t, 2)
	rt.rt.SetRoundProfiling(0)
	driveUpdates(t, rt, g, 2)
	if rt.rt.RoundProfiler() != nil {
		t.Fatal("profiler survived SetRoundProfiling(0)")
	}
	if comp := rt.rt.computeNS.Load(); comp != 0 {
		t.Fatalf("%d ns of round compute attributed with profiling off", comp)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/rounds")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("/v1/rounds with profiling off: %d, want 501", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, out any) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d (%s)", url, resp.StatusCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return string(body)
}

// TestRoundsEndpoint covers what the router mounts on the server's surface:
// /v1/rounds names a straggler and carries per-shard spans, /v1/traces
// entries carry the round ID that joins them, the barrier-share series
// joins /v1/timeseries and the round families join /metrics. (The routes every
// deployment shape shares are covered once, over both shapes, in
// internal/server's shape table.)
func TestRoundsEndpoint(t *testing.T) {
	rt, g := newProfiledRouter(t, 2)
	driveUpdates(t, rt, g, 4)
	rt.Sampler().Tick()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	var rounds RoundsResponse
	body := getJSON(t, ts.URL+"/v1/rounds", &rounds)
	if rounds.Recorded < 5 || rounds.Shards != 2 || len(rounds.Rounds) < 5 {
		t.Fatalf("rounds response: recorded=%d shards=%d len=%d", rounds.Recorded, rounds.Shards, len(rounds.Rounds))
	}
	for _, key := range []string{`"round_id"`, `"straggler"`, `"barrier_share"`, `"bsp_us"`, `"compute_us"`, `"barrier_us"`, `"stage":"begin"`, `"stage":"publish"`} {
		if !strings.Contains(body, key) {
			t.Fatalf("/v1/rounds body missing %s:\n%s", key, body)
		}
	}
	var one RoundsResponse
	getJSON(t, ts.URL+"/v1/rounds?n=1", &one)
	if len(one.Rounds) != 1 {
		t.Fatalf("n=1 returned %d rounds", len(one.Rounds))
	}
	var none RoundsResponse
	getJSON(t, ts.URL+"/v1/rounds?min_us=1000000000", &none)
	if len(none.Rounds) != 0 {
		t.Fatalf("min_us=1e9 returned %d rounds", len(none.Rounds))
	}

	if body = getJSON(t, ts.URL+"/v1/traces", nil); !strings.Contains(body, `"round_id"`) {
		t.Fatalf("/v1/traces body missing round_id:\n%s", body)
	}

	var snap obs.TSSnapshot
	getJSON(t, ts.URL+"/v1/timeseries", &snap)
	names := map[string]bool{}
	for _, s := range snap.Series {
		names[s.Name] = true
	}
	if !names["barrier_share"] {
		t.Fatalf("timeseries missing barrier_share (have %v)", names)
	}

	var one0 server.ShardStats
	getJSON(t, ts.URL+"/v1/stats?shard=1", &one0)
	if one0.Shard != 1 || one0.OwnedNodes == 0 || one0.Epoch == 0 {
		t.Fatalf("/v1/stats?shard=1: %+v", one0)
	}

	metrics := getJSON(t, ts.URL+"/metrics", nil)
	for _, fam := range []string{
		"inkstream_round_barrier_wait_seconds_total",
		"inkstream_round_compute_seconds_total",
		"inkstream_shard_straggler_rounds_total",
	} {
		if !strings.Contains(metrics, fam) {
			t.Fatalf("/metrics missing %s", fam)
		}
	}
}

// BenchmarkRouterRoundProfiler measures the profiler tax on the full
// submit→ack round pipeline of a 2-shard deployment: profiling and request
// tracing fully off vs the serving defaults (256-round ring, 256-trace ring
// with 1-in-64 sampling). scripts/obs_overhead.sh gates the paired delta
// at <5%.
func BenchmarkRouterRoundProfiler(b *testing.B) {
	const n = 512
	for _, cfg := range []struct {
		name string
		on   bool
	}{
		{"off", false},
		{"on", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(77))
			g := testGraph(rng, n, 3*n)
			x := tensor.RandMatrix(rng, n, 8, 1)
			model := testModel(rng, "SAGE", 8, gnn.AggMean)
			rt := newDeployment(b, model, g, x, Config{Shards: 2})
			if cfg.on {
				rt.rt.SetRoundProfiling(256)
				rt.SetTraceSampling(256, 64)
			} else {
				rt.rt.SetRoundProfiling(0)
				rt.SetTraceSampling(0, 0)
			}
			seen := map[[2]graph.NodeID]bool{}
			var ins, del graph.Delta
			for len(ins) < 16 {
				u := graph.NodeID(rng.Intn(n))
				v := graph.NodeID(rng.Intn(n))
				if u == v || g.HasEdge(u, v) || seen[[2]graph.NodeID{u, v}] || seen[[2]graph.NodeID{v, u}] {
					continue
				}
				seen[[2]graph.NodeID{u, v}] = true
				ins = append(ins, graph.EdgeChange{U: u, V: v, Insert: true})
				del = append(del, graph.EdgeChange{U: u, V: v, Insert: false})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := ins
				if i%2 == 1 {
					d = del
				}
				if err := rt.Apply(d, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
