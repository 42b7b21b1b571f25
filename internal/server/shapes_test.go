package server_test

import (
	"archive/tar"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// The shape table: everything the one write pipeline promises — request
// tracing, the time-series window, SLO burn-rate alerts, the shared routes,
// /debug/bundle, validation and shutdown — is checked once, over both things
// the pipeline can drive: one engine (server.New) and a 2-shard router
// (server.NewOn over internal/shard). What only one shape has lives next to
// it: drift audit and verify in this package's engine tests, rounds
// and fail-stop in internal/shard's.

const (
	shapeNodes   = 150
	shapeFeatLen = 8
)

var shapes = []struct {
	name   string
	shards int
}{{"engine", 1}, {"2-shard", 2}}

func forEachShape(t *testing.T, f func(t *testing.T, shards int)) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) { f(t, sh.shards) })
	}
}

// deploy builds one server of the given shape over an undirected graph and
// returns it with the caller's mirror of its graph.
func deploy(t *testing.T, shards int) (*server.Server, *graph.Graph) {
	t.Helper()
	return deployOn(t, shards, true)
}

// deployOn is deploy over an undirected graph or over a directed one that
// keeps one arc of each of its edges, oriented either way.
func deployOn(t *testing.T, shards int, undirected bool) (*server.Server, *graph.Graph) {
	t.Helper()
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(7))
	g := dataset.GenerateRMAT(rng, shapeNodes, 600, dataset.DefaultRMAT)
	if !undirected {
		var arcs [][2]graph.NodeID
		for _, e := range g.Edges() {
			if (e[0] < e[1]) == ((e[0]+e[1])%2 == 0) {
				arcs = append(arcs, e)
			}
		}
		var err error
		if g, err = graph.FromPairs(shapeNodes, false, arcs); err != nil {
			t.Fatal(err)
		}
	}
	feats := dataset.NewFeatures(rng, shapeNodes, shapeFeatLen)
	model := gnn.NewGCN(rng, shapeFeatLen, 16, gnn.NewAggregator(gnn.AggMax))
	var srv *server.Server
	if shards > 1 {
		rt, err := shard.New(model, g.Clone(), feats.X, shard.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		srv = server.NewOn(rt)
	} else {
		c := new(metrics.Counters)
		eng, err := inkstream.New(model, g.Clone(), feats.X, c, inkstream.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv = server.New(eng, c)
	}
	t.Cleanup(srv.Close)
	return srv, g
}

// absent returns n distinct edges missing from g.
func absent(t *testing.T, g *graph.Graph, n int) []graph.EdgeChange {
	t.Helper()
	var out []graph.EdgeChange
	for u := 0; u < g.NumNodes() && len(out) < n; u++ {
		for v := u + 1; v < g.NumNodes() && len(out) < n; v++ {
			if !g.HasEdge(graph.NodeID(u), graph.NodeID(v)) && !g.HasEdge(graph.NodeID(v), graph.NodeID(u)) {
				out = append(out, graph.EdgeChange{U: graph.NodeID(u), V: graph.NodeID(v), Insert: true})
			}
		}
	}
	if len(out) < n {
		t.Fatalf("only %d absent edges", len(out))
	}
	return out
}

// insert applies each edge as its own request; all must succeed.
func insert(t *testing.T, srv *server.Server, edges []graph.EdgeChange) {
	t.Helper()
	for _, e := range edges {
		if err := srv.Apply(graph.Delta{e}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// post sends body as JSON and returns the status and raw response body.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out)
}

// wantError requires the typed JSON error body with the given status.
func wantError(t *testing.T, what string, code int, body string, want int) {
	t.Helper()
	var errBody map[string]string
	if err := json.Unmarshal([]byte(body), &errBody); code != want || err != nil || errBody["error"] == "" {
		t.Errorf("%s: %d %q, want a JSON %d", what, code, body, want)
	}
}

// get fetches url, optionally decodes a 200 body into out, and returns the
// status and raw body.
func get(t *testing.T, url string, out any) (int, string) {
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
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp.StatusCode, string(body)
}

// TestShapesRequestTraces: with 1-in-1 sampling every request lands in the
// ring with ordered stage marks and the fused count, carrying the engine's
// per-layer trace (engine) or the round ID (sharded); GET /v1/traces serves
// them newest first with working filters. Failed and slow requests are
// recorded even outside the sample.
func TestShapesRequestTraces(t *testing.T) {
	forEachShape(t, func(t *testing.T, shards int) {
		srv, g := deploy(t, shards)
		srv.SetTraceSampling(64, 1)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		edges := absent(t, g, 6)
		insert(t, srv, edges)

		f := srv.FlightRecorder()
		if f.Recorded() < int64(len(edges)) {
			t.Fatalf("recorded %d traces, want >= %d", f.Recorded(), len(edges))
		}
		for _, tr := range f.Traces() {
			if tr.Kind != "update" || tr.Edges != 1 || tr.Fused < 1 {
				t.Errorf("trace %+v", tr)
			}
			// Cumulative marks must be monotone across reached stages and end
			// at the ack (no journal configured, so the journal mark stays 0).
			if tr.Marks[obs.StageJournal] != 0 {
				t.Errorf("journal mark %v without a journal", tr.Marks[obs.StageJournal])
			}
			prev := time.Duration(0)
			for st := obs.StageCoalesce; st < obs.StageCount; st++ {
				m := tr.Marks[st]
				if m == 0 {
					t.Fatalf("stage %v unreached in %+v", st, tr)
				}
				if m < prev {
					t.Fatalf("marks not monotone in %+v", tr)
				}
				prev = m
			}
			if tr.Marks[obs.StageAck] != tr.Total {
				t.Fatalf("ack mark %v != total %v in %+v", tr.Marks[obs.StageAck], tr.Total, tr)
			}
			if shards == 1 && tr.Engine == nil {
				t.Errorf("sampled trace missing engine trace: %+v", tr)
			}
			if shards > 1 && tr.Round == 0 {
				t.Errorf("sampled trace names no round: %+v", tr)
			}
		}

		var body server.TracesResponse
		get(t, ts.URL+"/v1/traces?n=3", &body)
		if body.SampleEvery != 1 || body.Recorded < int64(len(edges)) || len(body.Traces) != 3 {
			t.Fatalf("traces response: every=%d recorded=%d n=%d", body.SampleEvery, body.Recorded, len(body.Traces))
		}
		if body.Traces[0].ID < body.Traces[1].ID {
			t.Error("traces not newest first")
		}
		var none server.TracesResponse
		get(t, ts.URL+"/v1/traces?min_us=10000000", &none)
		if len(none.Traces) != 0 {
			t.Errorf("min_us filter kept %d traces", len(none.Traces))
		}

		srv.SetTraceSampling(16, 0) // sampling off: only slow/failed record
		if err := srv.Apply(graph.Delta{{U: 0, V: 0, Insert: true}}, nil); err == nil {
			t.Fatal("self-loop accepted")
		}
		traces := srv.FlightRecorder().Traces()
		if len(traces) != 1 || traces[0].Err == "" {
			t.Fatalf("failed request not recorded: %v", traces)
		}

		// A slow request is kept outside the sample in both shapes, with what
		// the backend has to say about its apply, and counted.
		srv.SetSlowTraceThreshold(time.Nanosecond)
		insert(t, srv, absent(t, g, 7)[6:])
		tr := srv.FlightRecorder().Traces()[0]
		if !tr.Slow || tr.Sampled || tr.Err != "" {
			t.Fatalf("newest trace is not the slow request: %+v", tr)
		}
		if shards == 1 && tr.Engine == nil || shards > 1 && tr.Round == 0 {
			t.Errorf("slow trace carries no engine trace / round ID: %+v", tr)
		}
		if got := srv.Stats().SlowUpdates; got != 1 {
			t.Errorf("slow_updates = %d, want 1", got)
		}
	})
}

// TestShapesTimeseries: after updates and a manual tick, /v1/timeseries
// serves the pipeline's series with a nonzero update rate and ack p99.
func TestShapesTimeseries(t *testing.T) {
	forEachShape(t, func(t *testing.T, shards int) {
		srv, g := deploy(t, shards)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		srv.Sampler().Tick() // prime counters
		insert(t, srv, absent(t, g, 4))
		srv.Sampler().Tick()

		var snap obs.TSSnapshot
		get(t, ts.URL+"/v1/timeseries", &snap)
		if snap.IntervalMS != 1000 || snap.Ticks < 2 {
			t.Fatalf("snapshot meta: %+v", snap)
		}
		got := map[string][]float64{}
		for _, s := range snap.Series {
			got[s.Name] = s.Samples
		}
		names := []string{"upd_per_s", "ack_p99_ms", "lag_batches", "heap_mb"}
		if shards == 1 {
			names = append(names, "drift_max_abs")
		} else {
			names = append(names, "barrier_share")
		}
		for _, name := range names {
			if _, ok := got[name]; !ok {
				t.Errorf("series %q missing (have %v)", name, snap.Series)
			}
		}
		// The ticks between priming and the read saw 4 updates; the
		// background ticker may split them across samples, so assert on the
		// window total.
		var updSum, ackMax float64
		for _, v := range got["upd_per_s"] {
			updSum += v
		}
		for _, v := range got["ack_p99_ms"] {
			ackMax = max(ackMax, v)
		}
		if updSum < 4 {
			t.Errorf("upd_per_s %v sums to %v, want >= 4", got["upd_per_s"], updSum)
		}
		if ackMax <= 0 {
			t.Errorf("ack_p99_ms %v never nonzero", got["ack_p99_ms"])
		}
		if lag := got["lag_batches"]; lag[len(lag)-1] != 0 {
			t.Errorf("lag_batches %v, want 0 once every update is acked", lag)
		}
	})
}

// TestShapesSLOAlerts drives the burn-rate alert lifecycle: SetHealthSLO
// installs the fast/slow rule pair, a sub-microsecond SLO makes every tick's
// windowed ack p99 a breach, the fast rule fires after its hold, /v1/alerts
// serves the status, /healthz degrades naming the alert, and clearing the
// SLO resolves everything.
func TestShapesSLOAlerts(t *testing.T) {
	forEachShape(t, func(t *testing.T, shards int) {
		srv, g := deploy(t, shards)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		var alerts obs.AlertsResponse
		get(t, ts.URL+"/v1/alerts", &alerts)
		if alerts.Firing != 0 {
			t.Fatalf("alerts firing with no SLO set: %+v", alerts)
		}
		srv.SetHealthSLO(time.Nanosecond)
		if got := len(srv.Alerts().Rules()); got != 2 {
			t.Fatalf("SetHealthSLO installed %d rules, want 2", got)
		}
		for _, e := range absent(t, g, 4) {
			insert(t, srv, []graph.EdgeChange{e})
			srv.Sampler().Tick()
		}
		if got := srv.Alerts().Firing(); len(got) == 0 {
			t.Fatal("no alert firing after sustained SLO breaches")
		}
		get(t, ts.URL+"/v1/alerts", &alerts)
		if alerts.Firing == 0 || len(alerts.Alerts) != 2 {
			t.Fatalf("alerts response %+v", alerts)
		}
		var h server.HealthzResponse
		get(t, ts.URL+"/healthz", &h)
		if h.Status != "degraded" || len(h.AlertsFiring) == 0 {
			t.Fatalf("healthz under fire: %+v", h)
		}

		srv.SetHealthSLO(0)
		if got := srv.Alerts().Firing(); len(got) != 0 {
			t.Fatalf("alerts survive SLO removal: %v", got)
		}
		get(t, ts.URL+"/healthz", &h)
		if h.Status != "ok" {
			t.Fatalf("healthz after SLO removal: %+v", h)
		}
	})
}

// TestShapesEndpoints pins the one route table: /healthz and /v1/stats carry
// the shape fields for either backend, the pipeline's metric families are
// exported by both, unknown /v1/* paths and out-of-range embedding reads get
// a typed JSON 404, and the shape-specific routes answer on the shape that
// has them and say so on the one that does not.
func TestShapesEndpoints(t *testing.T) {
	forEachShape(t, func(t *testing.T, shards int) {
		srv, g := deploy(t, shards)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		insert(t, srv, absent(t, g, 3))

		for _, path := range []string{"/healthz", "/v1/healthz"} {
			var h server.HealthzResponse
			if code, _ := get(t, ts.URL+path, &h); code != http.StatusOK || h.Status != "ok" {
				t.Fatalf("%s: %d %+v", path, code, h)
			}
			if h.Shards != shards || h.Epoch == 0 || h.EpochSkew != 0 || h.UptimeSeconds < 0 {
				t.Errorf("%s: %+v", path, h)
			}
			// Only the backend that runs a drift auditor reports one.
			if audits := shards == 1; (h.DriftMaxAbs != nil) != audits || (h.AuditFailures != nil) != audits {
				t.Errorf("%s: drift_max_abs %v, audit_failures %v on %d shard(s)", path, h.DriftMaxAbs, h.AuditFailures, shards)
			}
		}
		var st server.StatsResponse
		get(t, ts.URL+"/v1/stats", &st)
		if st.Shards != shards || st.Nodes != shapeNodes || st.Edges != g.NumEdges()+3 || st.UpdatesServed != 3 || st.BytesFetched <= 0 {
			t.Errorf("stats: %+v", st)
		}
		if (st.ShardingStats != nil) != (shards > 1) {
			t.Errorf("sharding section present=%v on %d shard(s)", st.ShardingStats != nil, shards)
		}

		_, text := get(t, ts.URL+"/metrics", nil)
		samples, err := obs.ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range []string{
			"inkstream_update_latency_seconds_count", "inkstream_updates_total",
			"inkstream_snapshot_epoch", "inkstream_events_processed_total",
		} {
			if v, _ := samples.Get(fam); v <= 0 {
				t.Errorf("/metrics %s = %v after three updates", fam, v)
			}
		}
		var visits float64
		for _, s := range samples.Family("inkstream_node_visits_total") {
			visits += s.Value
		}
		if visits <= 0 {
			t.Error("/metrics inkstream_node_visits_total counts no visit after three updates")
		}

		code, body := get(t, ts.URL+"/v1/nonsense", nil)
		wantError(t, "unknown /v1 path", code, body, http.StatusNotFound)
		// The removed pre-WAL route is unknown like any other.
		code, body = post(t, ts.URL+"/v1/submit", `{"u":1,"v":2,"insert":true}`)
		wantError(t, "POST /v1/submit", code, body, http.StatusNotFound)
		// A read misses only out of range, at either end.
		for _, node := range []int{-1, shapeNodes} {
			code, body = get(t, fmt.Sprintf("%s/v1/embedding?node=%d", ts.URL, node), nil)
			wantError(t, fmt.Sprintf("GET /v1/embedding?node=%d", node), code, body, http.StatusNotFound)
		}

		roundsCode, _ := get(t, ts.URL+"/v1/rounds", nil)
		shardCode, _ := get(t, ts.URL+"/v1/stats?shard=0", nil)
		vresp, err := http.Post(ts.URL+"/v1/verify", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		vresp.Body.Close()
		want := [3]int{http.StatusNotFound, http.StatusBadRequest, http.StatusOK}
		if shards > 1 {
			want = [3]int{http.StatusOK, http.StatusOK, http.StatusNotFound}
		}
		if got := [3]int{roundsCode, shardCode, vresp.StatusCode}; got != want {
			t.Errorf("/v1/rounds, /v1/stats?shard=0, /v1/verify: %v, want %v", got, want)
		}
	})
}

// TestShapesBundleEndpoint: /debug/bundle is 501 until EnableBlackBox, then
// serves a well-formed tar.gz without writing to the dump directory; a
// sharded deployment's bundle also carries its round profiles.
func TestShapesBundleEndpoint(t *testing.T) {
	forEachShape(t, func(t *testing.T, shards int) {
		srv, g := deploy(t, shards)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		insert(t, srv, absent(t, g, 1))

		if code, _ := get(t, ts.URL+"/debug/bundle", nil); code != http.StatusNotImplemented {
			t.Fatalf("disabled bundle status %d, want 501", code)
		}
		srv.EnableBlackBox(obs.BlackBoxConfig{Dir: t.TempDir(), Debounce: -1})
		resp, err := http.Get(ts.URL + "/debug/bundle")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bundle status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
			t.Errorf("content type %q", ct)
		}
		gz, err := gzip.NewReader(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		tr := tar.NewReader(gz)
		for {
			hdr, err := tr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, hdr.Name)
		}
		joined := strings.Join(names, " ")
		want := []string{"MANIFEST.json", "runtime.json", "timeseries.json", "traces.json", "config.json"}
		if shards > 1 {
			want = append(want, "rounds.json")
		}
		for _, name := range want {
			if !strings.Contains(joined, name) {
				t.Errorf("tar missing %s: %v", name, names)
			}
		}
	})
}

// TestShapesValidation pins all-or-nothing application: invalid batches are
// rejected whole with the error of their fault and no state change, the
// deployment stays healthy, and a valid batch still lands afterwards — on
// directed and undirected graphs, and at 3 shards too. On a sharded shape
// every shard validates the sub-batch it owns before any shard applies, so a
// batch whose bad arc lands on another shard than its good one is refused
// the same way, without a round.
func TestShapesValidation(t *testing.T) {
	check := func(t *testing.T, shards int) {
		for _, undirected := range []bool{false, true} {
			name := "directed"
			if undirected {
				name = "undirected"
			}
			t.Run(name, func(t *testing.T) { checkValidation(t, shards, undirected) })
		}
	}
	forEachShape(t, check)
	t.Run("3-shard", func(t *testing.T) { check(t, 3) })
}

func checkValidation(t *testing.T, shards int, undirected bool) {
	srv, g := deployOn(t, shards, undirected)
	missing := absent(t, g, 1)[0]
	var present graph.EdgeChange
	for u := 0; u < g.NumNodes() && !present.Insert; u++ {
		if out := g.OutNeighbors(graph.NodeID(u)); len(out) > 0 {
			present = graph.EdgeChange{U: graph.NodeID(u), V: out[0], Insert: true}
		}
	}
	// A valid insert whose arcs all land on the first shard and an invalid
	// one whose arcs all land on the last (the router's hash partition;
	// any two edges on the engine).
	part, err := graph.PartitionByStrategy("", g, max(shards, 2))
	if err != nil {
		t.Fatal(err)
	}
	on := func(e graph.EdgeChange, s int) bool { return part.Owner(e.U) == s && part.Owner(e.V) == s }
	var first, last graph.EdgeChange
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			e := graph.EdgeChange{U: u, V: v, Insert: true}
			switch {
			case u == v:
			case !first.Insert && on(e, 0) && !g.HasEdge(u, v) && !g.HasEdge(v, u):
				first = e
			case !last.Insert && on(e, part.NumShards()-1) && g.HasEdge(u, v):
				last = e
			}
		}
	}
	if !first.Insert || !last.Insert {
		t.Fatalf("no edge inside shard 0 (%v) or inside the last shard (%v)", first, last)
	}

	type row struct {
		name  string
		delta graph.Delta
		vups  []inkstream.VertexUpdate
		want  error // the sentinel the rejection wraps; nil when it has none
	}
	cases := []row{
		// First, so that a router which left a shard's sub-batch unchecked
		// fails here rather than on a later row: the valid half lands on
		// the first shard, the bad one on the last.
		{"cross-shard", graph.Delta{first, last}, nil, graph.ErrDuplicateEdge},
		{"insert-existing", graph.Delta{present}, nil, graph.ErrDuplicateEdge},
		{"delete-missing", graph.Delta{{U: missing.U, V: missing.V, Insert: false}}, nil, graph.ErrMissingEdge},
		{"edge-out-of-range", graph.Delta{{U: 1, V: shapeNodes + 5, Insert: true}}, nil, graph.ErrBadNode},
		{"self-loop", graph.Delta{{U: 3, V: 3, Insert: true}}, nil, graph.ErrSelfLoop},
		{"edge-twice", graph.Delta{missing, missing}, nil, nil},
		{"vup-out-of-range", nil, []inkstream.VertexUpdate{{Node: shapeNodes + 5, X: make(tensor.Vector, shapeFeatLen)}}, graph.ErrBadNode},
		{"vup-bad-dim", nil, []inkstream.VertexUpdate{{Node: 1, X: make(tensor.Vector, shapeFeatLen+1)}}, nil},
		{"vup-duplicate", nil, []inkstream.VertexUpdate{
			{Node: 2, X: make(tensor.Vector, shapeFeatLen)},
			{Node: 2, X: make(tensor.Vector, shapeFeatLen)},
		}, nil},
		// The second half of an otherwise valid batch is bad: the first
		// half must not land.
		{"half-valid", graph.Delta{missing, present}, nil, graph.ErrDuplicateEdge},
	}
	if undirected {
		// One edge named from both ends touches it twice.
		cases = append(cases, row{"both-directions", graph.Delta{missing, {U: missing.V, V: missing.U, Insert: true}}, nil, nil})
	}
	for _, tc := range cases {
		err := srv.Apply(tc.delta, tc.vups)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	st := srv.Stats()
	if st.UpdatesServed != 0 {
		t.Fatalf("rejected batches counted as %d served updates", st.UpdatesServed)
	}
	if st.Edges != g.NumEdges() {
		t.Fatalf("edge count drifted to %d, want %d", st.Edges, g.NumEdges())
	}
	if shards > 1 {
		for _, ps := range st.PerShard {
			if ps.Rounds != 0 {
				t.Fatalf("rejected batches produced %d rounds on shard %d", ps.Rounds, ps.Shard)
			}
		}
		if st.FailStop != nil {
			t.Fatal("rejections fail-stopped the deployment")
		}
	}

	// A valid batch still lands after the rejections.
	if err := srv.Apply(graph.Delta{missing}, nil); err != nil {
		t.Fatalf("valid batch after rejections: %v", err)
	}
	if got := srv.Stats().Edges; got != g.NumEdges()+1 {
		t.Fatalf("edge count %d after insert, want %d", got, g.NumEdges()+1)
	}
}

// TestShapesBodyLimits pins decodeBody on both mutation routes: a body over
// the server's 16 MiB limit is answered 413, anything but whitespace after
// the one JSON value 400, and neither reaches the pipeline — the same
// requests without the padding or the garbage are applied.
func TestShapesBodyLimits(t *testing.T) {
	forEachShape(t, func(t *testing.T, shards int) {
		srv, g := deploy(t, shards)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		e := absent(t, g, 1)[0]
		update := fmt.Sprintf(`{"changes":[{"u":%d,"v":%d,"insert":true}]}`, e.U, e.V)
		features := `{"updates":[{"node":1,"x":[0,0,0,0,0,0,0,0]}]}`
		pad := strings.Repeat(" ", 16<<20) // leading whitespace is valid JSON: only the size is wrong

		before := srv.Stats()
		var hBefore, hAfter server.HealthzResponse
		get(t, ts.URL+"/healthz", &hBefore)
		for _, tc := range []struct {
			name, path, body string
			want             int
		}{
			{"update-oversized", "/v1/update", pad + update, http.StatusRequestEntityTooLarge},
			{"features-oversized", "/v1/features", pad + features, http.StatusRequestEntityTooLarge},
			{"update-trailing-garbage", "/v1/update", update + " x", http.StatusBadRequest},
			{"update-second-value", "/v1/update", update + update, http.StatusBadRequest},
			{"features-trailing-garbage", "/v1/features", features + "]", http.StatusBadRequest},
		} {
			code, body := post(t, ts.URL+tc.path, tc.body)
			wantError(t, tc.name, code, body, tc.want)
		}
		after := srv.Stats()
		get(t, ts.URL+"/healthz", &hAfter)
		_, text := get(t, ts.URL+"/metrics", nil)
		if hAfter.Epoch != hBefore.Epoch || after.UpdatesServed != 0 || after.Edges != before.Edges ||
			!strings.Contains(text, "\ninkstream_snapshot_lag_batches 0\n") {
			t.Fatalf("a refused body reached the pipeline: before %+v, after %+v", before, after)
		}

		for path, body := range map[string]string{"/v1/update": update + "\n", "/v1/features": features} {
			if code, out := post(t, ts.URL+path, body); code != http.StatusOK {
				t.Errorf("%s with a well-formed body: %d %q", path, code, out)
			}
		}
		if got := srv.Stats(); got.UpdatesServed != 2 || got.Edges != before.Edges+1 {
			t.Errorf("stats after the well-formed requests: %+v", got)
		}
	})
}

// TestShapesClose pins shutdown: every request the pipeline accepted gets
// exactly one outcome even when Close races the writers (nil, or
// ErrServerClosed for the ones Close overtook — never an Apply that stays
// blocked), Apply after Close fails with ErrServerClosed, and reads keep
// serving.
func TestShapesClose(t *testing.T) {
	forEachShape(t, func(t *testing.T, shards int) {
		srv, g := deploy(t, shards)

		// One closed-loop writer per edge, so some sixty requests are queued
		// or in flight whenever Close lands.
		var applied, overtaken atomic.Int64
		var wg sync.WaitGroup
		for _, e := range absent(t, g, 64) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					e.Insert = i%2 == 0
					switch err := srv.Apply(graph.Delta{e}, nil); err {
					case nil:
						applied.Add(1)
					case server.ErrServerClosed:
						overtaken.Add(1)
						return
					default:
						t.Errorf("outcome %v", err)
						return
					}
				}
			}()
		}
		for applied.Load() < 8 {
			time.Sleep(50 * time.Microsecond)
		}
		srv.Close()
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("an accepted request never got an outcome (%d applied, %d overtaken so far)", applied.Load(), overtaken.Load())
		}
		t.Logf("%d applied, %d writers overtaken by Close", applied.Load(), overtaken.Load())

		if err := srv.Apply(graph.Delta{{U: 0, V: 1, Insert: true}}, nil); err != server.ErrServerClosed {
			t.Fatalf("apply after close: %v, want ErrServerClosed", err)
		}
		if _, _, ok := srv.ReadEmbedding(0); !ok {
			t.Fatal("reads stopped serving after close")
		}
	})
}
