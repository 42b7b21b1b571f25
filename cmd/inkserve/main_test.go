package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/tensor"
)

func get(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// The server run starts carries both connection deadlines, and the header
// one does what it is for: a client that sends half a request line and goes
// quiet is disconnected (with bare http.ListenAndServe it was held forever).
func TestHalfRequestIsClosed(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("server deadlines: header %v idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond // the test does not wait out the real one
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/he")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection with half a request line still open after 5s: %v", err)
	}
}

func TestBuildServerFromDataset(t *testing.T) {
	h, addr, err := buildServer([]string{"-dataset", "PM", "-scale", "32", "-addr", ":0"})
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":0" {
		t.Errorf("addr = %q", addr)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	if code := get(t, ts, "/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz status %d", code)
	}
	if code := get(t, ts, "/v1/embedding?node=1"); code != http.StatusOK {
		t.Errorf("embedding status %d", code)
	}
}

func TestBuildServerBundleRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.inkb")
	// Bootstrap + persist.
	if _, _, err := buildServer([]string{"-dataset", "PM", "-scale", "32", "-save-bundle", path}); err != nil {
		t.Fatal(err)
	}
	// Resume.
	h, _, err := buildServer([]string{"-bundle", path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	if code := get(t, ts, "/v1/stats"); code != http.StatusOK {
		t.Errorf("stats status %d", code)
	}
}

// Crash-recovery workflow: serve with -save-bundle and -wal, apply updates
// over HTTP, then rebuild from -bundle + -wal; the journaled updates must
// survive into the recovered service.
func TestBuildServerWALRecovery(t *testing.T) {
	dir := t.TempDir()
	bundle := filepath.Join(dir, "engine.inkb")
	wal := filepath.Join(dir, "updates.wal")

	h, _, err := buildServer([]string{"-dataset", "PM", "-scale", "32", "-save-bundle", bundle, "-wal", wal})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	// Insert an edge between two low-degree nodes via the API.
	resp, err := http.Post(ts.URL+"/v1/update", "application/json",
		strings.NewReader(`{"changes":[{"u":300,"v":301,"insert":true},{"u":302,"v":303,"insert":true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %s", resp.StatusCode, body)
	}
	edgesBefore := statsEdges(t, ts.URL)
	ts.Close() // "crash"

	// Recover.
	h2, _, err := buildServer([]string{"-bundle", bundle, "-wal", wal})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(h2)
	defer ts2.Close()
	// The journaled edges survived into the recovered service.
	if got := statsEdges(t, ts2.URL); got != edgesBefore {
		t.Fatalf("recovered edges = %d, want %d", got, edgesBefore)
	}
	vresp, err := http.Post(ts2.URL+"/v1/verify", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	vbody, _ := io.ReadAll(vresp.Body)
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("recovered engine failed verify: %s", vbody)
	}
}

func statsEdges(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Edges int `json:"edges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Edges
}

// Observability flags: /metrics is always mounted; -pprof adds the
// profiler endpoints.
func TestBuildServerObservability(t *testing.T) {
	h, _, err := buildServer([]string{"-dataset", "PM", "-scale", "32",
		"-pprof", "-slow-update", "1h"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	if code := get(t, ts, "/metrics"); code != http.StatusOK {
		t.Errorf("metrics status %d", code)
	}
	if code := get(t, ts, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index status %d", code)
	}
	if code := get(t, ts, "/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz status %d (pprof mux must keep API routes)", code)
	}

	// Without -pprof the profiler stays unmounted.
	h2, _, err := buildServer([]string{"-dataset", "PM", "-scale", "32"})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(h2)
	defer ts2.Close()
	if code := get(t, ts2, "/debug/pprof/"); code == http.StatusOK {
		t.Error("pprof mounted without -pprof")
	}
}

func TestBuildServerErrors(t *testing.T) {
	bundle := filepath.Join(t.TempDir(), "engine.inkb")
	if _, _, err := buildServer([]string{"-dataset", "PM", "-scale", "32", "-save-bundle", bundle}); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},                                                  // no source
		{"-dataset", "nope"},                                // unknown dataset
		{"-dataset", "PM", "-model", "x"},                   // unknown model
		{"-dataset", "PM", "-agg", "medi"},                  // unknown aggregation
		{"-bundle", "/does/not/exist"},                      // missing bundle
		{"-file", "/does/not/exist"},                        // missing snapshot
		{"-dataset", "PM", "-shards", "0"},                  // no engine at all
		{"-dataset", "PM", "-shards", "-2"},                 // (used to boot one engine silently)
		{"-dataset", "PM", "-scale", "32", "-hidden", "0"},  // (used to boot a zero-width model)
		{"-dataset", "PM", "-scale", "32", "-hidden", "-4"}, // (used to panic building the weights)
		{"-dataset", "PM", "-scale", "0"},                   // (used to divide by zero)
		{"-dataset", "PM", "-scale", "-1"},                  // (used to panic allocating the graph)
		{"-dataset", "PM", "-batch", "8"},                   // removed flag: undefined like any other
		{"-dataset", "PM", "-trace-updates"},                // removed with the slow-update log: /v1/traces holds the traces
		// A bundle fixes the graph, model and state: flags that would build
		// or re-save them are refused, not ignored.
		{"-bundle", bundle, "-save-bundle", bundle + ".2"},
		{"-bundle", bundle, "-dataset", "PM"},
		{"-bundle", bundle, "-file", bundle},
		{"-bundle", bundle, "-scale", "4"},
		{"-bundle", bundle, "-seed", "2"},
		{"-bundle", bundle, "-model", "sage"},
		{"-bundle", bundle, "-agg", "mean"},
		{"-bundle", bundle, "-hidden", "16"},
	}
	for i, args := range cases {
		if _, _, err := buildServer(args); err == nil {
			t.Errorf("case %d: accepted %v", i, args)
		}
	}
}

// TestReadmeFlagTable keeps README.md's "inkserve flags" tables and the
// binary in step: every flag the binary defines is named as `-name` in the
// first column of a table row of that section, and every flag named there
// is defined.
func TestReadmeFlagTable(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### inkserve flags\n")
	if !ok {
		t.Fatal(`README.md has no "### inkserve flags" section`)
	}
	if i := strings.Index(section, "\n## "); i >= 0 {
		section = section[:i]
	}
	documented := make(map[string]bool)
	flagName := regexp.MustCompile("`-([a-z][a-z-]*)")
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `-") {
			continue
		}
		firstCol, _, _ := strings.Cut(line[1:], " | ")
		for _, m := range flagName.FindAllStringSubmatch(firstCol, -1) {
			documented[m[1]] = true
		}
	}

	fs := flag.NewFlagSet("inkserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, _, err := buildServerOn(fs, []string{"-shards", "0"}); err == nil {
		t.Fatal("-shards 0 accepted")
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("flag -%s is defined but missing from README.md's inkserve flags table", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("README.md's inkserve flags table names -%s, which the binary does not define", name)
	}
}

// Sharded serving: the flags whose feature reads one engine's internals fail
// fast (not log-and-ignore); everything the pipeline owns — -slo,
// -slow-update, -trace-ring/-trace-sample — works under -shards as on one
// engine, next to the router's own /v1/rounds.
func TestBuildServerSharded(t *testing.T) {
	for i, args := range [][]string{
		{"-dataset", "PM", "-scale", "32", "-shards", "2", "-audit-every", "16"},
		{"-dataset", "PM", "-scale", "32", "-shards", "2", "-audit-tol", "0.1"},
		{"-dataset", "PM", "-scale", "32", "-shards", "2", "-save-bundle", filepath.Join(t.TempDir(), "e.inkb")},
		{"-shards", "2", "-bundle", "/does/not/matter"},
	} {
		if _, _, err := buildServer(args); err == nil {
			t.Errorf("case %d: accepted single-engine flag with -shards: %v", i, args)
		}
	}

	h, _, err := buildServer([]string{"-dataset", "PM", "-scale", "32",
		"-shards", "2", "-slo", "1h", "-slow-update", "1ns", "-trace-ring", "128", "-trace-sample", "0"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	// Sampling is off, so the one trace is there because it was slow.
	spec, err := dataset.ByName("PM")
	if err != nil {
		t.Fatal(err)
	}
	post(t, ts.URL+"/v1/features", server.FeaturesRequest{
		Updates: []server.FeatureUpdateJSON{{Node: 1, X: make([]float32, spec.FeatLen())}},
	})
	tresp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var traces struct {
		SlowThresholdMS float64 `json:"slow_threshold_ms"`
		Traces          []struct {
			Slow    bool   `json:"slow"`
			RoundID string `json:"round_id"`
		}
	}
	err = json.NewDecoder(tresp.Body).Decode(&traces)
	tresp.Body.Close()
	if err != nil || traces.SlowThresholdMS != 1e-6 || len(traces.Traces) != 1 ||
		!traces.Traces[0].Slow || traces.Traces[0].RoundID == "" {
		t.Errorf("-shards 2 -slow-update 1ns: /v1/traces %+v (%v), want one slow trace naming its round", traces, err)
	}
	for _, path := range []string{
		"/v1/healthz", "/v1/stats", "/v1/rounds", "/v1/traces",
		"/v1/timeseries", "/v1/alerts", "/metrics",
	} {
		if code := get(t, ts, path); code != http.StatusOK {
			t.Errorf("%s status %d", path, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Shards int     `json:"shards"`
		SLOMS  float64 `json:"slo_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Shards != 2 || hz.SLOMS != 3600000 {
		t.Errorf("sharded healthz: %+v", hz)
	}
	if code := get(t, ts, "/v1/nonsense"); code != http.StatusNotFound {
		t.Errorf("unknown /v1 path status %d, want 404", code)
	}
	// What is not ported is not mounted: a typed 404, like /v1/rounds on one
	// engine.
	vresp, err := http.Post(ts.URL+"/v1/verify", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/verify under -shards: status %d, want 404", vresp.StatusCode)
	}
}

// TestKillAndRestartReplaysWAL is the one WAL replay rule, over both
// deployment shapes and both aggregator families: an existing log is
// replayed onto whatever state the process booted from (here: bootstrap
// inference, no bundle), through the same Apply the live pipeline drives. A
// "kill" abandons the server without any shutdown path — every acked update
// was fsynced before its ack — and leaves a torn record behind; the restart
// drops the torn tail, the next restart still sees what was written after
// it, and the final rows equal full inference over the mirrored graph
// (bit-exact for max, within 2e-3 for mean). Every lifetime also sends a
// request the server answers 422: the writer journals it before validation,
// so it is in the log, and every restart refuses it again without effect.
func TestKillAndRestartReplaysWAL(t *testing.T) {
	for _, shards := range []string{"1", "2"} {
		for _, agg := range []string{"max", "mean"} {
			t.Run("shards="+shards+"/"+agg, func(t *testing.T) {
				wal := filepath.Join(t.TempDir(), "updates.wal")
				args := []string{"-dataset", "PM", "-scale", "32", "-agg", agg, "-shards", shards, "-wal", wal}

				// The oracle's copy of what the server boots from.
				spec, err := dataset.ByName("PM")
				if err != nil {
					t.Fatal(err)
				}
				spec.Scale *= 32
				g, feats := dataset.Generate(spec, 1)
				model, err := buildModel("gcn", agg, 32, feats.Dim(), 1)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(5))

				// live runs one server lifetime: a few acked writes, mirrored on
				// the oracle's graph and features, then the kill.
				live := func(writes int) {
					t.Helper()
					h, _, err := buildServer(args)
					if err != nil {
						t.Fatal(err)
					}
					ts := httptest.NewServer(h)
					defer ts.Close()
					if resp, err := http.Post(ts.URL+"/v1/update", "application/json",
						strings.NewReader(`{"changes":[{"u":0,"v":0,"insert":true}]}`)); err != nil {
						t.Fatal(err)
					} else if resp.Body.Close(); resp.StatusCode != http.StatusUnprocessableEntity {
						t.Fatalf("self-loop: status %d, want 422", resp.StatusCode)
					}
					for i := 0; i < writes; i++ {
						delta := graph.RandomDelta(rng, g, 3)
						changes := make([]server.EdgeChangeJSON, len(delta))
						for j, c := range delta {
							changes[j] = server.EdgeChangeJSON{U: c.U, V: c.V, Insert: c.Insert}
						}
						post(t, ts.URL+"/v1/update", server.UpdateRequest{Changes: changes})
						if err := delta.Apply(g); err != nil {
							t.Fatal(err)
						}
						node := rng.Intn(g.NumNodes())
						x := tensor.RandVector(rng, feats.Dim(), 1)
						post(t, ts.URL+"/v1/features", server.FeaturesRequest{
							Updates: []server.FeatureUpdateJSON{{Node: int32(node), X: x}},
						})
						copy(feats.X.Row(node), x)
					}
				}

				live(4)
				// The crash caught a record half-written: a header promising
				// more payload than made it to disk.
				f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{'R', 200, 0, 0, 0, 1, 2, 3}); err != nil {
					t.Fatal(err)
				}
				f.Close()
				live(2) // restart 1: replays 9 records, drops the torn one, appends 5 more

				h, _, err := buildServer(args) // restart 2
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(h)
				defer ts.Close()
				want, err := gnn.Infer(model, g, feats.X, nil)
				if err != nil {
					t.Fatal(err)
				}
				tol := float32(0)
				if agg == "mean" {
					tol = 2e-3
				}
				for v := 0; v < g.NumNodes(); v++ {
					resp, err := http.Get(fmt.Sprintf("%s/v1/embedding?node=%d", ts.URL, v))
					if err != nil {
						t.Fatal(err)
					}
					var out server.EmbeddingResponse
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("node %d: status %d, %v", v, resp.StatusCode, err)
					}
					if !tensor.Vector(out.Embedding).ApproxEqual(want.Output().Row(v), tol) {
						t.Fatalf("node %d after two restarts: served %v, full inference over the replayed graph gives %v",
							v, out.Embedding, want.Output().Row(v))
					}
				}
				if got := statsEdges(t, ts.URL); got != g.NumEdges() {
					t.Errorf("recovered %d edges, mirror has %d", got, g.NumEdges())
				}
				// Replay goes through the live pipeline, so its rounds are counted
				// where live ones are: 12 accepted records, 2 refused.
				var st server.StatsResponse
				resp, err := http.Get(ts.URL + "/v1/stats")
				if err != nil {
					t.Fatal(err)
				}
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil || st.UpdatesServed != 12 || (st.ShardingStats != nil && st.PerShard[0].Rounds != 12) {
					t.Errorf("after replay: updates_served %d, sharding %+v (%v), want 12 each", st.UpdatesServed, st.ShardingStats, err)
				}
			})
		}
	}
}

func post(t *testing.T, url string, body any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, msg)
	}
}

// A -wal directory left by an older sharded run is refused, never ignored.
func TestBuildServerRefusesWALDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, shards := range []string{"1", "2"} {
		_, _, err := buildServer([]string{"-dataset", "PM", "-scale", "32", "-shards", shards, "-wal", dir})
		if err == nil || !strings.Contains(err.Error(), "is a directory") {
			t.Errorf("-shards %s: -wal directory not refused: %v", shards, err)
		}
	}
}
