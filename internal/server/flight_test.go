package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
)

// healthz fetches /healthz, which answers 200 also when degraded.
// auditHealth is a one-engine /healthz body with the drift auditor's two
// fields, which only that backend emits, read as values.
type auditHealth struct {
	HealthzResponse
	DriftMaxAbs   float64 `json:"drift_max_abs"`
	AuditFailures int64   `json:"audit_failures"`
}

func healthz(t *testing.T, url string) auditHealth {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", resp.StatusCode)
	}
	var h auditHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHealthzDegraded: breaching the ack SLO or failing the drift audit
// flips /healthz to degraded with reasons, while the HTTP status stays 200.
// (The healthy response is covered for both shapes in shapes_test.go.)
func TestHealthzDegraded(t *testing.T) {
	srv, eng := newObsServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Breach the SLO: apply an update (so the latency window is nonzero),
	// tick, and set an absurdly low objective.
	e := absentEdges(t, eng.Graph(), 1)[0]
	if err := srv.Apply(graph.Delta{{U: e.U, V: e.V, Insert: true}}, nil); err != nil {
		t.Fatal(err)
	}
	srv.Sampler().Tick()
	srv.SetHealthSLO(time.Nanosecond)
	if h := healthz(t, ts.URL); h.Status != "degraded" || len(h.Reasons) == 0 {
		t.Fatalf("SLO breach not degraded: %+v", h)
	}
	srv.SetHealthSLO(0)

	// Fail the drift audit: corrupt every output row, audit, check status.
	out := eng.Output()
	for i := 0; i < out.Rows; i++ {
		out.Row(i)[0] += 1.0
	}
	if _, err := srv.AuditNow(4); err == nil {
		t.Fatal("audit passed on corrupted state")
	}
	if h := healthz(t, ts.URL); h.Status != "degraded" || h.DriftMaxAbs < 0.5 || h.AuditFailures < 1 {
		t.Fatalf("audit failure not reported: %+v", h)
	}
}

// TestDriftAuditCorruption: an audit of a consistent engine passes and
// publishes zero drift; deliberate corruption fails the next one, which
// /healthz counts and the drift_max_abs series (inkstat's drift sparkline)
// shows.
func TestDriftAuditCorruption(t *testing.T) {
	srv, eng := newObsServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	drift := func() float64 {
		srv.Sampler().Tick()
		v, _ := srv.Sampler().Last("drift_max_abs")
		return v
	}

	// A healthy monotonic-aggregator engine audits clean.
	res, err := srv.AuditNow(8)
	if err != nil {
		t.Fatalf("audit on healthy engine: %v", err)
	}
	if res.MaxAbsDiff != 0 || res.Nodes != 8 {
		t.Errorf("healthy audit: %+v", res)
	}
	if h := healthz(t, ts.URL); h.DriftMaxAbs != 0 || h.AuditFailures != 0 || h.Status != "ok" {
		t.Errorf("healthz after a clean audit: %+v", h)
	}
	if v := drift(); v != 0 {
		t.Errorf("drift_max_abs %v after a clean audit", v)
	}

	// Corrupt the maintained output; the audit must fail and say so.
	out := eng.Output()
	for i := 0; i < out.Rows; i++ {
		out.Row(i)[0] += 0.25
	}
	if _, err := srv.AuditNow(8); err == nil {
		t.Fatal("audit passed on corrupted engine")
	}
	if h := healthz(t, ts.URL); h.AuditFailures != 1 || h.DriftMaxAbs < 0.2 {
		t.Errorf("healthz after corruption: %+v", h)
	}
	if v := drift(); v < 0.2 {
		t.Errorf("drift_max_abs %v after corruption", v)
	}
}

// nudge adds d to every element of every maintained output row (call it
// while the pipeline is idle).
func nudge(eng *inkstream.Engine, d float32) {
	out := eng.Output()
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += d
		}
	}
}

// TestDriftAuditExactOnMonotonic: on an all-max model the maintained state
// is bit-exact by construction, so the audit fails on a difference far
// below the sum/mean tolerance.
func TestDriftAuditExactOnMonotonic(t *testing.T) {
	srv, eng := newObsServer(t)
	nudge(eng, 1e-6)
	if res, err := srv.AuditNow(8); err == nil {
		t.Fatalf("audit passed a 1e-6 difference on a max model: %+v", res)
	}
}

// TestVerifyHonoursAuditTol: POST /v1/verify judges a sum/mean model by the
// configured -audit-tol, also with the audit loop off (every 0).
func TestVerifyHonoursAuditTol(t *testing.T) {
	srv, eng := newAggServer(t, gnn.AggMean)
	srv.EnableDriftAudit(0, 0, 1e-4)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	verify := func() (int, VerifyResponse) {
		resp, err := http.Post(ts.URL+"/v1/verify", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v VerifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, v
	}
	if code, v := verify(); code != http.StatusOK || v.Status != "verified" {
		t.Fatalf("fresh mean engine: %d %+v", code, v)
	}
	nudge(eng, 1e-3)
	if code, v := verify(); code != http.StatusInternalServerError || v.Status != "failed" {
		t.Fatalf("1e-3 drift against tol 1e-4: %d %+v", code, v)
	}
}

// TestAuditPace: an audit needs both the stride (applied updates since the
// last one) and the CPU budget (wall time since the last one ended).
func TestAuditPace(t *testing.T) {
	t0 := time.Unix(1000, 0)
	after80ms := nextAudit(t0, 80*time.Millisecond)
	for _, tc := range []struct {
		name    string
		pace    auditPace
		now     time.Time
		updates uint64
		want    bool
	}{
		{"first audit, stride met", auditPace{every: 4}, t0, 4, true},
		{"first audit, stride short", auditPace{every: 4}, t0, 3, false},
		{"stride short", auditPace{every: 4, last: 10}, t0, 13, false},
		{"stride met", auditPace{every: 4, last: 10}, t0, 14, true},
		{"inside budget", auditPace{every: 1, last: 10, notBefore: after80ms}, t0.Add(3900 * time.Millisecond), 1000, false},
		{"budget spent", auditPace{every: 1, last: 10, notBefore: after80ms}, t0.Add(3930 * time.Millisecond), 1000, true},
		{"budget spent, stride short", auditPace{every: 256, last: 10, notBefore: after80ms}, t0.Add(time.Minute), 265, false},
	} {
		if got := tc.pace.due(tc.now, tc.updates); got != tc.want {
			t.Errorf("%s: due = %v, want %v", tc.name, got, tc.want)
		}
	}
	if d := after80ms.Sub(t0); d < 3900*time.Millisecond || d > 3930*time.Millisecond {
		t.Errorf("an 80 ms audit spaces the next %v later, want ~3.92 s", d)
	}

	// The loop's schedule under a busy server: 250 ms polls, every poll sees
	// new updates, each audit takes 80 ms. Busy time stays within the share
	// plus one audit, and the auditor stays live.
	const took = 80 * time.Millisecond
	pace := auditPace{every: 1}
	now, end := t0, t0.Add(10*time.Minute)
	var busy time.Duration
	audits := 0
	for updates := uint64(1); now.Before(end); updates++ {
		if pace.due(now, updates) {
			audits++
			busy += took
			now = now.Add(took)
			pace.last, pace.notBefore = updates, nextAudit(now, took)
		}
		now = now.Add(250 * time.Millisecond)
	}
	wall := now.Sub(t0)
	if limit := time.Duration(auditShare*float64(wall)) + took; busy > limit {
		t.Errorf("audits busy %v of %v wall, want <= %v", busy, wall, limit)
	}
	if audits < 100 {
		t.Errorf("%d audits in %v: the auditor starved", audits, wall)
	}
}

// TestDriftAuditLoop: the background auditor, running under a stream of
// single-edge updates, catches a corruption of the maintained rows and
// reports it at /healthz; Close stops it (leakcheck, via newObsServer).
func TestDriftAuditLoop(t *testing.T) {
	srv, eng := newObsServer(t)
	srv.EnableDriftAudit(1, 4, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Corrupt every row on the apply stage, where no audit capture can race
	// the write. The updates below rewrite only the rows they reach.
	if err := srv.do(nil, nil, func() error { nudge(eng, 1e-3); return nil }); err != nil {
		t.Fatal(err)
	}
	e := absentEdges(t, eng.Graph(), 1)[0]
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		if err := srv.Apply(graph.Delta{{U: graph.NodeID(e.U), V: graph.NodeID(e.V), Insert: i%2 == 0}}, nil); err != nil {
			t.Fatal(err)
		}
		if h := healthz(t, ts.URL); h.AuditFailures >= 1 {
			if h.Status != "degraded" || h.DriftMaxAbs < 1e-4 {
				t.Fatalf("background audit failure reported as %+v", h)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no failed drift audit within 5 s of single-edge updates on a corrupted engine")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDriftBoundedOverStream is the acceptance check for the auditor: after
// >= 10k incremental updates, sampled drift stays within the tolerance.
func TestDriftBoundedOverStream(t *testing.T) {
	if testing.Short() {
		t.Skip("long stream")
	}
	srv, eng := newObsServer(t)
	edges := absentEdges(t, eng.Graph(), 50)
	updates := 0
	for updates < 10000 {
		for _, e := range edges {
			if err := srv.Apply(graph.Delta{{U: e.U, V: e.V, Insert: true}}, nil); err != nil {
				t.Fatal(err)
			}
			if err := srv.Apply(graph.Delta{{U: e.U, V: e.V, Insert: false}}, nil); err != nil {
				t.Fatal(err)
			}
			updates += 2
		}
		if _, err := srv.AuditNow(8); err != nil {
			t.Fatalf("drift audit failed after %d updates: %v", updates, err)
		}
	}
	if res, err := srv.AuditNow(16); err != nil {
		t.Fatalf("final audit: %v", err)
	} else if res.MaxAbsDiff > 2e-3 {
		t.Errorf("drift %g after %d updates", res.MaxAbsDiff, updates)
	}
}

// TestFlightConcurrentStress hammers the pipeline, the trace ring, the
// sampler and every new read endpoint at once — the -race proof for the
// flight recorder's lock-light claims.
func TestFlightConcurrentStress(t *testing.T) {
	srv, eng := newObsServer(t)
	srv.SetTraceSampling(64, 2)
	srv.SetSlowTraceThreshold(time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	edges := absentEdges(t, eng.Graph(), 32)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	// Writers: concurrent insert/delete toggles through the pipeline, plus a
	// sampler ticker racing the endpoint reads.
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 150; i++ {
				e := edges[(w*8+i)%len(edges)]
				srv.Apply(graph.Delta{{U: e.U, V: e.V, Insert: i%2 == 0}}, nil)
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 200; i++ {
			srv.Sampler().Tick()
		}
	}()

	// Readers: trace ring, time-series, healthz, metrics, embeddings.
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				srv.FlightRecorder().Traces()
				srv.Sampler().Snapshot()
				srv.ReadEmbedding(1)
				for _, path := range []string{"/v1/traces", "/v1/timeseries", "/healthz"} {
					resp, err := http.Get(ts.URL + path)
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}()
	}

	writers.Wait()
	close(stop)
	readers.Wait()

	if srv.FlightRecorder().Recorded() == 0 {
		t.Error("stress run recorded no traces")
	}
}

// BenchmarkPipelineFlightRecorder measures the flight-recorder tax on the
// full submit→ack pipeline: the same alternating insert/delete workload with
// request tracing disabled entirely (ring 0 — no IDs, no stage timestamps)
// vs the serving default (ring 256, 1-in-64 sampling plus slow/failed
// capture). scripts/obs_overhead.sh gates the paired delta at <5%.
func BenchmarkPipelineFlightRecorder(b *testing.B) {
	const n = 2048
	for _, cfg := range []struct {
		name        string
		ring, every int
	}{
		{"off", 0, 0},
		{"on", 256, 64},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			s, eng := newPipelineServer(b, 23, n, 4*n)
			s.SetTraceSampling(cfg.ring, cfg.every)
			g := eng.Graph()
			rng := rand.New(rand.NewSource(24))
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
				if err := s.Apply(d, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
