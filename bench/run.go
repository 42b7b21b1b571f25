package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

const (
	warmUp       = 2 * time.Second // before the measured segments of an untraced run
	segments     = 5               // measured segments; every load metric is the median of theirs
	setupRepeats = 5               // server set-ups per run; setup_s is their median
)

// result is the outcome of one run of one workload; its JSON form is the
// result line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// errs says why a run is not correct; spans are what a traced server
	// recorded. Both are written to -out only.
	errs  []string
	spans *serverSpans
}

// runner holds what every run of a process shares.
type runner struct {
	buildDir string // binaries and per-run directories
	inkserve string // the built server
}

// newRunner builds inkserve from the checkout at root.
func newRunner(root string) (*runner, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	r := &runner{buildDir: filepath.Join(root, ".bench_build")}
	if err := os.MkdirAll(r.buildDir, 0o755); err != nil {
		return nil, err
	}
	if r.inkserve, err = buildInkserve(root, r.buildDir); err != nil {
		return nil, err
	}
	return r, nil
}

// job is one run's workload, inputs and scratch directory.
type job struct {
	w    workload
	in   *inputs
	seed int64
	dir  string // graph file and WALs; removed after the run
}

// run measures one workload: the end-to-end metrics on a server with
// shipping defaults, or, traced, the per-layer metrics.
func (r *runner) run(ctx context.Context, w workload, seed int64, seconds int, traced bool) (*result, error) {
	dir, err := os.MkdirTemp(r.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := makeInputs(w, seed, dir)
	if err != nil {
		return nil, err
	}
	j := job{w: w, in: in, seed: seed, dir: dir}
	measured := time.Duration(seconds) * time.Second
	if traced {
		return r.runTraced(ctx, j, measured)
	}
	return r.runEndToEnd(ctx, j, measured)
}

// phaseSpec says how one server lifetime is driven.
type phaseSpec struct {
	tag      string   // names the phase's WALs and its failures
	extra    []string // inkserve flags beyond the workload's
	setups   int      // server set-ups; the last server takes the load
	warm     time.Duration
	segLen   time.Duration
	segments int
	// inspect, when set, runs against the live server once the load is over.
	inspect func(*http.Client, *server) error
}

// phase is what one server lifetime produced.
type phase struct {
	load   *loadResult
	setups []float64 // seconds, one per set-up
	rssMiB float64
	errs   []string // failed correctness checks, with the server's stderr
}

// runPhase sets a server up, checks its bootstrap embeddings against
// in-process inference, drives the load, and checks the quiesced final
// state against the oracle.
func (r *runner) runPhase(ctx context.Context, j job, spec phaseSpec) (*phase, error) {
	ph := &phase{}
	var srv *server
	for i := 0; i < spec.setups; i++ {
		if srv != nil {
			srv.stop()
		}
		wal := filepath.Join(j.dir, fmt.Sprintf("wal-%s-%d", spec.tag, i))
		var err error
		if srv, err = startServer(r.inkserve, append(j.w.serverArgs(j.in.file, wal), spec.extra...)); err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, srv.setup.Seconds())
	}
	defer srv.stop()
	fail := func(err error) {
		ph.errs = append(ph.errs, fmt.Sprintf("%s: %v\ninkserve stderr:\n%s", spec.tag, err, srv.stderr.String()))
	}

	client := &http.Client{Timeout: 60 * time.Second}
	defer client.CloseIdleConnections()
	// Bit-exact for every aggregator: the oracle ran the server's own
	// bootstrap code over the same file.
	if err := checkRows(client, srv.addr, j.in.boot, 32, j.seed+1, 0); err != nil {
		fail(fmt.Errorf("bootstrap embeddings: %w", err))
	}

	streams := newStreams(j.in.g, j.seed, writers, j.w.deltaG, j.w.featEvery, j.in.x.Cols)
	var err error
	if ph.load, err = runLoad(ctx, srv, streams, j.in.g.NumNodes(), j.seed, spec.warm, spec.segLen, spec.segments); err != nil {
		return nil, err
	}
	if spec.inspect != nil {
		if err := spec.inspect(client, srv); err != nil {
			return nil, err
		}
	}
	if err := verifyFinal(client, srv, j.w, j.in, streams, j.seed); err != nil {
		fail(err)
	}
	if ph.rssMiB, err = srv.peakRSSMiB(); err != nil {
		return nil, err
	}
	return ph, nil
}

func (r *runner) runEndToEnd(ctx context.Context, j job, measured time.Duration) (*result, error) {
	ph, err := r.runPhase(ctx, j, phaseSpec{tag: "e2e", setups: setupRepeats, warm: warmUp, segLen: measured / segments, segments: segments})
	if err != nil {
		return nil, err
	}
	// Every value is taken per segment and the median segment reported, so
	// a host stall inside one or two segments moves none of them.
	var ack50, rate, read50, cpu []float64
	for i := 0; i < segments; i++ {
		s := ph.load.segment(i)
		ack50 = append(ack50, percentile(s.ackMS, 0.50))
		rate = append(rate, float64(s.changes)/s.seconds)
		read50 = append(read50, percentile(s.readMS, 0.50))
		cpu = append(cpu, ratio(s.serverCPU, float64(s.changes)/1000))
	}
	values := map[string]float64{
		"setup_s":                  median(ph.setups),
		"update_ack_p50_ms":        median(ack50),
		"edge_changes_per_s":       median(rate),
		"read_p50_ms":              median(read50),
		"server_cpu_s_per_kchange": median(cpu),
		"rss_peak_mb":              ph.rssMiB,
	}
	res := &result{Metrics: report(endToEnd, values), errs: ph.errs}
	res.Attempted, res.Failed = ph.load.counts()
	res.Correct = len(res.errs) == 0 && res.Failed == 0
	return res, nil
}

// runTraced spends half of the measured time on a reference load on a
// server with shipping defaults and half on the same load on a server that
// records every request, then runs the in-process layer probe, which is
// bounded by its request count.
func (r *runner) runTraced(ctx context.Context, j job, measured time.Duration) (*result, error) {
	spec := phaseSpec{tag: "ref", setups: 1, warm: time.Second, segLen: measured / 2, segments: 1}
	values := make(map[string]float64)

	ref, err := r.runPhase(ctx, j, spec)
	if err != nil {
		return nil, err
	}
	rs := ref.load.segment(-1)
	values["loadgen.cpu_share"] = ratio(rs.benchCPU, rs.benchCPU+rs.serverCPU)
	values["loadgen.read_late_p99_us"] = percentile(rs.lateUS, 0.99)
	values["client.features_ack_p50_ms"] = percentile(rs.featMS, 0.50)
	values["client.update_ack_p95_ms"] = percentile(rs.ackMS, 0.95)
	values["client.update_ack_p99_ms"] = percentile(rs.ackMS, 0.99)
	values["client.read_p95_ms"] = percentile(rs.readMS, 0.95)
	values["client.read_p99_ms"] = percentile(rs.readMS, 0.99)

	var spans *serverSpans
	var stageMeanSum float64
	spec.tag = "traced"
	spec.extra = []string{"-trace-sample", "1", "-trace-ring", "8192"}
	spec.inspect = func(client *http.Client, srv *server) (err error) {
		spans, stageMeanSum, err = collectTraced(client, srv, j.w, values)
		return err
	}
	tr, err := r.runPhase(ctx, j, spec)
	if err != nil {
		return nil, err
	}
	ts := tr.load.segment(-1)
	values["http.overhead_p50_us"] = percentile(ts.overheadUS, 0.50)
	values["http.overhead_mean_us"] = mean(ts.overheadUS)
	// The share of the client's mean wait that the layers account for.
	values["pipeline.accounted_share"] = ratio(values["http.overhead_mean_us"]+stageMeanSum, 1000*mean(ts.ackMS))
	// Base: the untraced server's median ack latency.
	refP50 := percentile(rs.ackMS, 0.50)
	values["obs.trace_overhead_pct"] = 100 * ratio(percentile(ts.ackMS, 0.50)-refP50, refP50)

	if err := layerProbe(j, values); err != nil {
		return nil, err
	}

	res := &result{Metrics: report(perLayer, values), spans: spans, errs: append(ref.errs, tr.errs...)}
	a1, f1 := ref.load.counts()
	a2, f2 := tr.load.counts()
	res.Attempted, res.Failed = a1+a2, f1+f2
	res.Correct = len(res.errs) == 0 && res.Failed == 0
	return res, nil
}
