package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/gnn"
	"repro/internal/inkstream"
	inkmetrics "repro/internal/metrics"
	"repro/internal/persist"
)

// probeChanges is the stream prefix the layer probe replays, in edge
// changes; a workload replays probeChanges/deltaG requests, at most
// probeMaxRequests. The probe is bounded by count and never by time, so the
// counts it reports are the same on every host.
const (
	probeChanges     = 32000
	probeMaxRequests = 2000
)

// heapAllocs reads the process's cumulative heap allocations. Unlike
// runtime.ReadMemStats it does not stop the world, so it can bracket every
// Apply without disturbing the call it brackets.
func heapAllocs(s []metrics.Sample) (objects, bytes uint64) {
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// layerProbe replays the start of the workload's stream, single-threaded
// and in-process, straight into each layer's public functions, timing the
// calls from here: Engine.Apply, PublishSnapshot and Snapshot.Row
// (internal/inkstream), WAL AppendBuffered+Commit (internal/persist) and
// full inference (internal/gnn). It replays the same requests on every run
// of a seed, interleaving the connections round-robin, so its counts repeat
// exactly. A sharded workload is probed on one engine over the whole graph.
func layerProbe(j job, out map[string]float64) error {
	w, in, seed := j.w, j.in, j.seed
	streams := newStreams(in.g, seed, writers, w.deltaG, w.featEvery, in.x.Cols)
	reqs := make([]request, min(probeMaxRequests, probeChanges/w.deltaG))
	for i := range reqs {
		reqs[i] = streams[i%len(streams)].next()
	}

	// gnn: what one update would cost without InkStream.
	var inferMS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := gnn.Infer(in.model, in.g, in.x, nil); err != nil {
			return err
		}
		inferMS = append(inferMS, float64(time.Since(t0))/float64(time.Millisecond))
	}
	out["gnn.full_infer_ms"] = median(inferMS)

	// wal: one group commit per request, on the run directory's filesystem.
	walPath := filepath.Join(j.dir, "probe.wal")
	wal, err := persist.OpenWAL(walPath)
	if err != nil {
		return err
	}
	var walUS []float64
	walChanges := 0
	for _, r := range reqs {
		t0 := time.Now()
		if err := wal.AppendBuffered(r.delta, r.vups); err != nil {
			wal.Close()
			return err
		}
		if err := wal.Commit(); err != nil {
			wal.Close()
			return err
		}
		walUS = append(walUS, float64(time.Since(t0))/float64(time.Microsecond))
		walChanges += len(r.delta) + len(r.vups)
	}
	if err := wal.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	out["wal.append_commit_p50_us"] = percentile(walUS, 0.50)
	out["wal.append_commit_p99_us"] = percentile(walUS, 0.99)
	out["wal.bytes_per_change"] = ratio(float64(fi.Size()), float64(walChanges))

	// engine and snapshot.
	var counters inkmetrics.Counters
	eng, err := inkstream.New(in.model, in.g.Clone(), in.x.Clone(), &counters, inkstream.Options{})
	if err != nil {
		return err
	}
	eng.PublishSnapshot()
	eng.ResetStats()
	c0 := counters.Snapshot()
	var applyUS, publishUS []float64
	var applyTotal time.Duration
	changes, dirty := 0, 0
	heap := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	var mallocs, allocBytes uint64
	for _, r := range reqs {
		o0, b0 := heapAllocs(heap)
		t0 := time.Now()
		err := eng.Apply(r.delta, r.vups)
		d := time.Since(t0)
		o1, b1 := heapAllocs(heap)
		if err != nil {
			return err
		}
		mallocs += o1 - o0
		allocBytes += b1 - b0
		applyTotal += d
		applyUS = append(applyUS, float64(d)/float64(time.Microsecond))
		changes += len(r.delta) + len(r.vups)
		dirty += len(eng.DirtyRows())
		t0 = time.Now()
		eng.PublishSnapshot()
		publishUS = append(publishUS, float64(time.Since(t0))/float64(time.Microsecond))
	}
	applies := float64(len(applyUS))
	work := counters.Snapshot().Sub(c0)
	out["engine.apply_p50_us"] = percentile(applyUS, 0.50)
	out["engine.apply_p99_us"] = percentile(applyUS, 0.99)
	out["engine.apply_us_per_change"] = ratio(float64(applyTotal)/float64(time.Microsecond), float64(changes))
	out["engine.allocs_per_apply"] = float64(mallocs) / applies
	out["engine.alloc_bytes_per_apply"] = float64(allocBytes) / applies
	out["engine.events_per_change"] = ratio(float64(work.EventsProcessed), float64(changes))
	out["engine.nodes_per_change"] = ratio(float64(work.NodesVisited), float64(changes))
	out["engine.bytes_fetched_per_change"] = ratio(float64(work.BytesFetched), float64(changes))
	st := eng.Stats()
	for _, c := range []inkstream.Condition{inkstream.CondNoReset, inkstream.CondCoveredReset, inkstream.CondExposedReset, inkstream.CondPruned} {
		out["engine.cond_share."+c.String()] = st.Fraction(c)
	}
	out["engine.incremental_share"] = st.Incremental()
	out["snapshot.publish_p50_us"] = percentile(publishUS, 0.50)
	out["snapshot.dirty_rows_per_publish"] = float64(dirty) / applies
	// The paper's headline ratio: full inference over one incremental apply.
	out["gnn.speedup_vs_full"] = ratio(out["gnn.full_infer_ms"]*1000, out["engine.apply_p50_us"])

	snap := eng.Snapshot()
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]int, 1<<16)
	for i := range nodes {
		nodes[i] = rng.Intn(snap.NumNodes())
	}
	var sink float32
	t0 := time.Now()
	for _, n := range nodes {
		sink += snap.Row(n)[0]
	}
	out["snapshot.read_row_ns"] = float64(time.Since(t0)) / float64(len(nodes))
	rowSink = sink
	return nil
}

// rowSink keeps the read loop's result alive so the compiler cannot drop it.
var rowSink float32
