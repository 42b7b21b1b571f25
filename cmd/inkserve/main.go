// Command inkserve runs a long-lived InkStream inference service over a
// generated or saved dataset snapshot: clients stream edge and feature
// updates and read always-fresh embeddings over HTTP.
//
// Usage:
//
//	inkserve -dataset PM -addr :8080
//	inkserve -file snapshot.inks -model sage -agg mean
//	inkserve -bundle engine.inkb            # resume a persisted engine
//	inkserve -dataset PM -save-bundle e.inkb -addr :8080
//	inkserve -dataset PM -pprof -slow-update 5ms   # observability extras
//
// Every server exposes Prometheus metrics at GET /metrics and -pprof mounts
// the runtime profiler under /debug/pprof/. The flight recorder
// (GET /v1/traces, tune with -trace-ring/-trace-sample; -slow-update keeps
// every request at or above a latency, per-layer engine trace attached),
// the in-process time-series window (GET /v1/timeseries) and the continuous
// drift audit are on by default. The audit spends at most 2% of one core and
// runs no more often than every -audit-every applied updates; it is reported
// by /healthz together with the -slo ack-latency objective, and -audit-tol
// bounds both it and POST /v1/verify on sum/mean models. -blackbox <dir>
// arms the incident black box: post-mortem bundles are auto-captured on
// alert firing, drift-audit failure or round fail-stop, served on demand at
// GET /debug/bundle, and rendered offline with inkstat -postmortem. All of
// it is DESIGN.md §9.
//
// With -save-bundle the bootstrapped engine is persisted before serving,
// so a later -bundle start skips the initial full-graph inference. See
// internal/server for the HTTP API.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/gnn"
	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "inkserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	handler, addr, err := buildServer(args)
	if err != nil {
		return err
	}
	log.Printf("serving on %s", addr)
	return newHTTPServer(addr, handler).ListenAndServe()
}

// Connection deadlines: a client gets readHeaderTimeout to finish its
// request headers and an idle keep-alive connection is dropped after
// idleTimeout. There is deliberately no ReadTimeout or WriteTimeout:
// /v1/verify, /debug/bundle and the pprof profiles legitimately run long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// buildServer parses flags and constructs the HTTP handler; split from run
// so tests can exercise the full setup path without binding a port.
func buildServer(args []string) (http.Handler, string, error) {
	return buildServerOn(flag.NewFlagSet("inkserve", flag.ContinueOnError), args)
}

// buildServerOn is buildServer over a caller-owned flag set, so a test can
// enumerate the flags the binary defines.
func buildServerOn(fs *flag.FlagSet, args []string) (http.Handler, string, error) {
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		name       = fs.String("dataset", "", "dataset profile to generate")
		file       = fs.String("file", "", "saved snapshot to load (alternative to -dataset)")
		bundle     = fs.String("bundle", "", "persisted engine bundle to resume (alternative to -dataset/-file)")
		saveBundle = fs.String("save-bundle", "", "persist the bootstrapped engine to this path before serving")
		scale      = fs.Int64("scale", 8, "extra down-scaling with -dataset")
		seed       = fs.Int64("seed", 1, "generator seed")
		modelName  = fs.String("model", "gcn", "model: gcn, sage or gin")
		aggName    = fs.String("agg", "max", "aggregation: max, min, mean or sum")
		hidden     = fs.Int("hidden", 32, "hidden dimension")
		shards     = fs.Int("shards", 1, "engine shards: >1 serves the graph from a partitioned multi-engine deployment")
		partition  = fs.String("partition", "hash", "vertex partition strategy with -shards>1: hash, block or greedy (locality-aware)")
		walPath    = fs.String("wal", "", "write-ahead log file: accepted batches are journaled before they are applied, and an existing log is replayed on startup onto the booted state (bundle or bootstrap)")
		slowUpdate = fs.Duration("slow-update", 0, "requests at or above this latency are always kept in the flight recorder (GET /v1/traces, with the per-layer engine trace) and counted in /v1/stats slow_updates (0 disables)")
		pprofOn    = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		traceRing   = fs.Int("trace-ring", 256, "flight-recorder ring size for GET /v1/traces (0 disables request tracing)")
		traceSample = fs.Int("trace-sample", 64, "record 1 in N pipeline requests in the flight recorder (slow/failed requests are always recorded)")
		slo         = fs.Duration("slo", 0, "ack-latency p99 objective: /healthz reports degraded above it (0 disables)")
		auditEvery  = fs.Uint64("audit-every", 256, "minimum applied updates between drift audits; audits are further spaced to use at most 2% of one core (0 disables)")
		auditSample = fs.Int("audit-sample", 16, "nodes shadow-recomputed per drift audit")
		auditTol    = fs.Float64("audit-tol", 0, "max drift tolerated by the audit and POST /v1/verify on a model with a sum/mean layer; monotonic models must match exactly (0 keeps the default 2e-3)")

		blackboxDir      = fs.String("blackbox", "", "incident black box dump directory: auto-capture post-mortem bundles on alert firing, audit failure or fail-stop, and serve GET /debug/bundle (empty disables)")
		blackboxProfiles = fs.Bool("blackbox-profiles", false, "include pprof heap and goroutine profiles in captured bundles (requires -blackbox)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}

	if *shards < 1 {
		return nil, "", fmt.Errorf("-shards %d: need at least 1 engine", *shards)
	}
	if *hidden < 1 {
		return nil, "", fmt.Errorf("-hidden %d: need a hidden dimension of at least 1", *hidden)
	}
	if bad := setAmong(fs, "partition"); *shards == 1 && len(bad) > 0 {
		return nil, "", fmt.Errorf("%s: partitioned-deployment flags require -shards>1", strings.Join(bad, ", "))
	}

	if *shards > 1 {
		// Flags whose feature reads one engine's internals fail fast instead
		// of being silently ignored: a shard graph does not hold the L-hop
		// cone of a local vertex, so the drift auditor and engine bundles have
		// no sharded form.
		bad := setAmong(fs, "bundle", "save-bundle", "audit-every", "audit-sample", "audit-tol")
		if len(bad) > 0 {
			return nil, "", fmt.Errorf("%s: single-engine flags with no sharded equivalent; drop them or run with -shards=1", strings.Join(bad, ", "))
		}
	}
	if *bundle != "" {
		// A bundle carries the graph, the model and its state, so the flags
		// that build them, and -save-bundle, which persists a fresh
		// bootstrap, would be ignored: refuse them.
		bad := setAmong(fs, "save-bundle", "dataset", "file", "scale", "seed", "model", "agg", "hidden")
		if len(bad) > 0 {
			return nil, "", fmt.Errorf("%s: the bundle fixes the graph, model and state; drop them or start without -bundle", strings.Join(bad, ", "))
		}
	}
	if *blackboxProfiles && *blackboxDir == "" {
		return nil, "", fmt.Errorf("-blackbox-profiles requires -blackbox")
	}
	if fi, err := os.Stat(*walPath); err == nil && fi.IsDir() {
		return nil, "", fmt.Errorf("-wal %s is a directory (the per-shard layout of an older -shards run): -wal names one log file in every deployment shape; move the directory away or name a file", *walPath)
	}

	// Boot the backend: one engine (resumed from a bundle or bootstrapped
	// by full inference) or a shard router over the same bootstrap.
	var (
		counters metrics.Counters
		engine   *inkstream.Engine
		rt       *shard.Router
	)
	if *bundle != "" {
		g, model, state, err := persist.LoadBundleFile(*bundle)
		if err != nil {
			return nil, "", err
		}
		engine, err = inkstream.NewFromState(model, g, state, &counters, inkstream.Options{})
		if err != nil {
			return nil, "", err
		}
		log.Printf("resumed %s over %d nodes / %d edges from %s",
			model.Name, g.NumNodes(), g.NumEdges(), *bundle)
	} else {
		g, feats, err := loadData(fs, *file, *name, *scale, *seed)
		if err != nil {
			return nil, "", err
		}
		model, err := buildModel(*modelName, *aggName, *hidden, feats.Dim(), *seed)
		if err != nil {
			return nil, "", err
		}
		log.Printf("bootstrapping %s over %d nodes / %d edges across %d shard(s) …",
			model.Name, g.NumNodes(), g.NumEdges(), *shards)
		var d metrics.Stopwatch
		d.Start()
		if *shards > 1 {
			rt, err = shard.New(model, g, feats.X, shard.Config{
				Shards:            *shards,
				PartitionStrategy: *partition,
			})
		} else {
			engine, err = inkstream.New(model, g, feats.X, &counters, inkstream.Options{})
		}
		d.Stop()
		if err != nil {
			return nil, "", err
		}
		log.Printf("initial inference done in %v", d.Elapsed())
		if *saveBundle != "" {
			if err := persist.SaveBundleFile(*saveBundle, engine.Graph(), model, engine.State()); err != nil {
				return nil, "", err
			}
			log.Printf("persisted engine bundle to %s", *saveBundle)
			if *walPath != "" {
				// A fresh bundle supersedes any previous journal.
				if err := os.Truncate(*walPath, 0); err != nil && !os.IsNotExist(err) {
					return nil, "", err
				}
			}
		}
	}

	var srv *server.Server
	if rt != nil {
		srv = server.NewOn(rt)
		st := srv.Stats()
		log.Printf("%s partition, cut fraction %.3f", st.PartitionStrategy, st.CutFraction)
	} else {
		srv = server.New(engine, &counters)
	}
	if *slowUpdate > 0 {
		srv.SetSlowTraceThreshold(*slowUpdate)
		log.Printf("slow updates: requests at or above %v are kept in /v1/traces", *slowUpdate)
	}
	if *traceRing != 256 || *traceSample != 64 {
		srv.SetTraceSampling(*traceRing, *traceSample)
		log.Printf("flight recorder: ring=%d sample=1/%d", *traceRing, *traceSample)
	}
	if *slo > 0 {
		srv.SetHealthSLO(*slo)
		log.Printf("healthz SLO: ack p99 <= %v (burn-rate alerts at /v1/alerts)", *slo)
	}
	if engine != nil {
		// -audit-tol also bounds POST /v1/verify, so it applies with the
		// auditor off too.
		srv.EnableDriftAudit(*auditEvery, *auditSample, float32(*auditTol))
		if *auditEvery > 0 {
			log.Printf("drift audit: at least %d updates apart within its CPU budget, %d nodes sampled",
				*auditEvery, *auditSample)
		}
	}
	if *blackboxDir != "" {
		srv.EnableBlackBox(obs.BlackBoxConfig{Dir: *blackboxDir, Profiles: *blackboxProfiles})
		log.Printf("incident black box: bundles under %s (GET /debug/bundle for on-demand capture)", *blackboxDir)
	}
	if *walPath != "" {
		// One replay rule: an existing log is replayed onto whatever state the
		// process booted from, through the live pipeline (not yet journaling),
		// so a replayed record is counted and published like a live one. The
		// log holds requests as submitted: one answered 422 is refused again
		// without effect. Only a backend that stops taking writes aborts.
		batches, torn, err := persist.ReadWAL(*walPath)
		if err != nil && !os.IsNotExist(err) {
			return nil, "", err
		}
		rejected := persist.Replay(srv, batches)
		for _, r := range rejected {
			if errors.Is(r.Err, server.ErrUnavailable) {
				srv.Close()
				return nil, "", fmt.Errorf("replaying %s onto the booted state: record %d: %w", *walPath, r.Index, r.Err)
			}
		}
		if len(batches) > 0 || torn {
			log.Printf("replayed %d WAL records from %s (%d refused again, as when first submitted; torn tail dropped: %v)",
				len(batches), *walPath, len(rejected), torn)
		}
		wal, err := persist.OpenWAL(*walPath)
		if err != nil {
			return nil, "", err
		}
		srv.SetJournal(wal)
		log.Printf("journaling updates to %s", *walPath)
	}
	return withPprof(srv.Handler(), *pprofOn), *addr, nil
}

// setAmong returns, as "-name", the flags among names the user actually set
// (defaults pass), in flag-name order.
func setAmong(fs *flag.FlagSet, names ...string) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		for _, n := range names {
			if f.Name == n {
				set = append(set, "-"+n)
			}
		}
	})
	return set
}

// loadData resolves the -file / -dataset flags into a graph and features.
func loadData(fs *flag.FlagSet, file, name string, scale, seed int64) (*graph.Graph, *dataset.Features, error) {
	switch {
	case file != "":
		return dataset.LoadFile(file)
	case name != "":
		spec, err := dataset.ByName(name)
		if err == nil {
			spec, err = spec.Scaled(scale)
		}
		if err != nil {
			return nil, nil, err
		}
		g, feats := dataset.Generate(spec, seed)
		log.Printf("generated %s", spec)
		return g, feats, nil
	default:
		fs.Usage()
		return nil, nil, fmt.Errorf("one of -dataset, -file or -bundle is required")
	}
}

// buildModel constructs the named model over the dataset's feature size.
func buildModel(modelName, aggName string, hidden, dim int, seed int64) (*gnn.Model, error) {
	agg, err := gnn.ParseAggKind(aggName)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 100))
	switch modelName {
	case "gcn":
		return gnn.NewGCN(rng, dim, hidden, gnn.NewAggregator(agg)), nil
	case "sage":
		return gnn.NewSAGE(rng, dim, hidden, gnn.NewAggregator(agg)), nil
	case "gin":
		return gnn.NewGIN(rng, dim, hidden, 5, gnn.NewAggregator(agg)), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want gcn, sage or gin)", modelName)
	}
}

// withPprof wraps handler with the /debug/pprof/ endpoints when enabled.
func withPprof(handler http.Handler, on bool) http.Handler {
	if !on {
		return handler
	}
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("pprof enabled at /debug/pprof/")
	return mux
}
