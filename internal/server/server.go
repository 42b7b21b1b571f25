// Package server exposes InkStream as an HTTP service: a long-running
// inference daemon that accepts streaming edge and vertex-feature updates
// and serves always-fresh embeddings — the "real-time inference in dynamic
// settings" deployment the paper targets. It owns the one write pipeline;
// what the pipeline applies batches to is a Backend (backend.go): a single
// engine (New) or a partitioned multi-engine deployment (NewOn over
// internal/shard).
//
// Endpoints:
//
//	POST /v1/update     {"changes":[{"u":1,"v":2,"insert":true}, …]}
//	POST /v1/features   {"updates":[{"node":1,"x":[…]}, …]}
//	GET  /v1/embedding?node=N
//	GET  /v1/stats      (deployment shape; counts no other route serves)
//	GET  /v1/healthz    (also /healthz; degraded detection, uptime, epoch)
//	GET  /v1/traces     (flight recorder: last N request-scoped pipeline traces)
//	GET  /v1/timeseries (in-process time-series window, ~1s × 10min)
//	GET  /v1/alerts     (burn-rate alert status)
//	GET  /metrics       (Prometheus text exposition)
//	GET  /debug/bundle  (on-demand incident bundle)
//
// plus whatever the backend mounts: POST /v1/verify (full recompute
// self-check) on one engine, GET /v1/rounds under shards.
//
// Concurrency model (DESIGN.md §7): reads never block on writes. All
// mutations go through one writer at a time: a request joins a queue, and
// the caller that finds nobody writing becomes the writer on its own
// goroutine. It takes what is queued as a group, makes the group durable
// under one fsync ("group commit"), calls Backend.Apply and acknowledges,
// then hands the role to the next queued caller. That queue is the only
// place writes are batched: the writer merges the group's compatible
// mutations into a single fused Apply, and a conflicting request (same edge
// or same node as the open batch) flushes the batch first, so per-request
// ack/error semantics are preserved. After each applied batch the backend
// publishes immutable, epoch-stamped embedding snapshots via atomic
// pointers; every read handler resolves against the current snapshot with
// zero locking and reports the snapshot epoch it observed. A successful
// mutation response implies the batch is durable, applied, and visible in
// the published snapshot (read-your-writes).
//
// Observability: every server owns an obs.Observer shared with its engine
// (per-update latency histogram, slow-update count) and an obs.Registry
// exposing, at GET /metrics, the families a reader consumes (DESIGN.md §9.1):
// update counts and latency, snapshot epoch/lag, reads, group-commit and
// coalescing factors, WAL commit latency, per-condition visits and events.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Server wraps a backend with HTTP handlers and the single-writer update
// path. After New returns, only the writer of the moment mutates the
// backend.
type Server struct {
	backend Backend
	journal Journal
	mux     *http.ServeMux

	// The write path (pipeline.go). mu guards queue (accepted requests no
	// writer has taken yet), writing (some caller is the writer) and closed;
	// idle wakes Close when a writer turn ends. group, fused and yielded
	// belong to the writer of the moment: the role passes under mu, which orders one
	// writer's use of them, the backend and the journal before the next's.
	mu      sync.Mutex
	idle    sync.Cond
	queue   []*updateReq
	writing bool
	closed  bool
	group   []*updateReq
	fused   *fused
	yielded time.Time // when a writer last yielded its P

	quit      chan struct{} // closed by Close; stops the drift auditor
	closeOnce sync.Once
	wg        sync.WaitGroup // the drift auditor once enabled

	updates   atomic.Int64  // successful mutation requests
	reads     atomic.Int64  // embedding reads resolved against a snapshot
	accepted  atomic.Uint64 // mutation batches accepted into the pipeline
	processed atomic.Uint64 // mutation batches reflected in (or rejected
	// before) the published snapshot; accepted-processed is the lag

	// Server-side coalescing state (coalesce.go): the graph's directedness
	// captured for edge canonicalisation, and the counters.
	undirected  bool
	coStalls    atomic.Int64 // fused batches flushed early by a conflict
	coFallbacks atomic.Int64 // fused applies replayed per-request

	obs    *obs.Observer
	reg    *obs.Registry
	walLat *obs.Histogram
	gcSize *obs.Histogram
	coSize *obs.Histogram

	// Flight recorder (flight.go): request-scoped pipeline traces, the
	// submit→ack latency histogram behind the ack_p99_ms series, and the
	// in-process time-series sampler behind /v1/timeseries.
	flight  *obs.FlightRecorder
	ackLat  *obs.Histogram
	sampler *obs.Sampler
	alerts  *obs.AlertEngine
	started time.Time
	sloNS   atomic.Int64 // healthz ack-p99 SLO in ns (0 = disabled)

	// Runtime telemetry plane and incident black box (blackbox.go); the
	// runtime collector always exists, the black box only after
	// EnableBlackBox.
	runtime  *obs.Runtime
	blackbox *obs.BlackBox
}

// Journal is the write-ahead log the writer writes every accepted batch to
// before the backend sees it; persist.WAL implements it.
// AppendBuffered stages one record without durability and one Commit fsyncs
// everything staged (group commit: one fsync covers every request queued
// behind it). A journal failure fails the update before the backend sees
// it, so a successful response implies the batch is durable.
type Journal interface {
	AppendBuffered(delta graph.Delta, vups []inkstream.VertexUpdate) error
	Commit() error
}

// New wraps one engine; counters may be the same instance the engine
// records into (or nil). The server reuses the engine's observer when one
// was installed at construction (so CLI-configured tracing keeps working)
// and otherwise installs a fresh one, builds the /metrics registry,
// publishes the initial embedding snapshot (epoch 1), and serves; it starts
// no writer goroutine (each write runs on a caller's). Call Close to stop.
//
// Configuration methods (SetJournal, SetSlowTraceThreshold) must be called
// before the first request is served.
func New(engine *inkstream.Engine, counters *metrics.Counters) *Server {
	o := engine.Observer()
	if o == nil {
		o = obs.NewObserver()
		engine.SetObserver(o)
	}
	s := &Server{obs: o}
	s.backend = &engineBackend{Engine: engine, s: s, counters: counters, audit: newAuditState(engine.Model())}
	return s.init()
}

// NewOn serves the same write path on any Backend (internal/shard's router):
// its routes, stats section and metric families are mounted next to the
// server's own. The features that read one engine's internals (/v1/verify,
// the drift auditor, per-layer update traces) come with New's backend only.
func NewOn(b Backend) *Server {
	return (&Server{backend: b, obs: obs.NewObserver()}).init()
}

func (s *Server) init() *Server {
	// Epoch 1 reflects the bootstrapped state, so readers always have a
	// snapshot to resolve against.
	s.backend.PublishSnapshot()
	s.walLat = obs.NewLatencyHistogram()
	s.gcSize = obs.NewSizeHistogram()
	s.coSize = obs.NewSizeHistogram()
	s.undirected = s.backend.Shape().Undirected
	s.started = time.Now()
	// Flight recorder defaults: last 256 interesting requests, 1 in 64
	// sampled. Reconfigure with SetTraceSampling before serving.
	s.flight = obs.NewFlightRecorder(256, 64)
	s.ackLat = obs.NewLatencyHistogram()
	// In-process time-series: 1s resolution, 10-minute window. The alert
	// engine evaluates its burn-rate rules on every tick (alerts are
	// installed by SetHealthSLO).
	s.sampler = obs.NewSampler(time.Second, 600)
	s.alerts = obs.NewAlertEngine(s.sampler)
	s.runtime = obs.NewRuntime()
	s.reg = obs.NewRegistry()
	s.buildRegistry()
	s.buildTimeseries()
	s.buildMux()
	s.backend.Mount(Surface{Mux: s.mux, Registry: s.reg, Sampler: s.sampler, Observer: s.obs})
	s.idle.L = &s.mu
	s.fused = newFused()
	s.quit = make(chan struct{})
	s.sampler.Start()
	return s
}

// buildRegistry registers every family the pipeline itself exposes, each
// read by an inkstat -watch column or a bench/ metric (DESIGN.md §9.1).
// Backend-derived values are sampled from the published state, so scraping
// never touches mutable engine state and takes no lock.
func (s *Server) buildRegistry() {
	r := s.reg
	shape := s.backend.Shape
	r.CounterFunc("inkstream_updates_total",
		"Update batches applied by the engine (edge and vertex-feature).",
		func() float64 { return float64(s.obs.Updates()) })
	r.Histogram("inkstream_update_latency_seconds",
		"End-to-end latency of one applied update batch.",
		1e-9, s.obs.UpdateLatency)
	r.GaugeFunc("inkstream_snapshot_epoch",
		"Epoch of the published embedding snapshot (minimum across shards).",
		func() float64 { return float64(shape().Epoch) })
	r.GaugeFunc("inkstream_router_shards",
		"Engines behind the write pipeline (1 = single engine).",
		func() float64 { return float64(shape().Shards) })
	r.GaugeFunc("inkstream_router_epoch_skew",
		"Max minus min published snapshot epoch across shards (transient while a round publishes).",
		func() float64 { sh := shape(); return float64(sh.MaxEpoch - sh.Epoch) })
	r.GaugeFunc("inkstream_snapshot_lag_batches",
		"Mutation batches accepted by the pipeline but not yet reflected in the published snapshot (reader staleness bound).",
		func() float64 { return float64(s.lag()) })
	r.CounterFunc("inkstream_reads_total",
		"Embedding reads resolved against a published snapshot (lock-free path).",
		func() float64 { return float64(s.reads.Load()) })
	r.Histogram("inkstream_group_commit_batch_size",
		"Journaled update batches covered by one WAL fsync (group commit).",
		1, s.gcSize)
	r.Histogram("inkstream_coalesced_batch_size",
		"Queued mutation requests fused into one engine apply (server-side coalescing).",
		1, s.coSize)
	r.CounterFunc("inkstream_coalesce_stalls_total",
		"Fused batches flushed early because a queued request conflicted (same edge or same node as the open batch).",
		func() float64 { return float64(s.coStalls.Load()) })
	r.Histogram("inkstream_wal_append_latency_seconds",
		"Durability cost per WAL commit: encode, write, flush and fsync (one commit may cover a whole group).",
		1e-9, s.walLat)
	s.runtime.Register(r)
}

// lag is the number of mutation batches accepted by the pipeline but not yet
// reflected in the published snapshot.
func (s *Server) lag() uint64 {
	// Load processed first so a concurrent publish can only shrink the
	// reported lag, never make it negative.
	p := s.processed.Load()
	if a := s.accepted.Load(); a > p {
		return a - p
	}
	return 0
}

// SetJournal installs a write-ahead journal; call before serving — after
// replaying an existing log through Apply, which must not journal its
// records a second time (a writer reads the field only during its turn, and
// turns are ordered by mu, so installing it between requests is ordered). Journals
// that can observe their commit latency (persist.WAL) are handed the
// registered WAL histogram.
func (s *Server) SetJournal(j Journal) {
	s.journal = j
	if h, ok := j.(interface{ SetLatencyHistogram(*obs.Histogram) }); ok {
		h.SetLatencyHistogram(s.walLat)
	}
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler { return s.mux }

// buildMux registers every route the pipeline serves; the backend mounts
// its own on the same mux afterwards.
func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/update", s.handleUpdate)
	mux.HandleFunc("POST /v1/features", s.handleFeatures)
	mux.HandleFunc("GET /v1/embedding", s.handleEmbedding)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/timeseries", s.handleTimeseries)
	mux.Handle("GET /v1/alerts", s.alerts)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /debug/bundle", s.handleBundle)
	// Unknown /v1/* paths get a typed JSON 404 instead of the mux's plain
	// text (known paths with the wrong method also land here; the body
	// names the path so either mistake is diagnosable).
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, "no %s %s endpoint", r.Method, r.URL.Path)
	})
	s.mux = mux
}

// EdgeChangeJSON is one edge modification in the wire format.
type EdgeChangeJSON struct {
	U      int32 `json:"u"`
	V      int32 `json:"v"`
	Insert bool  `json:"insert"`
}

// UpdateRequest is the body of POST /v1/update.
type UpdateRequest struct {
	Changes []EdgeChangeJSON `json:"changes"`
}

// UpdateResponse reports the applied batch. Epoch is a published snapshot
// epoch that covers the batch (the minimum across shards): any read
// observing this epoch (or later) sees the update.
type UpdateResponse struct {
	Applied   int     `json:"applied"`
	Epoch     uint64  `json:"epoch"`
	LatencyMS float64 `json:"latency_ms"`
}

// mutationStatus maps a pipeline error to an HTTP status: 429 when the
// write queue is full, 503 when the pipeline or the backend refuses
// writes, 422 for a rejected batch.
func mutationStatus(err error) int {
	if errors.Is(err, ErrOverloaded) {
		return http.StatusTooManyRequests
	}
	if errors.Is(err, ErrServerClosed) || errors.Is(err, ErrUnavailable) {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// maxBodyBytes bounds a mutation request body. The largest bodies the tree
// sends (the bench's 64-change and 4-row feature requests) are a few KB, so
// this is headroom, not a tuning knob.
const maxBodyBytes = 16 << 20

// decodeBody is the only place a request body is decoded: it reads exactly
// one JSON value of at most maxBodyBytes into v. On failure it has answered
// — 413 for an oversized body, 400 for malformed JSON or anything but
// whitespace after the value — and returns false, so a refused body never
// reaches the pipeline.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "body over %d bytes", tooBig.Limit)
	} else {
		httpError(w, http.StatusBadRequest, "decoding body: %v", err)
	}
	return false
}

// serveMutation runs one decoded mutation through the pipeline and writes
// the ack.
func (s *Server) serveMutation(w http.ResponseWriter, what string, delta graph.Delta, vups []inkstream.VertexUpdate) {
	t0 := time.Now()
	err := s.Apply(delta, vups)
	lat := time.Since(t0)
	if err != nil {
		httpError(w, mutationStatus(err), "applying %s: %v", what, err)
		return
	}
	writeJSON(w, UpdateResponse{
		Applied:   len(delta) + len(vups),
		Epoch:     s.backend.Shape().Epoch,
		LatencyMS: float64(lat.Microseconds()) / 1000,
	})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Changes) == 0 {
		httpError(w, http.StatusBadRequest, "empty change batch")
		return
	}
	delta := make(graph.Delta, len(req.Changes))
	for i, c := range req.Changes {
		delta[i] = graph.EdgeChange{U: c.U, V: c.V, Insert: c.Insert}
	}
	s.serveMutation(w, "batch", delta, nil)
}

// FeatureUpdateJSON is one vertex-feature replacement in the wire format.
type FeatureUpdateJSON struct {
	Node int32     `json:"node"`
	X    []float32 `json:"x"`
}

// FeaturesRequest is the body of POST /v1/features.
type FeaturesRequest struct {
	Updates []FeatureUpdateJSON `json:"updates"`
}

func (s *Server) handleFeatures(w http.ResponseWriter, r *http.Request) {
	var req FeaturesRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Updates) == 0 {
		httpError(w, http.StatusBadRequest, "empty feature batch")
		return
	}
	ups := make([]inkstream.VertexUpdate, len(req.Updates))
	for i, u := range req.Updates {
		ups[i] = inkstream.VertexUpdate{Node: u.Node, X: tensor.Vector(u.X)}
	}
	s.serveMutation(w, "features", nil, ups)
}

// EmbeddingResponse is the body of GET /v1/embedding. Epoch is the
// snapshot epoch the embedding was resolved against — the staleness bound
// the reader observed.
type EmbeddingResponse struct {
	Node      int32     `json:"node"`
	Epoch     uint64    `json:"epoch"`
	Embedding []float32 `json:"embedding"`
}

// handleEmbedding serves one node's embedding from the published snapshot
// with zero locking: a read is an atomic pointer load plus a row lookup,
// regardless of what the writer pipeline is doing.
func (s *Server) handleEmbedding(w http.ResponseWriter, r *http.Request) {
	nodeStr := r.URL.Query().Get("node")
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad node %q", nodeStr)
		return
	}
	row, epoch, ok := s.ReadEmbedding(node)
	if !ok {
		httpError(w, http.StatusNotFound, "node %d out of range", node)
		return
	}
	writeJSON(w, EmbeddingResponse{Node: int32(node), Epoch: epoch, Embedding: row})
}

// StatsResponse is the body of GET /v1/stats, for either backend: the
// deployment's shape and the counts no other surface carries. Epoch, lag,
// reads, latency, conditions, events and the coalescing factors are
// /metrics families, and epoch skew is a /healthz field too; they are not
// repeated here.
type StatsResponse struct {
	Nodes         int   `json:"nodes"`
	Edges         int   `json:"edges"`
	Shards        int   `json:"shards"`
	UpdatesServed int64 `json:"updates_served"`
	SlowUpdates   int64 `json:"slow_updates"`
	// Coalesce holds the one coalescing count /metrics lacks: fused applies
	// replayed per request after a validation failure.
	Coalesce struct {
		Fallbacks int64 `json:"fallbacks"`
	} `json:"coalesce"`
	BytesFetched int64 `json:"bytes_fetched"`
	// ShardingStats is the partitioned backend's section, inlined at the top
	// level; nil on a single engine.
	*ShardingStats
}

// ShardingStats is what a partitioned backend (internal/shard) adds to
// /v1/stats through Backend.FillStats.
type ShardingStats struct {
	// PartitionStrategy names the vertex-placement policy ("hash", "block"
	// or "greedy").
	PartitionStrategy string `json:"partition_strategy"`
	// CutFraction is the bootstrap-time fraction of arcs crossing shards;
	// BoundaryBytes the cumulative payload of the record deliveries to
	// remote shards those cut arcs induced, and FilteredRecords the remote
	// deliveries the subscription filter suppressed.
	CutFraction     float64 `json:"cut_fraction"`
	BoundaryBytes   int64   `json:"boundary_bytes"`
	FilteredRecords int64   `json:"filtered_records"`
	// FailStop carries the forensics of the round that tripped the corrupt
	// latch — round ID, error, time — present only after a fail-stop.
	FailStop *obs.FailStopInfo `json:"fail_stop,omitempty"`
	PerShard []ShardStats      `json:"per_shard"`
}

// ShardStats is one shard's slice of /v1/stats (GET /v1/stats?shard=N
// returns just this).
type ShardStats struct {
	Shard int `json:"shard"`
	// Epoch is the shard's published snapshot epoch; Rounds the update
	// rounds it reflects. All shards publish every round, so epochs agree
	// except transiently while a round's publishes race the reader.
	Epoch  uint64 `json:"epoch"`
	Rounds uint64 `json:"rounds"`
	// OwnedNodes is the partition size; Arcs the shard graph's current arc
	// count (every in-arc of every owned vertex).
	OwnedNodes   int   `json:"owned_nodes"`
	Arcs         int   `json:"arcs"`
	Events       int64 `json:"events_processed"`
	NodesVisited int64 `json:"nodes_visited"`
}

// Stats summarises the deployment. Everything is read from the published
// state, atomics and the observer — never from mutable engine state — so it
// takes no lock.
func (s *Server) Stats() StatsResponse {
	sh := s.backend.Shape()
	resp := StatsResponse{
		Nodes:         sh.Nodes,
		Edges:         sh.Edges,
		Shards:        sh.Shards,
		UpdatesServed: s.updates.Load(),
		SlowUpdates:   s.obs.SlowUpdates(),
	}
	resp.Coalesce.Fallbacks = s.coFallbacks.Load()
	s.backend.FillStats(&resp)
	return resp
}

// handleStats serves Stats; ?shard=N restricts the response to one shard's
// slice of a partitioned deployment.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := s.Stats()
	q := r.URL.Query().Get("shard")
	if q == "" {
		writeJSON(w, stats)
		return
	}
	var per []ShardStats
	if stats.ShardingStats != nil {
		per = stats.PerShard
	}
	id, err := strconv.Atoi(q)
	if err != nil || id < 0 || id >= len(per) {
		httpError(w, http.StatusBadRequest, "bad shard %q (have %d)", q, len(per))
		return
	}
	writeJSON(w, per[id])
}

// SetHealthSLO sets the ack-latency p99 objective the health check enforces:
// when the windowed p99 (max over the last ~10 time-series ticks) exceeds
// slo, /healthz reports degraded. It also installs the standard fast/slow
// burn-rate alert pair over the windowed ack p99 series (GET /v1/alerts);
// firing alerts degrade /healthz too. 0 disables both (the default).
func (s *Server) SetHealthSLO(slo time.Duration) {
	s.sloNS.Store(slo.Nanoseconds())
	if slo <= 0 {
		s.alerts.SetRules()
		return
	}
	s.alerts.SetRules(obs.DefaultBurnRateRules("ack_p99_ms", float64(slo)/1e6)...)
}

// Alerts exposes the burn-rate alert engine.
func (s *Server) Alerts() *obs.AlertEngine { return s.alerts }

// HealthzResponse is the body of GET /healthz (and /v1/healthz).
type HealthzResponse struct {
	// Status is "ok" or "degraded". The response is always HTTP 200 —
	// degraded means "serving but out of spec" (drift audit failing, ack
	// p99 over SLO, writes fail-stopped), which is an alerting condition,
	// not an unreachability one; Reasons lists what degraded it.
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Shards is 1 for a single engine; Epoch the minimum published epoch
	// across shards and EpochSkew the max minus min.
	Shards    int     `json:"shards"`
	Epoch     uint64  `json:"epoch"`
	EpochSkew uint64  `json:"epoch_skew"`
	AckP99MS  float64 `json:"ack_p99_ms"`
	SLOMS     float64 `json:"slo_ms,omitempty"`
	// DriftMaxAbs and AuditFailures are the drift auditor's, present only
	// on the backend that has one (a single engine).
	DriftMaxAbs   *float64 `json:"drift_max_abs,omitempty"`
	AuditFailures *int64   `json:"audit_failures,omitempty"`
	// AlertsFiring names the burn-rate alerts currently firing; their
	// human-readable reasons are folded into Reasons.
	AlertsFiring []string `json:"alerts_firing,omitempty"`
	Reasons      []string `json:"reasons,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	sh := s.backend.Shape()
	resp := HealthzResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Shards:        sh.Shards,
		Epoch:         sh.Epoch,
		EpochSkew:     sh.MaxEpoch - sh.Epoch,
	}
	s.backend.FillHealth(&resp)
	// Max over the last ~10 ticks so one quiet second cannot mask a breached
	// SLO between scrapes.
	if v, ok := s.sampler.MaxRecent("ack_p99_ms", 10); ok {
		resp.AckP99MS = v
	}
	if slo := time.Duration(s.sloNS.Load()); slo > 0 {
		resp.SLOMS = float64(slo) / 1e6
		if resp.AckP99MS > resp.SLOMS {
			resp.Reasons = append(resp.Reasons, fmt.Sprintf(
				"ack p99 %.3fms over SLO %.3fms", resp.AckP99MS, resp.SLOMS))
		}
	}
	resp.AlertsFiring = s.alerts.Firing()
	resp.Reasons = append(resp.Reasons, s.alerts.FiringReasons()...)
	if len(resp.Reasons) > 0 {
		resp.Status = "degraded"
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the connection will just break.
		return
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
