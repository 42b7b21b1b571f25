package server

import (
	"fmt"
	"net/http"

	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Backend is the seam between the write pipeline and whatever holds the
// graph (DESIGN.md §7.2): one engine (engineBackend, below), or N
// partition-owning engines executing each batch as a BSP round
// (internal/shard). It is what lets one pipeline hide which of the two it
// drives: the server never asks a backend what it is. Apply,
// PublishSnapshot and Trace are called by the writer only (one goroutine at
// a time); ReadRow, Shape and the Fill methods are safe from any goroutine;
// Mount and ArmBlackBox run before serving.
type Backend interface {
	// Apply applies one batch, fusing the changes of `requests` queued
	// requests, all-or-nothing: validation precedes any mutation, so a non-nil
	// error means nothing changed. That is what allows a failed fused apply to
	// be replayed request by request, and a rejected WAL record to be
	// re-rejected at replay. round identifies the batch in the backend's own
	// traces (the /v1/traces ↔ /v1/rounds join); 0 when it keeps none.
	Apply(delta graph.Delta, vups []inkstream.VertexUpdate, requests int) (round uint64, err error)
	// PublishSnapshot makes everything applied so far visible to ReadRow.
	PublishSnapshot()
	// ReadRow resolves one node against the published state, with the epoch
	// it was read at; ok is false only for a node out of range.
	ReadRow(node int) (row tensor.Vector, epoch uint64, ok bool)
	Shape() Shape
	// Trace returns the per-layer trace of the most recent Apply, valid until
	// the next one; nil when the backend keeps none (a round ID stands in).
	Trace() *obs.Trace

	// The backend's own surface, carried by the server's one mux, /v1/stats
	// body, registry, sampler, health check and black box instead of a second
	// copy of each, each signal in one of them. Mount registers routes,
	// metric families and time series, and hands over the observer applied
	// batches are recorded into.
	Mount(Surface)
	// FillStats adds the backend's part of a /v1/stats body: its bytes
	// fetched and, under shards, the sharding section — nothing a family
	// Mount registered already serves. FillHealth adds the fields of /healthz
	// only this backend has (the drift auditor's) and the reasons it is out
	// of spec.
	FillStats(*StatsResponse)
	FillHealth(*HealthzResponse)
	// ArmBlackBox hands over the incident black box once it is enabled, for
	// the backend's own capture triggers and bundle files.
	ArmBlackBox(*obs.BlackBox)
}

// Shape describes the served graph as of the published state.
type Shape struct {
	Nodes, Edges int
	Undirected   bool
	// Shards is the number of engines behind the backend; Epoch and MaxEpoch
	// the minimum and maximum published epoch across them (equal except
	// transiently while a round publishes). Every read is at least as fresh
	// as Epoch.
	Shards          int
	Epoch, MaxEpoch uint64
}

// Surface is the server's side of Backend.Mount.
type Surface struct {
	Mux      *http.ServeMux
	Registry *obs.Registry
	Sampler  *obs.Sampler
	Observer *obs.Observer
}

// engineBackend is one engine behind the seam, with what only one engine
// has: POST /v1/verify and the drift auditor (both need the L-hop cone of a
// vertex in one graph; audit.go), per-layer update traces and the work
// counters. It reaches back into the server for the exclusive ops on the
// writer that verify and the audit capture run as.
type engineBackend struct {
	*inkstream.Engine
	s        *Server
	counters *metrics.Counters // may be nil
	audit    *auditState
}

func (e *engineBackend) Apply(delta graph.Delta, vups []inkstream.VertexUpdate, _ int) (uint64, error) {
	return 0, e.Engine.Apply(delta, vups)
}

func (e *engineBackend) PublishSnapshot() { e.Engine.PublishSnapshot() }

func (e *engineBackend) ReadRow(node int) (tensor.Vector, uint64, bool) {
	snap := e.Snapshot()
	if node < 0 || node >= snap.NumNodes() {
		return nil, snap.Epoch, false
	}
	return snap.Row(node), snap.Epoch, true
}

func (e *engineBackend) Shape() Shape {
	snap := e.Snapshot()
	return Shape{
		Nodes: snap.Nodes, Edges: snap.Edges, Undirected: e.Graph().Undirected,
		Shards: 1, Epoch: snap.Epoch, MaxEpoch: snap.Epoch,
	}
}

// conditions returns the published per-condition visit totals (paper Fig. 8
// taxonomy) by name.
func (e *engineBackend) conditions() map[string]int64 {
	st := e.Snapshot().Conditions
	counts := make(map[string]int64, len(st.Counts))
	for c := inkstream.CondPruned; c <= inkstream.CondSelfOnly; c++ {
		counts[c.String()] = st.Counts[c]
	}
	return counts
}

func (e *engineBackend) Mount(sf Surface) {
	sf.Mux.HandleFunc("POST /v1/verify", e.handleVerify)
	sf.Sampler.Gauge("drift_max_abs", e.audit.lastDrift)
	r := sf.Registry
	r.LabeledCounterFunc("inkstream_node_visits_total",
		"Per-layer node visits by InkStream condition (paper Fig. 8 taxonomy).",
		func() []obs.LabeledValue { return obs.SortedLabeled("condition", e.conditions()) })
	if c := e.counters; c != nil {
		r.CounterFunc("inkstream_events_processed_total",
			"InkStream propagation events consumed.",
			func() float64 { return float64(c.EventsProcessed.Load()) })
	}
}

func (e *engineBackend) FillStats(resp *StatsResponse) {
	if e.counters != nil {
		resp.BytesFetched = e.counters.BytesFetched.Load()
	}
}

func (e *engineBackend) FillHealth(resp *HealthzResponse) {
	a := e.audit
	drift, failures := a.lastDrift(), a.failures.Load()
	resp.DriftMaxAbs, resp.AuditFailures = &drift, &failures
	if a.lastFailed.Load() {
		resp.Reasons = append(resp.Reasons, fmt.Sprintf(
			"drift audit failing: max abs drift %g over tolerance %g", drift, a.limit()))
	}
}

func (e *engineBackend) ArmBlackBox(bb *obs.BlackBox) {
	e.audit.onFailure = func(reason string) { bb.Trigger("audit-failure", reason) }
}
