package server

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/graph"
	"repro/internal/inkstream"
	"repro/internal/obs"
)

// Flight-recorder wiring (DESIGN.md §9.2): every request travelling the
// single-writer pipeline gets a trace ID at submit and a cumulative
// timestamp at each stage it passes (journal group commit, coalesce pickup,
// engine apply, snapshot publish, ack). The per-stage marks cost a handful
// of time.Now calls per request; everything heavier — building the
// obs.ReqTrace, cloning the engine's per-layer trace — happens only for
// requests that end up *recorded*: sampled (1 in SampleEvery by ID), slower
// than the slow threshold, or failed.

// newReq builds a pipeline request, stamping its flight-recorder identity
// when request tracing is enabled.
func (s *Server) newReq(delta graph.Delta, vups []inkstream.VertexUpdate, op func() error) *updateReq {
	r := &updateReq{delta: delta, vups: vups, op: op, done: make(chan error, 1)}
	switch {
	case op != nil:
		r.kind = "op"
	case len(delta) == 0 && len(vups) > 0:
		r.kind = "features"
	default:
		r.kind = "update"
	}
	if f := s.flight; f != nil {
		r.id = f.NextID()
		r.start = time.Now()
		r.sampled = f.SampledID(r.id)
	}
	return r
}

// mark timestamps one pipeline stage for the request (no-op when tracing is
// disabled). Marks are cumulative offsets from submit; each is written by
// exactly one pipeline goroutine while it owns the request, and the channel
// handoffs between stages order the writes.
func (r *updateReq) mark(st obs.Stage) {
	if r.id != 0 {
		r.marks[st] = time.Since(r.start)
	}
}

// willRecord reports whether r would be recorded if it finished now — the
// criterion flushFused uses to decide whether the engine trace is worth
// cloning before the ack resolves the final latency.
func (s *Server) willRecord(r *updateReq) bool {
	if r.id == 0 {
		return false
	}
	return r.sampled || r.err != nil || s.flight.IsSlow(time.Since(r.start))
}

// attachEngineTrace clones the backend's per-layer trace of the apply that
// just covered r (when it keeps one) onto the request. Must run on the apply
// goroutine, before the next Apply invalidates the trace.
func (s *Server) attachEngineTrace(r *updateReq, eng **obs.Trace) {
	if !s.willRecord(r) {
		return
	}
	if *eng == nil {
		t := s.backend.Trace()
		if t == nil {
			return
		}
		*eng = t.Clone()
	}
	r.eng = *eng
}

// finish is the single acknowledgement point of the pipeline: it stamps the
// ack mark, observes the submit→ack latency, records the request's flight
// trace when it qualifies (sampled, slow or failed), and only then delivers
// the outcome to the waiting caller. Every done-channel send in the
// pipeline goes through here.
func (s *Server) finish(r *updateReq, err error) {
	if f := s.flight; f != nil && r.id != 0 {
		total := time.Since(r.start)
		r.marks[obs.StageAck] = total
		s.ackLat.Observe(total.Nanoseconds())
		slow := f.IsSlow(total)
		if r.sampled || slow || err != nil {
			t := &obs.ReqTrace{
				ID:      r.id,
				Kind:    r.kind,
				Start:   r.start,
				Edges:   len(r.delta),
				VUps:    len(r.vups),
				Fused:   r.fused,
				Marks:   r.marks,
				Total:   total,
				Sampled: r.sampled,
				Slow:    slow,
				Engine:  r.eng,
				Round:   r.round,
			}
			if err != nil {
				t.Err = err.Error()
			}
			// Annotate the trace with any GC stop-the-world pause that
			// overlapped its submit→ack window.
			t.GCPause = s.runtime.GCPauseOverlap(r.start, r.start.Add(total))
			f.Record(t)
		}
	}
	r.done <- err
}

// SetTraceSampling reconfigures the flight recorder before serving: ring is
// the number of retained traces, every the sampling divisor (record 1 in
// `every` requests by ID; 0 records only slow/failed requests). ring 0
// disables request tracing entirely — no IDs, no stage timestamps — the
// off-path the observability overhead gate benchmarks against.
func (s *Server) SetTraceSampling(ring, every int) {
	if ring <= 0 {
		s.flight = nil
		return
	}
	f := obs.NewFlightRecorder(ring, every)
	if s.flight != nil {
		f.SetSlowThreshold(s.flight.SlowThreshold())
	}
	s.flight = f
}

// SetSlowTraceThreshold marks requests at or above d as slow — always kept
// in the flight recorder, with the backend's per-layer trace attached when
// it keeps one — and applied batches at or above d as slow updates
// (/v1/stats slow_updates). Call before serving.
func (s *Server) SetSlowTraceThreshold(d time.Duration) {
	s.obs.SlowThreshold = d
	if s.flight != nil {
		s.flight.SetSlowThreshold(d)
	}
}

// FlightRecorder exposes the recorder (nil when tracing is disabled).
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flight }

// Sampler exposes the in-process time-series sampler; tests drive its Tick
// deterministically instead of waiting out the 1s background cadence.
func (s *Server) Sampler() *obs.Sampler { return s.sampler }

// Runtime exposes the runtime telemetry collector (always non-nil); the
// overhead benchmarks toggle it with SetEnabled.
func (s *Server) Runtime() *obs.Runtime { return s.runtime }

// TracesResponse is the body of GET /v1/traces.
type TracesResponse struct {
	// SampleEvery is the sampling divisor (0 = only slow/failed requests);
	// SlowThresholdMS the slow criterion (0 = disabled); Recorded the total
	// number of traces recorded since start (the ring keeps the newest).
	SampleEvery     int     `json:"sample_every"`
	SlowThresholdMS float64 `json:"slow_threshold_ms,omitempty"`
	Recorded        int64   `json:"recorded"`
	// Traces are the retained request traces, newest first.
	Traces []*obs.ReqTrace `json:"traces"`
}

// handleTraces serves the flight-recorder ring, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	f := s.flight
	if f == nil {
		httpError(w, http.StatusNotImplemented, "request tracing disabled")
		return
	}
	ServeRing(w, r, f.Traces(),
		func(t *obs.ReqTrace) time.Duration { return t.Total },
		func(traces []*obs.ReqTrace) any {
			return TracesResponse{
				SampleEvery:     f.SampleEvery(),
				SlowThresholdMS: float64(f.SlowThreshold()) / 1e6,
				Recorded:        f.Recorded(),
				Traces:          traces,
			}
		})
}

// ServeRing answers a GET for a newest-first trace ring (/v1/traces, and a
// backend's /v1/rounds) with its two query parameters applied: n caps
// the number of entries returned, min_us drops entries faster than the
// given total latency in microseconds — "show me the slow ones". body wraps
// the surviving entries into the response.
func ServeRing[T any](w http.ResponseWriter, r *http.Request, ring []T, total func(T) time.Duration, body func([]T) any) {
	if v := r.URL.Query().Get("min_us"); v != "" {
		minUS, err := strconv.ParseFloat(v, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad min_us %q", v)
			return
		}
		kept := ring[:0]
		for _, t := range ring {
			if float64(total(t).Nanoseconds())/1e3 >= minUS {
				kept = append(kept, t)
			}
		}
		ring = kept
	}
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad n %q", v)
			return
		}
		if n < len(ring) {
			ring = ring[:n]
		}
	}
	if ring == nil {
		ring = []T{}
	}
	writeJSON(w, body(ring))
}

// handleTimeseries serves the in-process time-series window (oldest sample
// first) — the last ~10 minutes of serving behaviour without a scraping
// stack.
func (s *Server) handleTimeseries(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.sampler.Snapshot())
}

// buildTimeseries registers the serving series the sampler tracks, each read
// by an inkstat sparkline, a post-mortem section, /healthz or the burn-rate
// alerts (DESIGN.md §9.3). Counters render as per-second rates, latency
// quantiles are windowed per tick; every source reads atomics or the
// published state, so a tick never touches mutable engine state.
func (s *Server) buildTimeseries() {
	ts := s.sampler
	ts.Counter("upd_per_s", func() float64 { return float64(s.obs.Updates()) })
	ts.HistQuantile("ack_p99_ms", s.ackLat, 0.99, 1e-6)
	ts.Gauge("lag_batches", func() float64 { return float64(s.lag()) })
	// Runtime telemetry series (heap_mb, goroutines, gc_cpu_pct,
	// gc_pause_ms, sched_p99_ms); the first one runs the tick's Collect.
	s.runtime.Install(ts)
}
