package obs

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"
)

// Flight recorder: request-scoped pipeline traces (DESIGN.md §9.2).
//
// The per-update Trace resolves where one Engine.Apply spent its time, but
// a served request's latency is dominated by everything *around* the apply:
// queueing behind the in-flight group, the WAL group commit, the coalescing
// absorb window, snapshot publication and the acknowledgement handoff. A
// ReqTrace timestamps each of those stages for one request travelling the
// single-writer pipeline, and the FlightRecorder keeps the last N
// interesting requests (sampled, slow or failed) in a lock-free ring so a
// fat p99 bucket can be resolved to a concrete request after the fact.

// Stage enumerates the pipeline stages a request passes through. Marks are
// cumulative offsets from submit time; a zero mark means the stage was
// never reached (op requests skip the journal, failed requests skip apply).
type Stage int

const (
	// StageJournal: the request's group commit returned (durability point).
	StageJournal Stage = iota
	// StageCoalesce: the apply stage absorbed the request into the open
	// fused batch (or picked it up for a non-coalesced apply).
	StageCoalesce
	// StageApply: the Engine.Apply covering the request returned.
	StageApply
	// StagePublish: the snapshot covering the request was published.
	StagePublish
	// StageAck: the outcome was delivered to the waiting caller.
	StageAck
	// StageCount sizes per-request mark arrays.
	StageCount
)

var stageNames = [StageCount]string{"journal", "coalesce", "apply", "publish", "ack"}

func (s Stage) String() string {
	if s >= 0 && int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage%d", int(s))
}

// ReqTrace is the flight record of one pipeline request. Fields are written
// by the pipeline stages while the request is in flight and frozen before
// the trace is recorded; readers only ever see recorded (immutable) traces.
type ReqTrace struct {
	// ID is the request's trace ID, assigned at submit. Rendered as 16 hex
	// digits (TraceIDString), like the round IDs it is joined with.
	ID uint64
	// Kind is "update", "features" or "op".
	Kind string
	// Start is the submit wall-clock time.
	Start time.Time
	// Edges and VUps size the request's batch; Fused is the number of
	// requests in the engine batch this request was applied in (1 when
	// applied alone).
	Edges, VUps int
	Fused       int
	// Marks holds cumulative stage offsets from Start; zero = not reached.
	Marks [StageCount]time.Duration
	// Total is the submit→ack latency.
	Total time.Duration
	// Err is the failure delivered to the caller ("" on success).
	Err string
	// Round is the BSP round the request was fused into (partitioned
	// deployments only; 0 = not round-executed). Matches a RoundTrace.ID,
	// so /v1/traces rows can be joined against /v1/rounds.
	Round uint64
	// GCPause is the total stop-the-world GC pause time that overlapped the
	// request's submit→ack window (0 when none did, or when runtime
	// telemetry is disabled) — the annotation that tells "the runtime froze
	// the pipeline" from "the application was slow".
	GCPause time.Duration
	// Sampled and Slow report why the trace was recorded.
	Sampled, Slow bool
	// Engine is the engine-side per-layer trace of the apply that covered
	// this request (cloned; only attached to sampled/slow requests).
	Engine *Trace
}

// Span is one named stage duration of a request (the difference between
// consecutive reached marks).
type Span struct {
	Stage Stage
	D     time.Duration
}

// Spans resolves the cumulative marks into per-stage durations, skipping
// stages the request never reached. The first reached stage's span counts
// from submit, so queue wait is attributed to the stage that drained it.
func (t *ReqTrace) Spans() []Span {
	out := make([]Span, 0, StageCount)
	prev := time.Duration(0)
	for s := Stage(0); s < StageCount; s++ {
		m := t.Marks[s]
		if s == StageAck && m == 0 && t.Total > 0 {
			m = t.Total
		}
		if m == 0 {
			continue
		}
		out = append(out, Span{Stage: s, D: m - prev})
		prev = m
	}
	return out
}

// SlowestStage names the stage the request spent the most time in — the
// one-line answer to "where did this slow update go".
func (t *ReqTrace) SlowestStage() (Stage, time.Duration) {
	spans := t.Spans()
	if len(spans) == 0 {
		return StageAck, 0
	}
	best := spans[0]
	for _, sp := range spans[1:] {
		if sp.D > best.D {
			best = sp
		}
	}
	return best.Stage, best.D
}

// TraceIDString renders a trace or round ID the way /v1/traces and
// /v1/rounds do.
func TraceIDString(id uint64) string { return fmt.Sprintf("%016x", id) }

// SpanJSON is one stage span of a TraceJSON.
type SpanJSON struct {
	Stage string  `json:"stage"`
	US    float64 `json:"us"`
}

// TraceJSON is a request trace as GET /v1/traces serves it and a bundle's
// traces.json holds it; LoadDump reads bundles back into it. Engine is the
// per-layer Trace, kept as raw JSON on the read side.
type TraceJSON struct {
	TraceID      string          `json:"trace_id"`
	Kind         string          `json:"kind"`
	Start        time.Time       `json:"start"`
	Edges        int             `json:"edges,omitempty"`
	VUps         int             `json:"vertex_updates,omitempty"`
	Fused        int             `json:"fused,omitempty"`
	RoundID      string          `json:"round_id,omitempty"`
	TotalUS      float64         `json:"total_us"`
	Spans        []SpanJSON      `json:"spans"`
	SlowestStage string          `json:"slowest_stage"`
	GCPauseUS    float64         `json:"gc_pause_us,omitempty"`
	Err          string          `json:"error,omitempty"`
	Sampled      bool            `json:"sampled,omitempty"`
	Slow         bool            `json:"slow,omitempty"`
	Engine       json.RawMessage `json:"engine,omitempty"`
}

// us renders a duration in (fractional) microseconds, the unit of every
// *_us field of /v1/traces and /v1/rounds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// MarshalJSON renders the request trace for GET /v1/traces.
func (t *ReqTrace) MarshalJSON() ([]byte, error) {
	slowest, _ := t.SlowestStage()
	out := TraceJSON{
		TraceID:      TraceIDString(t.ID),
		Kind:         t.Kind,
		Start:        t.Start,
		Edges:        t.Edges,
		VUps:         t.VUps,
		Fused:        t.Fused,
		TotalUS:      us(t.Total),
		SlowestStage: slowest.String(),
		GCPauseUS:    us(t.GCPause),
		Err:          t.Err,
		Sampled:      t.Sampled,
		Slow:         t.Slow,
	}
	if t.Round != 0 {
		out.RoundID = TraceIDString(t.Round)
	}
	for _, sp := range t.Spans() {
		out.Spans = append(out.Spans, SpanJSON{Stage: sp.Stage.String(), US: us(sp.D)})
	}
	if t.Engine != nil {
		eng, err := json.Marshal(t.Engine)
		if err != nil {
			return nil, err
		}
		out.Engine = eng
	}
	return json.Marshal(out)
}

// FlightRecorder keeps the last N recorded request traces in a Ring. IDs
// are assigned to every request (one atomic add); whether a request is
// *recorded* is decided at ack time — sampled (1 in SampleEvery by ID),
// slow, or failed — so the steady-state cost of an unrecorded request is a
// handful of time.Now calls and two atomic adds.
type FlightRecorder struct {
	*Ring[ReqTrace]
	sampleEvery uint64
	slow        atomic.Int64 // ns; 0 disables the slow criterion
	seq         atomic.Uint64
}

// NewFlightRecorder builds a recorder holding the last size traces,
// sampling one request in sampleEvery by trace ID (0 disables sampling;
// slow and failed requests are still recorded).
func NewFlightRecorder(size, sampleEvery int) *FlightRecorder {
	f := &FlightRecorder{Ring: NewRing[ReqTrace](size)}
	if sampleEvery > 0 {
		f.sampleEvery = uint64(sampleEvery)
	}
	return f
}

// NextID assigns the next trace ID (starting at 1).
func (f *FlightRecorder) NextID() uint64 { return f.seq.Add(1) }

// SampledID reports whether the ID falls in the 1-in-SampleEvery sample.
func (f *FlightRecorder) SampledID(id uint64) bool {
	return f.sampleEvery > 0 && id%f.sampleEvery == 0
}

// SampleEvery returns the sampling divisor (0 = sampling disabled).
func (f *FlightRecorder) SampleEvery() int { return int(f.sampleEvery) }

// SetSlowThreshold marks requests at or above d as slow (always recorded,
// with the engine trace attached). Safe to call at any time.
func (f *FlightRecorder) SetSlowThreshold(d time.Duration) { f.slow.Store(d.Nanoseconds()) }

// SlowThreshold returns the current slow-request threshold.
func (f *FlightRecorder) SlowThreshold() time.Duration {
	return time.Duration(f.slow.Load())
}

// IsSlow reports whether a request of the given total latency counts as slow.
func (f *FlightRecorder) IsSlow(total time.Duration) bool {
	t := f.slow.Load()
	return t > 0 && total.Nanoseconds() >= t
}
