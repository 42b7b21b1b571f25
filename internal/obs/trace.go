package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// MaxCond bounds the per-layer condition counters a LayerSpan carries. The
// engine's Fig. 8 taxonomy has six conditions; the fixed array keeps the
// span POD so the engine can reuse one trace buffer with zero allocation.
const MaxCond = 8

// LayerSpan records what one GNN layer did during one Engine.Apply: the
// event traffic in and out, the nodes visited, how each visit was
// classified (the paper's evolvable-condition taxonomy), the embedding
// bytes fetched and the wall time spent.
type LayerSpan struct {
	Layer int
	// EventsIn counts the native events entering the layer: its changed-edge
	// events plus the routed arc events of the message changes the previous
	// layer emitted — one per out-arc of each changed source (arcs inserted
	// in the same batch excepted), two (Del + Add) on a monotonic layer. The
	// engine carries one record per source and never builds those events;
	// the count is what the grouping pass folds. Routing runs in the
	// consuming layer, so its time is in that layer's Elapsed.
	EventsIn     int64
	UserEventsIn int64 // user-hook events entering the layer
	// EventsOut is the routed arc-event count of the next layer (its
	// EventsIn less its changed-edge events); 0 for the last layer.
	EventsOut    int64
	Nodes        int64 // grouped targets processed
	BytesFetched int64 // embedding bytes read during the layer
	Cond         [MaxCond]int64
	Elapsed      time.Duration
}

// Trace resolves one update batch into phases: delta application (validate,
// snapshot removed sources, mutate the graph), vertex-feature application,
// and one span per layer of event propagation/recompute. An engine owns one
// Trace and refills it per Apply; Clone before retaining it past the
// Observer callback.
type Trace struct {
	Total         time.Duration
	DeltaEdges    int // edge changes in the batch
	VertexUpdates int // vertex-feature updates in the batch
	DeltaApply    time.Duration
	VertexApply   time.Duration
	Layers        []LayerSpan

	// CondNames maps Cond indices to condition names for rendering; set
	// once at engine construction and shared across reuses.
	CondNames []string
}

// Reset prepares the trace for reuse with room for layers spans, keeping
// the backing array.
func (t *Trace) Reset(layers int) {
	names := t.CondNames
	spans := t.Layers
	if cap(spans) < layers {
		spans = make([]LayerSpan, layers)
	}
	spans = spans[:layers]
	for i := range spans {
		spans[i] = LayerSpan{Layer: i}
	}
	*t = Trace{Layers: spans, CondNames: names}
}

// Clone deep-copies the trace (for retention beyond the emitting call).
func (t *Trace) Clone() *Trace {
	c := *t
	c.Layers = append([]LayerSpan(nil), t.Layers...)
	return &c
}

// Events returns the total native events processed across all layers.
func (t *Trace) Events() int64 {
	var n int64
	for i := range t.Layers {
		n += t.Layers[i].EventsIn
	}
	return n
}

// NodesVisited returns the total grouped targets processed across layers.
func (t *Trace) NodesVisited() int64 {
	var n int64
	for i := range t.Layers {
		n += t.Layers[i].Nodes
	}
	return n
}

// condName resolves index i against CondNames.
func (t *Trace) condName(i int) string {
	if i < len(t.CondNames) {
		return t.CondNames[i]
	}
	return fmt.Sprintf("cond%d", i)
}

// traceJSON and spanJSON shape the JSON rendering (durations in
// microseconds, conditions as a name→count map).
type traceJSON struct {
	TotalUS       float64    `json:"total_us"`
	DeltaEdges    int        `json:"delta_edges"`
	VertexUpdates int        `json:"vertex_updates"`
	DeltaApplyUS  float64    `json:"delta_apply_us"`
	VertexApplyUS float64    `json:"vertex_apply_us,omitempty"`
	Layers        []spanJSON `json:"layers"`
}

type spanJSON struct {
	Layer        int              `json:"layer"`
	EventsIn     int64            `json:"events_in"`
	UserEventsIn int64            `json:"user_events_in,omitempty"`
	EventsOut    int64            `json:"events_out"`
	Nodes        int64            `json:"nodes"`
	BytesFetched int64            `json:"bytes_fetched"`
	Conditions   map[string]int64 `json:"conditions,omitempty"`
	ElapsedUS    float64          `json:"elapsed_us"`
}

// MarshalJSON renders the trace as a machine-readable object.
func (t *Trace) MarshalJSON() ([]byte, error) {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	out := traceJSON{
		TotalUS:       us(t.Total),
		DeltaEdges:    t.DeltaEdges,
		VertexUpdates: t.VertexUpdates,
		DeltaApplyUS:  us(t.DeltaApply),
		VertexApplyUS: us(t.VertexApply),
		Layers:        make([]spanJSON, len(t.Layers)),
	}
	for i := range t.Layers {
		s := &t.Layers[i]
		sj := spanJSON{
			Layer:        s.Layer,
			EventsIn:     s.EventsIn,
			UserEventsIn: s.UserEventsIn,
			EventsOut:    s.EventsOut,
			Nodes:        s.Nodes,
			BytesFetched: s.BytesFetched,
			ElapsedUS:    us(s.Elapsed),
		}
		for c, n := range s.Cond {
			if n > 0 {
				if sj.Conditions == nil {
					sj.Conditions = make(map[string]int64)
				}
				sj.Conditions[t.condName(c)] = n
			}
		}
		out.Layers[i] = sj
	}
	return json.Marshal(out)
}
