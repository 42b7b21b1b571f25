package obs

import (
	"sync/atomic"
	"time"
)

// Observer aggregates one serving path's update observations: a latency
// histogram that is always on, and a count of slow updates. Engines call
// RecordUpdate once per applied batch; everything it does is lock-free. A
// nil *Observer disables all recording, so call sites need no guards.
type Observer struct {
	// UpdateLatency holds end-to-end Apply latencies in nanoseconds.
	UpdateLatency *Histogram

	// SlowThreshold marks an update slow when its total latency reaches
	// it; slow updates bump SlowUpdates. Zero disables the count. Set it
	// before the first update is recorded.
	SlowThreshold time.Duration

	updates atomic.Int64
	slow    atomic.Int64
}

// NewObserver builds an observer with the default histogram geometry.
func NewObserver() *Observer {
	return &Observer{UpdateLatency: NewLatencyHistogram()}
}

// RecordLatency records one update without a trace (used by baselines so
// benchmark comparisons are observed like-for-like).
func (o *Observer) RecordLatency(d time.Duration) {
	if o == nil {
		return
	}
	o.updates.Add(1)
	o.UpdateLatency.ObserveDuration(d)
	if o.SlowThreshold > 0 && d >= o.SlowThreshold {
		o.slow.Add(1)
	}
}

// RecordUpdate records one traced update.
func (o *Observer) RecordUpdate(t *Trace) {
	o.RecordLatency(t.Total)
}

// Updates returns the number of recorded updates.
func (o *Observer) Updates() int64 {
	if o == nil {
		return 0
	}
	return o.updates.Load()
}

// SlowUpdates returns the number of updates at or above SlowThreshold.
func (o *Observer) SlowUpdates() int64 {
	if o == nil {
		return 0
	}
	return o.slow.Load()
}
