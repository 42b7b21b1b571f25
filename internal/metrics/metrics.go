// Package metrics provides the instrumentation shared by every inference
// engine in this repository: exact counters for memory traffic, compute
// and node visits, plus wall-clock timing. The paper's Table V (memory and
// visit reductions) is produced directly from these counters, and the
// timing tables use the timers.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Counters accumulates work done by an inference engine. All methods are
// safe for concurrent use (engines shard work across goroutines). Each is
// one atomic add on a cache line every worker shares, so the incremental
// engine does not call them per target: each of its worker chunks records
// into its own Tally and flushes that into the Counters once, when the
// chunk ends.
type Counters struct {
	// BytesFetched counts embedding bytes read from the cached state or
	// feature matrix — the "memory cost" of Table V.
	BytesFetched atomic.Int64
	// BytesWritten counts embedding bytes stored back.
	BytesWritten atomic.Int64
	// FLOPs counts floating-point multiply-adds (2 flops each) and
	// comparisons in aggregation.
	FLOPs atomic.Int64
	// NodesVisited counts nodes whose embedding was computed or updated —
	// the "number of visited nodes" of Table V.
	NodesVisited atomic.Int64
	// EventsProcessed counts InkStream events consumed.
	EventsProcessed atomic.Int64
}

// FetchVec records reading an n-float32 vector.
func (c *Counters) FetchVec(n int) {
	if c != nil {
		c.BytesFetched.Add(int64(4 * n))
	}
}

// StoreVec records writing an n-float32 vector.
func (c *Counters) StoreVec(n int) {
	if c != nil {
		c.BytesWritten.Add(int64(4 * n))
	}
}

// AddFLOPs records n floating-point operations.
func (c *Counters) AddFLOPs(n int64) {
	if c != nil {
		c.FLOPs.Add(n)
	}
}

// VisitNode records one node visit.
func (c *Counters) VisitNode() {
	if c != nil {
		c.NodesVisited.Add(1)
	}
}

// VisitNodes records n node visits.
func (c *Counters) VisitNodes(n int) {
	if c != nil {
		c.NodesVisited.Add(int64(n))
	}
}

// Tally is Counters for one goroutine: the same recording methods as plain
// adds, and the same fields. Flush adds it into a shared Counters in one
// atomic add per field.
type Tally Snapshot

// FetchVec records reading an n-float32 vector.
func (t *Tally) FetchVec(n int) { t.BytesFetched += int64(4 * n) }

// StoreVec records writing an n-float32 vector.
func (t *Tally) StoreVec(n int) { t.BytesWritten += int64(4 * n) }

// AddFLOPs records n floating-point operations.
func (t *Tally) AddFLOPs(n int64) { t.FLOPs += n }

// VisitNode records one node visit.
func (t *Tally) VisitNode() { t.NodesVisited++ }

// AddEvents records n consumed events.
func (t *Tally) AddEvents(n int) { t.EventsProcessed += int64(n) }

// Flush adds t into c (nothing when c is nil) and zeroes t.
func (t *Tally) Flush(c *Counters) {
	if c != nil {
		c.BytesFetched.Add(t.BytesFetched)
		c.BytesWritten.Add(t.BytesWritten)
		c.FLOPs.Add(t.FLOPs)
		c.NodesVisited.Add(t.NodesVisited)
		c.EventsProcessed.Add(t.EventsProcessed)
	}
	*t = Tally{}
}

// Reset zeroes every counter.
func (c *Counters) Reset() {
	c.BytesFetched.Store(0)
	c.BytesWritten.Store(0)
	c.FLOPs.Store(0)
	c.NodesVisited.Store(0)
	c.EventsProcessed.Store(0)
}

// Snapshot is an immutable copy of counter values.
type Snapshot struct {
	BytesFetched, BytesWritten, FLOPs, NodesVisited, EventsProcessed int64
}

// Snapshot captures the current values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		BytesFetched:    c.BytesFetched.Load(),
		BytesWritten:    c.BytesWritten.Load(),
		FLOPs:           c.FLOPs.Load(),
		NodesVisited:    c.NodesVisited.Load(),
		EventsProcessed: c.EventsProcessed.Load(),
	}
}

// Sub returns s - o field-wise, for measuring a region between snapshots.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		BytesFetched:    s.BytesFetched - o.BytesFetched,
		BytesWritten:    s.BytesWritten - o.BytesWritten,
		FLOPs:           s.FLOPs - o.FLOPs,
		NodesVisited:    s.NodesVisited - o.NodesVisited,
		EventsProcessed: s.EventsProcessed - o.EventsProcessed,
	}
}

// Add returns s + o field-wise, for averaging over scenarios.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		BytesFetched:    s.BytesFetched + o.BytesFetched,
		BytesWritten:    s.BytesWritten + o.BytesWritten,
		FLOPs:           s.FLOPs + o.FLOPs,
		NodesVisited:    s.NodesVisited + o.NodesVisited,
		EventsProcessed: s.EventsProcessed + o.EventsProcessed,
	}
}

func (s Snapshot) String() string {
	return fmt.Sprintf("fetched=%s written=%s flops=%d visited=%d events=%d",
		HumanBytes(s.BytesFetched), HumanBytes(s.BytesWritten), s.FLOPs, s.NodesVisited, s.EventsProcessed)
}

// HumanBytes renders a byte count with a binary-unit suffix.
func HumanBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%dB", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(b)/float64(div), "KMGTPE"[exp])
}

// Stopwatch measures a single region of wall-clock time.
type Stopwatch struct {
	start   time.Time
	elapsed time.Duration
	running bool
}

// Start begins (or restarts) timing.
func (s *Stopwatch) Start() {
	s.start = time.Now()
	s.running = true
}

// Stop ends timing and accumulates into Elapsed.
func (s *Stopwatch) Stop() {
	if s.running {
		s.elapsed += time.Since(s.start)
		s.running = false
	}
}

// Elapsed returns the accumulated time (including a running interval).
func (s *Stopwatch) Elapsed() time.Duration {
	if s.running {
		return s.elapsed + time.Since(s.start)
	}
	return s.elapsed
}

// Reset clears the stopwatch.
func (s *Stopwatch) Reset() { *s = Stopwatch{} }

// Time runs f and returns its wall-clock duration.
func Time(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}
