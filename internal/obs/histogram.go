package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket, log2-spaced histogram safe for concurrent
// writers. Observe is lock-free and allocation-free: one shift-based bucket
// index plus four atomic adds, cheap enough for the engine's per-update hot
// path. Values are unitless int64s; latency histograms store nanoseconds
// and are rescaled to seconds at exposition time (see Registry.Histogram).
//
// Buckets double from a minimum power-of-two bound: bucket i covers
// (bounds[i-1], bounds[i]], bucket 0 covers [0, bounds[0]], and one
// overflow bucket catches everything above the last bound (the +Inf bucket
// of the Prometheus exposition).
type Histogram struct {
	minLog uint    // bounds[0] == 1<<minLog
	bounds []int64 // finite upper bounds, immutable after construction

	counts []atomic.Int64 // len(bounds)+1; last slot is +Inf
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram builds a histogram whose finite buckets span [min, max]:
// min is rounded up to a power of two and bounds double until they reach
// max. Panics on non-positive arguments or min > max (a construction-time
// programming error, never a runtime condition).
func NewHistogram(min, max int64) *Histogram {
	if min <= 0 || max < min {
		panic(fmt.Sprintf("obs: bad histogram range [%d, %d]", min, max))
	}
	minLog := uint(bits.Len64(uint64(min - 1))) // round up to power of two
	var bounds []int64
	for b := int64(1) << minLog; ; b <<= 1 {
		bounds = append(bounds, b)
		if b >= max || b >= 1<<62 {
			break
		}
	}
	return &Histogram{
		minLog: minLog,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// NewLatencyHistogram covers ~1µs to ~68s of nanosecond observations in 27
// buckets — the full range between InkStream's instantaneous updates and a
// pathological full-graph-sized recompute.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(1<<10, int64(68*time.Second))
}

// NewSizeHistogram covers counts from 1 to ~1M in 21 buckets (batch sizes,
// event counts, affected-area sizes).
func NewSizeHistogram() *Histogram {
	return NewHistogram(1, 1<<20)
}

// bucketIndex returns the slot for value v (v < 0 observes as 0).
func (h *Histogram) bucketIndex(v int64) int {
	if v <= h.bounds[0] {
		return 0
	}
	i := bits.Len64(uint64(v-1)) - int(h.minLog)
	if i >= len(h.bounds) {
		return len(h.bounds) // +Inf overflow slot
	}
	return i
}

// Observe records one value. Safe for any number of concurrent callers;
// nil-safe so call sites need no guard when observability is disabled.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[h.bucketIndex(v)].Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveDuration records a latency in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// ObserveN records value v n times in one pass — three atomic adds instead
// of n Observe calls. The runtime bridge uses it to fold whole buckets of
// the stdlib's cumulative histograms (scheduler latencies arrive thousands
// per tick under load). n <= 0 is a no-op.
func (h *Histogram) ObserveN(v, n int64) {
	if h == nil || n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[h.bucketIndex(v)].Add(n)
	h.sum.Add(v * n)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// LoadCounts copies the live per-bucket counts into dst, which must have
// NumBuckets slots, and returns the tracked maximum — the allocation-free
// sibling of Snapshot for callers that own a reusable scratch buffer.
func (h *Histogram) LoadCounts(dst []int64) (max int64) {
	for i := range h.counts {
		dst[i] = h.counts[i].Load()
	}
	return h.max.Load()
}

// NumBuckets returns the number of count slots (finite buckets plus +Inf).
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// HistSnapshot is an immutable copy of a histogram's state. Count is
// derived from the copied buckets, so sum-of-buckets == Count holds exactly
// within one snapshot even while writers race the copy; Sum and Max are
// loaded alongside and may run marginally ahead of the buckets.
type HistSnapshot struct {
	Bounds []int64 // finite upper bounds (shared with the histogram; read-only)
	Counts []int64 // per-bucket counts; len(Bounds)+1, last is +Inf
	Count  int64
	Sum    int64
	Max    int64
}

// Snapshot copies the current state.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear interpolation
// inside the bucket holding the nearest-rank observation; the overflow
// bucket resolves to the tracked exact maximum. Returns 0 for an empty
// snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) || rank == 0 {
		rank++ // ceil, min rank 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, c := range s.Counts {
		if cum+c < rank {
			cum += c
			continue
		}
		var lo, hi int64
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if i < len(s.Bounds) {
			hi = s.Bounds[i]
		} else {
			hi = s.Max // overflow bucket: cap at the exact max
			if hi < lo {
				hi = lo
			}
		}
		est := lo + int64(float64(hi-lo)*float64(rank-cum)/float64(c))
		if est > s.Max && s.Max > 0 {
			est = s.Max
		}
		return est
	}
	return s.Max
}

// P50, P95 and P99 are the snapshot quantiles the serving dashboards read.
func (s HistSnapshot) P50() int64 { return s.Quantile(0.50) }
func (s HistSnapshot) P95() int64 { return s.Quantile(0.95) }
func (s HistSnapshot) P99() int64 { return s.Quantile(0.99) }

// Mean returns the arithmetic mean observation (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

func (s HistSnapshot) String() string {
	return fmt.Sprintf("count=%d p50=%v p95=%v p99=%v max=%v",
		s.Count,
		time.Duration(s.P50()), time.Duration(s.P95()),
		time.Duration(s.P99()), time.Duration(s.Max))
}
