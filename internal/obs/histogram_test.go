package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(1024, 1<<20)
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {1024, 0},
		{1025, 1}, {2048, 1}, {2049, 2},
		{1 << 20, 10}, {1<<20 + 1, 11 /* overflow */},
	}
	for _, c := range cases {
		if got := h.bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if len(h.bounds) != 11 {
		t.Fatalf("bounds = %d, want 11 (2^10..2^20)", len(h.bounds))
	}
	if h.bounds[0] != 1024 || h.bounds[10] != 1<<20 {
		t.Errorf("bounds span [%d, %d]", h.bounds[0], h.bounds[10])
	}
}

func TestHistogramMinRoundsUpToPowerOfTwo(t *testing.T) {
	h := NewHistogram(1000, 4000)
	if h.bounds[0] != 1024 {
		t.Errorf("min bound = %d, want 1024", h.bounds[0])
	}
	h = NewHistogram(1, 8)
	if h.bounds[0] != 1 || len(h.bounds) != 4 {
		t.Errorf("bounds = %v, want [1 2 4 8]", h.bounds)
	}
}

func TestHistogramSnapshotAndQuantiles(t *testing.T) {
	h := NewHistogram(1, 1<<16)
	// 100 observations of value i+1 (1..100): p50 ≈ 50, p99 ≈ 99.
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 5050 {
		t.Errorf("sum = %d, want 5050", s.Sum)
	}
	if s.Max != 100 {
		t.Errorf("max = %d, want 100", s.Max)
	}
	// Log-bucket estimates are coarse; accept the right bucket scale.
	if p := s.P50(); p < 33 || p > 64 {
		t.Errorf("p50 = %d, want within (32, 64]", p)
	}
	if p := s.P99(); p < 65 || p > 128 {
		t.Errorf("p99 = %d, want within (64, 128]", p)
	}
	if q := s.Quantile(1); q > s.Max {
		t.Errorf("q100 = %d exceeds max %d", q, s.Max)
	}
	if got := s.Mean(); got != 50.5 {
		t.Errorf("mean = %g, want 50.5", got)
	}
}

func TestHistogramOverflowQuantileCapsAtMax(t *testing.T) {
	h := NewHistogram(1, 4)
	h.Observe(1000)
	h.Observe(2000)
	s := h.Snapshot()
	if s.Counts[len(s.Counts)-1] != 2 {
		t.Fatalf("overflow count = %d", s.Counts[len(s.Counts)-1])
	}
	if q := s.Quantile(0.99); q > 2000 {
		t.Errorf("q99 = %d, want <= tracked max 2000", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	s := NewHistogram(1, 8).Snapshot()
	if s.Count != 0 || s.P50() != 0 || s.P99() != 0 || s.Mean() != 0 {
		t.Errorf("empty snapshot: %+v", s)
	}
	var nilH *Histogram
	nilH.Observe(5) // must not panic
	if s := nilH.Snapshot(); s.Count != 0 {
		t.Error("nil histogram snapshot non-empty")
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewLatencyHistogram()
	h.ObserveDuration(3 * time.Millisecond)
	s := h.Snapshot()
	if s.Sum != (3 * time.Millisecond).Nanoseconds() {
		t.Errorf("sum = %d", s.Sum)
	}
}

// TestHistogramConcurrentWriters hammers one histogram from many
// goroutines (run with -race) and checks that no observation is lost and
// the snapshot invariants hold.
func TestHistogramConcurrentWriters(t *testing.T) {
	h := NewLatencyHistogram()
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.Observe(rng.Int63n(int64(time.Second)))
			}
		}(int64(w))
	}
	// Concurrent snapshots must stay internally consistent: the bucket sum
	// IS the count, and quantiles are monotone.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s := h.Snapshot()
			var total int64
			for _, c := range s.Counts {
				total += c
			}
			if total != s.Count {
				t.Errorf("snapshot count %d != bucket sum %d", s.Count, total)
				return
			}
			if p50, p99 := s.P50(), s.P99(); p50 > p99 {
				t.Errorf("p50 %d > p99 %d", p50, p99)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	if s.Max >= int64(time.Second) || s.Max <= 0 {
		t.Errorf("max = %d out of generated range", s.Max)
	}
}

func TestObserverRecord(t *testing.T) {
	o := NewObserver()
	o.SlowThreshold = time.Millisecond

	fast := &Trace{Total: 10 * time.Microsecond, DeltaEdges: 2,
		Layers: []LayerSpan{{EventsIn: 4}}}
	slow := &Trace{Total: 5 * time.Millisecond, DeltaEdges: 1, VertexUpdates: 1,
		Layers: []LayerSpan{{EventsIn: 7}, {Layer: 1, EventsIn: 3}}}
	o.RecordUpdate(fast)
	o.RecordUpdate(slow)
	if o.Updates() != 2 || o.SlowUpdates() != 1 {
		t.Fatalf("updates=%d slow=%d", o.Updates(), o.SlowUpdates())
	}
	if s := o.UpdateLatency.Snapshot(); s.Count != 2 || s.Sum != int64(fast.Total+slow.Total) {
		t.Errorf("latency count=%d sum=%d", s.Count, s.Sum)
	}

	o.RecordLatency(2 * time.Millisecond)
	if o.Updates() != 3 || o.SlowUpdates() != 2 {
		t.Errorf("after RecordLatency: updates=%d slow=%d", o.Updates(), o.SlowUpdates())
	}

	var nilObs *Observer
	nilObs.RecordUpdate(fast) // nil-safety
	nilObs.RecordLatency(time.Second)
	if nilObs.Updates() != 0 || nilObs.SlowUpdates() != 0 {
		t.Error("nil observer not inert")
	}
}
