package obs

import "sync/atomic"

// Ring keeps the last N recorded values in a lock-free ring: Record is one
// atomic counter bump plus one atomic pointer store, and readers snapshot
// the slots without blocking writers. It holds the flight recorder's
// request traces and the shard router's round traces (DESIGN.md §9.2).
type Ring[T any] struct {
	widx     atomic.Uint64
	slots    []atomic.Pointer[T]
	recorded atomic.Int64
}

// NewRing builds a ring holding the last size values (at least one).
func NewRing[T any](size int) *Ring[T] {
	if size < 1 {
		size = 1
	}
	return &Ring[T]{slots: make([]atomic.Pointer[T], size)}
}

// Record publishes one finished value into the ring. The value must not be
// mutated afterwards. Safe for concurrent callers.
func (r *Ring[T]) Record(v *T) {
	i := r.widx.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(v)
	r.recorded.Add(1)
}

// Recorded returns the number of values recorded so far (including those
// already evicted from the ring).
func (r *Ring[T]) Recorded() int64 { return r.recorded.Load() }

// Traces snapshots the ring, newest first. The returned values are
// immutable; the slice is freshly allocated.
func (r *Ring[T]) Traces() []*T {
	n := uint64(len(r.slots))
	w := r.widx.Load()
	out := make([]*T, 0, n)
	count := min(w, n)
	for k := uint64(1); k <= count; k++ {
		if v := r.slots[(w-k)%n].Load(); v != nil {
			out = append(out, v)
		}
	}
	return out
}
