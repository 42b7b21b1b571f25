package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
)

// coverage records which chunks a parallel region executed.
type coverage struct {
	mu     sync.Mutex
	chunks [][2]int
}

func (c *coverage) body(lo, hi int) {
	c.mu.Lock()
	c.chunks = append(c.chunks, [2]int{lo, hi})
	c.mu.Unlock()
}

// verify asserts the chunks tile [0, n) exactly: disjoint, complete.
func (c *coverage) verify(t *testing.T, n int) {
	t.Helper()
	seen := make([]bool, n)
	for _, ch := range c.chunks {
		for i := ch[0]; i < ch[1]; i++ {
			if i < 0 || i >= n {
				t.Fatalf("chunk %v out of range [0,%d)", ch, n)
			}
			if seen[i] {
				t.Fatalf("index %d covered twice", i)
			}
			seen[i] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d not covered", i)
		}
	}
}

func TestParallelForCoversRange(t *testing.T) {
	oldP, oldMin := Parallelism, MinChunkWork
	defer func() { Parallelism, MinChunkWork = oldP, oldMin }()
	for _, w := range []int{1, 2, 4, 7} {
		Parallelism = w
		for _, min := range []int{1, 64, 4096} {
			MinChunkWork = min
			for _, n := range []int{0, 1, 2, 5, 100, 1023, 1024, 4097} {
				var c coverage
				ParallelFor(n, c.body)
				c.verify(t, n)
			}
		}
	}
}

func TestParallelForGrainCoversRange(t *testing.T) {
	oldP, oldMin := Parallelism, MinChunkWork
	defer func() { Parallelism, MinChunkWork = oldP, oldMin }()
	Parallelism = 4
	MinChunkWork = 1024
	for _, grain := range []int{0, 1, 32, 1024, 1 << 20} {
		for _, n := range []int{0, 3, 64, 1000, 5000} {
			var c coverage
			ParallelForGrain(n, grain, c.body)
			c.verify(t, n)
		}
	}
}

// TestParallelForMinChunk asserts that regions below the MinChunkWork floor
// run as a single sequential chunk, and that a large grain lowers the index
// floor proportionally.
func TestParallelForMinChunk(t *testing.T) {
	oldP, oldMin := Parallelism, MinChunkWork
	defer func() { Parallelism, MinChunkWork = oldP, oldMin }()
	Parallelism = 8
	MinChunkWork = 1024

	// 100 unit-cost indices < 2*1024: must not split.
	var c coverage
	ParallelFor(100, c.body)
	if len(c.chunks) != 1 {
		t.Errorf("tiny region split into %d chunks, want 1", len(c.chunks))
	}
	c.verify(t, 100)

	// Same 100 indices at grain 256 carry 25600 units: must split.
	var c2 coverage
	ParallelForGrain(100, 256, c2.body)
	if len(c2.chunks) < 2 {
		t.Errorf("heavy region ran in %d chunks, want >= 2", len(c2.chunks))
	}
	c2.verify(t, 100)

	// No chunk may carry less than MinChunkWork units (except implied by
	// the worker split of a large region).
	for _, ch := range c2.chunks {
		if units := (ch[1] - ch[0]) * 256; units < MinChunkWork {
			t.Errorf("chunk %v carries %d units < MinChunkWork %d", ch, units, MinChunkWork)
		}
	}
}

// TestParallelForNested asserts nested parallel regions complete (the
// helping wait prevents pool starvation deadlocks).
func TestParallelForNested(t *testing.T) {
	oldP, oldMin := Parallelism, MinChunkWork
	defer func() { Parallelism, MinChunkWork = oldP, oldMin }()
	Parallelism = 4
	MinChunkWork = 1
	var total atomic.Int64
	ParallelFor(64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelFor(32, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if got := total.Load(); got != 64*32 {
		t.Fatalf("nested regions covered %d indices, want %d", got, 64*32)
	}
}

func TestParallelForEachGrain(t *testing.T) {
	oldP, oldMin := Parallelism, MinChunkWork
	defer func() { Parallelism, MinChunkWork = oldP, oldMin }()
	Parallelism = 4
	MinChunkWork = 1
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	var sum atomic.Int64
	ParallelForEachGrain(items, 64, func(v int) { sum.Add(int64(v)) })
	want := int64(len(items)*(len(items)-1)) / 2
	if sum.Load() != want {
		t.Fatalf("sum %d, want %d", sum.Load(), want)
	}
}

// TestParallelForConcurrentRegions exercises many goroutines issuing
// regions against the shared pool at once (run under -race).
func TestParallelForConcurrentRegions(t *testing.T) {
	oldP, oldMin := Parallelism, MinChunkWork
	defer func() { Parallelism, MinChunkWork = oldP, oldMin }()
	Parallelism = 4
	MinChunkWork = 1
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				var sum atomic.Int64
				ParallelFor(257, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						sum.Add(1)
					}
				})
				if sum.Load() != 257 {
					t.Errorf("covered %d of 257", sum.Load())
					return
				}
			}
		}()
	}
	wg.Wait()
}
