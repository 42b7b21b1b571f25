package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallelism is the default worker count for parallel kernels. It is a
// variable so benchmarks and tests can pin it; zero or negative values mean
// "use GOMAXPROCS". It bounds how many chunks a parallel region is split
// into, not the size of the shared worker pool (which is fixed at
// GOMAXPROCS when first used).
var Parallelism = 0

// MinChunkWork is the minimum amount of work — measured in grain units, see
// ParallelForGrain — that one chunk of a parallel region must carry.
// Regions smaller than two such chunks run sequentially on the caller:
// cross-goroutine synchronization costs on the order of a microsecond, so
// splitting sub-microsecond bodies makes them slower, not faster.
var MinChunkWork = 1024

func workers(requested int) int {
	n := requested
	if n <= 0 {
		n = Parallelism
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ---------------------------------------------------------------------------
// Persistent worker pool.
//
// An experiment run issues millions of small parallel regions (three phases
// per layer per inference, one per engine layer per update). Spawning fresh
// goroutines for each region costs a few microseconds of scheduler work per
// call; the pool amortises that to a channel send. Workers are started
// lazily on the first parallel region and live for the process lifetime.

// parallelRegion tracks one ParallelForGrain invocation: how many chunks are
// still outstanding and a buffered completion signal. Regions are pooled so
// steady-state ParallelForGrain calls do not allocate.
type parallelRegion struct {
	pending atomic.Int32
	done    chan struct{}
}

var regionPool = sync.Pool{New: func() any {
	return &parallelRegion{done: make(chan struct{}, 1)}
}}

// poolTask is one chunk of a region, sent by value through the task queue.
type poolTask struct {
	body   func(lo, hi int)
	lo, hi int
	r      *parallelRegion
}

func (t poolTask) run() {
	t.body(t.lo, t.hi)
	if t.r.pending.Add(-1) == 0 {
		t.r.done <- struct{}{}
	}
}

var (
	poolOnce  sync.Once
	poolTasks chan poolTask
)

func ensurePool() {
	poolOnce.Do(func() {
		w := runtime.GOMAXPROCS(0)
		if w < 1 {
			w = 1
		}
		poolTasks = make(chan poolTask, 16*w)
		for i := 0; i < w; i++ {
			go func() {
				for t := range poolTasks {
					t.run()
				}
			}()
		}
	})
}

// ParallelMatMul computes c = a * b, sharding rows of a across the worker
// pool. It falls back to the sequential kernel for small inputs where
// even pool dispatch overhead would dominate.
func ParallelMatMul(c, a, b *Matrix) {
	checkMatMulShapes("ParallelMatMul", c, a, b)
	if a.Rows*a.Cols*b.Cols < parallelMatMulCutoff {
		gemmRows(c, a, b, 0, a.Rows)
		return
	}
	ParallelForGrain(a.Rows, a.Cols*b.Cols, func(lo, hi int) { gemmRows(c, a, b, lo, hi) })
}

// parallelMatMulCutoff is the multiply-add count below which the sequential
// GEMM wins outright.
const parallelMatMulCutoff = 1 << 16

// ParallelForGrain splits [0, n) into contiguous chunks and runs body on
// each chunk concurrently over the shared worker pool, blocking until all
// chunks complete. body must be safe to run concurrently on disjoint ranges.
// grain is the approximate cost of one index in arbitrary "element" units
// (for per-node kernels, the embedding dimension is a good estimate). The
// splitter refuses to create chunks carrying fewer than MinChunkWork units,
// so cheap regions run inline and expensive ones still fan out.
func ParallelForGrain(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := workers(0)
	if w == 1 || n < 2*w {
		body(0, n)
		return
	}
	if grain < 1 {
		grain = 1
	}
	minIdx := MinChunkWork / grain
	if minIdx < 1 {
		minIdx = 1
	}
	if n < 2*minIdx {
		body(0, n)
		return
	}
	chunk := (n + w - 1) / w
	if chunk < minIdx {
		chunk = minIdx
	}
	nChunks := (n + chunk - 1) / chunk
	if nChunks < 2 {
		body(0, n)
		return
	}
	ensurePool()
	r := regionPool.Get().(*parallelRegion)
	r.pending.Store(int32(nChunks))
	lo := 0
	for hi := chunk; hi < n; hi += chunk {
		t := poolTask{body: body, lo: lo, hi: hi, r: r}
		select {
		case poolTasks <- t:
		default:
			// Queue full: run the chunk on the caller rather than block.
			t.run()
		}
		lo = hi
	}
	// The caller always executes the final chunk itself instead of idling.
	poolTask{body: body, lo: lo, hi: n, r: r}.run()
	// Helping wait: while our region has chunks in flight, drain and run
	// queued tasks (ours or another region's). Waiters making progress on
	// the shared queue means nested parallel regions cannot deadlock the
	// fixed-size pool.
	for {
		select {
		case t := <-poolTasks:
			t.run()
		case <-r.done:
			regionPool.Put(r)
			return
		}
	}
}

// ParallelForEachGrain runs body(item) for each item concurrently, sharded
// in contiguous chunks, with a per-item work estimate (see
// ParallelForGrain).
func ParallelForEachGrain[T any](items []T, grain int, body func(item T)) {
	ParallelForGrain(len(items), grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(items[i])
		}
	})
}
